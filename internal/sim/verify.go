package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/semantics"
	"repro/internal/term"
)

// Verify checks a compiled schedule against the GMA's reference semantics
// on n random inputs: it seeds a machine with random register and memory
// contents, runs the schedule, and compares every target's final location
// (and the guard) with a direct evaluation of the GMA's right-hand sides.
//
// This is the reproduction's "correct by design" test: matching only ever
// asserts valid equalities and the scheduler only orders true computations,
// so any mismatch here is a bug in the pipeline, not in the program.
func Verify(g *gma.GMA, s *schedule.Schedule, d *arch.Description, rng *rand.Rand, n int) error {
	return VerifyTraced(g, s, d, rng, n, nil)
}

// VerifyTraced is Verify under one "verify" span tagged with the trial
// count, holding one "sim.run" span per trial. A nil trace is free.
func VerifyTraced(g *gma.GMA, s *schedule.Schedule, d *arch.Description, rng *rand.Rand, n int, tr *obs.Trace) error {
	sp := tr.Start("verify", obs.T("gma", g.Name), obs.Tint("trials", int64(n)))
	defer sp.End()
	for trial := 0; trial < n; trial++ {
		env, err := sampleEnv(g, rng)
		if err != nil {
			return err
		}
		if err := verifyOnce(g, s, d, env, tr); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
	}
	return nil
}

// sampleEnv draws a random environment satisfying the GMA's programmer
// assumptions (a schedule is only required to be correct on inputs where
// the trusted facts hold).
func sampleEnv(g *gma.GMA, rng *rand.Rand) (*semantics.Env, error) {
	for attempt := 0; attempt < 200; attempt++ {
		env := semantics.NewEnv()
		env.Defs = g.Defs
		for _, in := range g.Inputs {
			env.Words[in] = randomWord(rng)
		}
		// Equality assumptions between plain variables can be satisfied
		// by construction.
		for _, as := range g.Assumes {
			if as.Eq && as.A.Kind == term.Var && as.B.Kind == term.Var {
				env.Words[as.B.Name] = env.Words[as.A.Name]
			}
		}
		for _, mv := range g.MemoryVars {
			contents := map[uint64]uint64{}
			// Populate memory around the values input registers hold, so
			// address arithmetic (p, p+8, ...) hits interesting data.
			for _, base := range env.Words {
				for off := int64(-16); off <= 48; off += 8 {
					contents[base+uint64(off)] = rng.Uint64()
				}
			}
			env.MemContents[mv] = contents
		}
		ok := true
		for _, as := range g.Assumes {
			av, err := semantics.EvalWord(as.A, env)
			if err != nil {
				return nil, err
			}
			bv, err := semantics.EvalWord(as.B, env)
			if err != nil {
				return nil, err
			}
			if (av == bv) != as.Eq {
				ok = false
				break
			}
		}
		if ok {
			return env, nil
		}
	}
	return nil, fmt.Errorf("sim: could not sample inputs satisfying the assumptions of %s", g.Name)
}

func randomWord(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(256))
	case 1:
		return uint64(rng.Intn(1 << 16))
	default:
		return rng.Uint64()
	}
}

func verifyOnce(g *gma.GMA, s *schedule.Schedule, d *arch.Description, env *semantics.Env, tr *obs.Trace) error {
	m := NewMachine()
	for name, reg := range s.InputRegs {
		if w, ok := env.Words[name]; ok {
			m.Regs[reg] = w
		}
	}
	var memName string
	if len(g.MemoryVars) > 0 {
		memName = g.MemoryVars[0]
		for a, v := range env.MemContents[memName] {
			m.Mem[a] = v
		}
	}
	if err := RunTraced(s, d, m, tr); err != nil {
		return err
	}
	readOperand := func(o schedule.Operand) uint64 {
		if o.IsLit {
			return o.Lit
		}
		return m.Regs[o.Reg]
	}
	// Guard.
	if g.Guard != nil {
		want, err := semantics.EvalWord(g.Guard, env)
		if err != nil {
			return err
		}
		op, ok := s.ResultRegs["<guard>"]
		if !ok {
			return fmt.Errorf("sim: schedule lacks a guard result")
		}
		// The guard is used as a zero/nonzero condition.
		if (readOperand(op) == 0) != (want == 0) {
			return fmt.Errorf("sim: guard = %d, want %d", readOperand(op), want)
		}
	}
	// Targets.
	for i, t := range g.Targets {
		switch t.Kind {
		case gma.Reg:
			want, err := semantics.EvalWord(g.Values[i], env)
			if err != nil {
				return err
			}
			op, ok := s.ResultRegs[t.Name]
			if !ok {
				return fmt.Errorf("sim: no result location for target %s", t.Name)
			}
			if got := readOperand(op); got != want {
				return fmt.Errorf("sim: target %s = %#x, want %#x", t.Name, got, want)
			}
		case gma.Memory:
			val, err := semantics.Eval(g.Values[i], env)
			if err != nil {
				return err
			}
			mem, ok := val.(*semantics.Mem)
			if !ok {
				return fmt.Errorf("sim: memory target %s evaluated to a word", t.Name)
			}
			base := env.MemContents[memName]
			// Compare at every address the reference wrote and every
			// address in the initial contents.
			addrs := map[uint64]bool{}
			for _, a := range mem.Writes() {
				addrs[a] = true
			}
			for a := range base {
				addrs[a] = true
			}
			for a := range addrs {
				want := mem.Read(a, base)
				if got := m.Mem[a]; got != want {
					return fmt.Errorf("sim: memory[%#x] = %#x, want %#x", a, got, want)
				}
			}
		}
	}
	return nil
}
