// Package sim executes scheduled EV6 machine code on a simulated machine
// state and independently re-checks every scheduling rule the constraint
// generator is supposed to enforce: operand readiness under latencies and
// cross-cluster delays, functional-unit capability and exclusivity, and
// issue width.
//
// It is the reproduction's substitute for the authors' real Alpha hardware:
// Denali's claims are about static schedules under a declared machine
// model, and this simulator implements exactly that model (see DESIGN.md).
// The Verify function closes the loop — "the output of Denali is correct by
// design" — by running generated code on random inputs and comparing the
// final machine state against the GMA's reference semantics.
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/semantics"
)

// Machine is a simulated machine state: an integer register file and a
// word-addressed memory.
type Machine struct {
	Regs map[string]uint64
	Mem  map[uint64]uint64
}

// NewMachine returns an empty machine.
func NewMachine() *Machine {
	return &Machine{Regs: map[string]uint64{}, Mem: map[uint64]uint64{}}
}

// Clone deep-copies the machine state.
func (m *Machine) Clone() *Machine {
	c := NewMachine()
	for k, v := range m.Regs {
		c.Regs[k] = v
	}
	for k, v := range m.Mem {
		c.Mem[k] = v
	}
	return c
}

// regState tracks when a register's value becomes readable.
type regState struct {
	ready   int // cycle at whose end the value is available on its cluster
	cluster int
	input   bool
}

// Run executes the schedule against the machine state (in place),
// validating the timing model described by d. Inputs are the registers
// present in m.Regs at entry. It returns an error describing the first
// violated scheduling rule, making it an independent checker of the SAT
// encoding.
func Run(s *schedule.Schedule, d *arch.Description, m *Machine) error {
	return RunTraced(s, d, m, nil)
}

// RunTraced is Run with telemetry: one "sim.run" span plus simulated
// cycle and launched-instruction counters. A nil trace is free.
func RunTraced(s *schedule.Schedule, d *arch.Description, m *Machine, tr *obs.Trace) error {
	sp := tr.Start("sim.run", obs.Tint("cycles", int64(s.K)), obs.Tint("instructions", int64(len(s.Launches))))
	tr.Add("sim.cycles", int64(s.K))
	tr.Add("sim.instructions", int64(len(s.Launches)))
	err := run(s, d, m)
	if err != nil {
		tr.Event("sim.violation", obs.T("error", err.Error()))
	}
	sp.End()
	return err
}

func run(s *schedule.Schedule, d *arch.Description, m *Machine) error {
	byCycle := map[int][]*schedule.Launch{}
	states := map[string]regState{}
	for r := range m.Regs {
		states[r] = regState{ready: -1, input: true}
	}
	states["$31"] = regState{ready: -1, input: true}
	m.Regs["$31"] = 0

	bClusters := 1
	if d.CrossClusterDelay > 0 {
		bClusters = d.NumClusters
	}
	clusterOf := func(u arch.Unit) int {
		if bClusters == 1 {
			return 0
		}
		return d.Units[u].Cluster
	}

	unitBusy := map[[2]int]bool{}
	for i := range s.Launches {
		l := &s.Launches[i]
		if l.Cycle < 0 || l.Cycle+l.Latency > s.K {
			return fmt.Errorf("sim: %q launched at cycle %d with latency %d exceeds budget %d", l.Text, l.Cycle, l.Latency, s.K)
		}
		if int(l.Unit) < 0 || int(l.Unit) >= len(d.Units) {
			return fmt.Errorf("sim: %q uses invalid unit %d", l.Text, l.Unit)
		}
		op, ok := d.Op(l.TermOp)
		if !ok {
			return fmt.Errorf("sim: %q is not a machine operation", l.TermOp)
		}
		allowed := false
		for _, u := range op.Units {
			if u == l.Unit {
				allowed = true
			}
		}
		if !allowed {
			return fmt.Errorf("sim: %s cannot execute on unit %s", l.Mnemonic, d.Units[l.Unit].Name)
		}
		key := [2]int{l.Cycle, int(l.Unit)}
		if unitBusy[key] {
			return fmt.Errorf("sim: two launches on %s in cycle %d", d.Units[l.Unit].Name, l.Cycle)
		}
		unitBusy[key] = true
		byCycle[l.Cycle] = append(byCycle[l.Cycle], l)
	}
	for cyc, ls := range byCycle {
		if len(ls) > d.IssueWidth {
			return fmt.Errorf("sim: %d launches in cycle %d exceed issue width %d", len(ls), cyc, d.IssueWidth)
		}
	}

	readReg := func(reg string, atCycle, consumerCluster int, text string) (uint64, error) {
		st, ok := states[reg]
		if !ok {
			return 0, fmt.Errorf("sim: %q reads register %s before any write", text, reg)
		}
		avail := st.ready
		if !st.input && st.cluster != consumerCluster {
			avail += d.CrossClusterDelay
		}
		if avail > atCycle-1 {
			return 0, fmt.Errorf("sim: %q at cycle %d reads %s which is ready only at end of cycle %d", text, atCycle, reg, avail)
		}
		return m.Regs[reg], nil
	}
	readOperand := func(o schedule.Operand, atCycle, cluster int, text string) (uint64, error) {
		if o.IsLit {
			return o.Lit, nil
		}
		return readReg(o.Reg, atCycle, cluster, text)
	}

	// Execute cycle by cycle: loads read memory at launch, stores take
	// effect at end of their launch cycle. Register timestamps carry the
	// real dependence checking.
	type regWrite struct {
		reg   string
		val   uint64
		ready int
		cl    int
	}
	type memWrite struct {
		addr, val uint64
	}
	for cyc := 0; cyc < s.K; cyc++ {
		var regWrites []regWrite
		var memWrites []memWrite
		for _, l := range byCycle[cyc] {
			cl := clusterOf(l.Unit)
			switch {
			case l.IsLoad:
				addr := uint64(l.Disp)
				if l.Base != nil {
					b, err := readOperand(*l.Base, cyc, cl, l.Text)
					if err != nil {
						return err
					}
					addr = b + uint64(l.Disp)
				}
				regWrites = append(regWrites, regWrite{l.Dest, m.Mem[addr], cyc + l.Latency - 1, cl})
			case l.IsStore:
				addr := uint64(l.Disp)
				if l.Base != nil {
					b, err := readOperand(*l.Base, cyc, cl, l.Text)
					if err != nil {
						return err
					}
					addr = b + uint64(l.Disp)
				}
				v, err := readOperand(*l.Val, cyc, cl, l.Text)
				if err != nil {
					return err
				}
				memWrites = append(memWrites, memWrite{addr, v})
			case l.TermOp == "ldiq":
				regWrites = append(regWrites, regWrite{l.Dest, l.Args[0].Lit, cyc + l.Latency - 1, cl})
			default:
				vals := make([]uint64, len(l.Args))
				for ai, a := range l.Args {
					v, err := readOperand(a, cyc, cl, l.Text)
					if err != nil {
						return err
					}
					vals[ai] = v
				}
				out, ok := semantics.FoldWord(l.TermOp, vals)
				if !ok {
					return fmt.Errorf("sim: no semantics for %s", l.TermOp)
				}
				regWrites = append(regWrites, regWrite{l.Dest, out, cyc + l.Latency - 1, cl})
			}
		}
		for _, w := range regWrites {
			if prev, exists := states[w.reg]; exists && !prev.input {
				return fmt.Errorf("sim: register %s written twice", w.reg)
			} else if exists && prev.input {
				return fmt.Errorf("sim: input register %s overwritten", w.reg)
			}
			m.Regs[w.reg] = w.val
			states[w.reg] = regState{ready: w.ready, cluster: w.cl}
		}
		for _, w := range memWrites {
			m.Mem[w.addr] = w.val
		}
	}
	return nil
}
