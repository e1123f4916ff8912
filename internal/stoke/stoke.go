// Package stoke is a STOKE-style stochastic superoptimization engine
// (Stochastic Superoptimization, ASPLOS 2013 — see PAPERS.md): instead
// of refuting cycle budgets with a SAT solver, it runs Markov-chain
// Monte Carlo over machine instruction sequences. Each step proposes one
// mutation (opcode, operand, swap, insert, delete, result retarget),
// screens the candidate on precomputed test vectors (internal/sim
// supplies the sampled environments and reference outputs), packs it
// into a concrete schedule under the full machine model, and accepts or
// rejects by the Metropolis criterion on a combined correctness +
// cycle-count cost. Candidates that pass every vector and improve on the
// best known cycle count are handed to exact verification (sim.Verify);
// only exactly-verified schedules are ever reported.
//
// The engine is an anytime search: it never proves optimality, but every
// reported schedule is a machine-checkable feasible upper bound, which
// is exactly what the portfolio mode in internal/core feeds to the SAT
// sweep to shrink its budget ladder. Runs are deterministic in the seed:
// no wall-clock dependence, a fixed step budget, and all randomness from
// one seeded source.
package stoke

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/semantics"
	"repro/internal/sim"
)

// ErrUnsupported reports a GMA shape the stochastic engine does not
// search: anything touching memory (loads, stores, memory-valued
// targets). Callers fall back to the SAT engine family for those.
var ErrUnsupported = errors.New("stoke: unsupported GMA shape (memory operations)")

// Options configures one engine instance.
type Options struct {
	// Seed makes the run deterministic: same GMA, architecture, options
	// and seed always produce the same result.
	Seed int64
	// Steps is the MCMC proposal budget (default 20000). The engine has
	// no time-based stopping, so runs are reproducible across machines.
	Steps int
	// Vectors is the number of screening test vectors (default 16).
	Vectors int
	// VerifyTrials is the trial count for exact acceptance via
	// sim.Verify (default 32).
	VerifyTrials int
	// Beta is the inverse temperature of the Metropolis criterion
	// (default 0.5); higher values reject uphill moves more often.
	Beta float64
	// MaxCycles caps reportable schedules; candidates packing longer are
	// still explored but never verified or reported (0 = unbounded).
	MaxCycles int
	// MaxLen caps the sequence length insert moves can reach
	// (0 = twice the seed length plus six).
	MaxLen int
	// Trace records the run's span and events; nil disables it.
	Trace *obs.Trace
	// OnImprove, when set, is called (from Run's goroutine) each time a
	// strictly better schedule passes exact verification — the portfolio
	// racer's upper-bound feed.
	OnImprove func(Best)
}

// Best is one verified improvement: a schedule that passed sim.Verify.
type Best struct {
	Schedule *schedule.Schedule
	Cycles   int
}

// Result summarizes one run.
type Result struct {
	// Schedule is the best exactly-verified schedule within MaxCycles
	// (nil when even the baseline seed exceeds the cap).
	Schedule *schedule.Schedule
	// Cycles is Schedule.K (0 with a nil Schedule).
	Cycles int
	// SeedCycles is the packed cycle count of the baseline seed.
	SeedCycles int
	// Steps counts proposals drawn; Accepted those taken by Metropolis;
	// Invalid proposals that failed well-formedness.
	Steps, Accepted, Invalid int
	// Screened counts candidates that passed every test vector at a new
	// best cycle count; Verified those confirmed by sim.Verify; Rejected
	// the screening false positives sim.Verify refuted.
	Screened, Verified, Rejected int
	// Restarts counts chain resets back to the best verified program
	// after a stall with no new best.
	Restarts int
	// Interrupted reports the run was cancelled via Interrupt.
	Interrupted bool
	// Elapsed is the wall-clock cost of Run.
	Elapsed time.Duration
}

// Engine is one stochastic search over one GMA. It is single-goroutine
// (Run), with Interrupt callable from any goroutine.
type Engine struct {
	g       *gma.GMA
	desc    *arch.Description
	opt     Options
	rng     *rand.Rand
	vecRng  *rand.Rand
	verRng  *rand.Rand
	vectors []sim.Vector
	seed    *prog
	targets []string
	pool    map[int][]string // eligible ALU opcodes by arity
	sem     map[string]semantics.WordOp
	maxLen  int
	stop    atomic.Bool
}

// New builds an engine for one GMA, seeding the chain with the
// conventional baseline (naivegen) so the starting point is correct by
// construction. It returns ErrUnsupported for memory-touching GMAs.
func New(g *gma.GMA, desc *arch.Description, opt Options) (*Engine, error) {
	if desc == nil {
		return nil, fmt.Errorf("stoke: architecture description is required")
	}
	// Memory-touching GMAs are detected structurally while seeding (a
	// baseline load/store launch, or a memory-valued target) rather than
	// by declaration: the language front end declares a memory variable
	// on every GMA, used or not.
	if opt.Steps <= 0 {
		opt.Steps = 20000
	}
	if opt.Vectors <= 0 {
		opt.Vectors = 16
	}
	if opt.VerifyTrials <= 0 {
		opt.VerifyTrials = 32
	}
	if opt.Beta <= 0 {
		opt.Beta = 0.5
	}
	e := &Engine{
		g:      g,
		desc:   desc,
		opt:    opt,
		rng:    rand.New(rand.NewSource(opt.Seed)),
		vecRng: rand.New(rand.NewSource(opt.Seed ^ 0x5eed5eed)),
		verRng: rand.New(rand.NewSource(opt.Seed ^ 0x7e57b17)),
		pool:   map[int][]string{},
		sem:    map[string]semantics.WordOp{},
	}
	seed, targets, err := seedProgram(g, desc)
	if err != nil {
		return nil, err
	}
	e.seed, e.targets = seed, targets
	e.maxLen = opt.MaxLen
	if e.maxLen <= 0 {
		e.maxLen = 2*len(seed.instrs) + 6
	}
	for name, op := range desc.Ops {
		w, ok := semantics.LookupWordOp(name)
		if !ok {
			continue // no executable semantics: never propose it
		}
		e.sem[name] = w
		if op.Class == arch.ClassALU {
			e.pool[w.Arity] = append(e.pool[w.Arity], name)
		}
	}
	for _, names := range e.pool {
		// Map iteration order is random; the proposal distribution must
		// be a pure function of the seed.
		sortStrings(names)
	}
	for _, ins := range seed.instrs {
		if _, ok := e.sem[ins.op]; !ok {
			return nil, fmt.Errorf("stoke: baseline op %s has no word semantics", ins.op)
		}
	}
	e.vectors, err = sim.Vectors(g, e.vecRng, opt.Vectors)
	if err != nil {
		return nil, err
	}
	return e, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// arity returns the operand count of an eligible operator.
func (e *Engine) arity(op string) int {
	return e.sem[op].Arity
}

// Interrupt asks a running Run to stop at its next step; the best
// verified schedule so far is still returned. Safe from any goroutine.
func (e *Engine) Interrupt() { e.stop.Store(true) }

// ClearInterrupt re-arms the engine after an Interrupt.
func (e *Engine) ClearInterrupt() { e.stop.Store(false) }

// screen evaluates the candidate on every test vector and returns the
// total correctness penalty in bits (Hamming distance on value targets,
// a fixed charge for a guard whose zero-ness flips).
func (e *Engine) screen(p *prog, vals []uint64) (int, bool) {
	penalty := 0
	argv := make([]uint64, 3)
	for vi := range e.vectors {
		v := &e.vectors[vi]
		for i, ins := range p.instrs {
			w, ok := e.sem[ins.op]
			if !ok {
				return 0, false
			}
			a := argv[:len(ins.args)]
			for j, o := range ins.args {
				switch o.kind {
				case kInput:
					a[j] = v.In[o.idx]
				case kTemp:
					a[j] = vals[o.idx]
				case kLit:
					a[j] = o.lit
				default:
					a[j] = 0
				}
			}
			vals[i] = w.Fn(a)
		}
		read := func(o opnd) uint64 {
			switch o.kind {
			case kInput:
				return v.In[o.idx]
			case kTemp:
				return vals[o.idx]
			case kLit:
				return o.lit
			}
			return 0
		}
		for j, name := range e.targets {
			got := read(p.results[j])
			if name == "<guard>" {
				if (got == 0) != (*v.WantGuard == 0) {
					penalty += 64
				}
				continue
			}
			penalty += bits.OnesCount64(got ^ v.Want[name])
		}
	}
	return penalty, true
}

// Run executes the MCMC search to its step budget (or Interrupt) and
// returns the best exactly-verified schedule.
func (e *Engine) Run() (*Result, error) {
	t0 := time.Now()
	tr := e.opt.Trace
	sp := tr.Start("stoke", obs.T("gma", e.g.Name), obs.Tint("steps", int64(e.opt.Steps)))
	res := &Result{}
	defer func() {
		res.Elapsed = time.Since(t0)
		sp.End(obs.Tint("verified", int64(res.Verified)), obs.Tint("cycles", int64(res.Cycles)))
	}()

	// cost folds the correctness penalty and the packed cycle count into
	// one Metropolis energy. The penalty is normalized to bits-per-vector
	// so its scale stays comparable to a cycle regardless of how many
	// vectors the screen has accumulated — an un-normalized sum over 16+
	// vectors would freeze the chain (every uphill move astronomically
	// improbable) and the search could never traverse the broken-but-close
	// intermediate candidates real rewrites pass through.
	cost := func(pen, k int) float64 {
		return float64(pen)/4 + float64(k)
	}
	vals := make([]uint64, e.maxLen)
	cur := e.seed.clone()
	pen, ok := e.screen(cur, vals)
	if !ok {
		return nil, fmt.Errorf("stoke: baseline sequence not screenable")
	}
	if pen != 0 {
		return nil, fmt.Errorf("stoke: baseline sequence fails its own test vectors (penalty %d)", pen)
	}
	seedSched, err := e.pack(cur)
	if err != nil {
		return nil, err
	}
	res.SeedCycles = seedSched.K
	var best *schedule.Schedule
	bestProg := cur
	adopt := func(p *prog, s *schedule.Schedule) {
		bestProg, best = p, s
		res.Schedule, res.Cycles = s, s.K
		if e.opt.OnImprove != nil {
			e.opt.OnImprove(Best{Schedule: s, Cycles: s.K})
		}
	}
	if e.opt.MaxCycles <= 0 || seedSched.K <= e.opt.MaxCycles {
		if err := sim.Verify(e.g, seedSched, e.desc, e.verRng, e.opt.VerifyTrials); err != nil {
			return nil, fmt.Errorf("stoke: baseline schedule failed verification: %w", err)
		}
		res.Verified++
		adopt(cur, seedSched)
	}
	curCost := cost(0, seedSched.K)

	// The chain restarts from the best verified program after a stall:
	// the plateau of correct programs is where single-move improvements
	// (a redundant mask deleted, an idiom substituted) live, and an
	// unguided excursion into broken territory rarely walks back on its
	// own. Restarts keep re-sampling the neighbourhood that matters.
	const restartAfter = 1500
	stall := 0

	for step := 0; step < e.opt.Steps; step++ {
		if e.stop.Load() {
			res.Interrupted = true
			break
		}
		if stall >= restartAfter && best != nil {
			cur, curCost = bestProg.clone(), cost(0, best.K)
			res.Restarts++
			stall = 0
		}
		stall++
		res.Steps++
		cand := e.propose(cur)
		if cand == nil {
			res.Invalid++
			continue
		}
		pen, ok := e.screen(cand, vals)
		if !ok {
			res.Invalid++
			continue
		}
		sched, err := e.pack(cand)
		if err != nil {
			res.Invalid++
			continue
		}
		cc := cost(pen, sched.K)
		if cc <= curCost || e.rng.Float64() < math.Exp(-(cc-curCost)*e.opt.Beta) {
			cur, curCost = cand, cc
			res.Accepted++
		}
		if pen != 0 || (e.opt.MaxCycles > 0 && sched.K > e.opt.MaxCycles) {
			continue
		}
		if best != nil && sched.K >= best.K {
			continue
		}
		res.Screened++
		if err := sim.Verify(e.g, sched, e.desc, e.verRng, e.opt.VerifyTrials); err != nil {
			// A screening false positive: the vectors missed a behaviour
			// exact verification caught. Sharpen the screen so this
			// candidate (and its neighbourhood) stops passing.
			res.Rejected++
			tr.Event("stoke.reject", obs.T("gma", e.g.Name), obs.T("error", err.Error()))
			if extra, verr := sim.Vectors(e.g, e.vecRng, 2); verr == nil {
				e.vectors = append(e.vectors, extra...)
			}
			continue
		}
		res.Verified++
		adopt(cand, sched)
		stall = 0
	}
	return res, nil
}
