package core

import (
	"time"

	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/schedule"
)

// Engine is the pluggable budget-search seam: probe machinery in,
// verified schedule plus optimality evidence out. An implementation
// fills c.Schedule, c.Cycles, c.OptimalProven, c.Probes and c.Engine;
// CompileGMA has already run matching, so c.Graph is saturated when
// Search is called. The SAT strategies (linear, binary, descend,
// parallel) are one engine family behind this interface; the stochastic
// MCMC engine and the portfolio racer are the others.
type Engine interface {
	// Name labels the engine family ("sat", "stochastic", "portfolio")
	// for flight reports and win-rate rollups.
	Name() string
	// Search runs the budget search on the matched Compiled.
	Search(c *Compiled, gm *gma.GMA, opt Options) error
}

// EngineFor maps the requested strategy onto its engine implementation.
func EngineFor(opt Options) Engine {
	switch opt.Search {
	case ParallelSearch:
		return parallelEngine{}
	case StochasticSearch:
		return stochasticEngine{}
	case PortfolioSearch:
		return portfolioEngine{}
	}
	return satEngine{strategy: opt.Search}
}

// interrupter is the cancellation seam shared by from-scratch Problems
// and persistent Engines (both expose Interrupt).
type interrupter interface{ Interrupt() }

// adaptiveScratchMaxGoal is the total goal-term size at or below which
// the adaptive pick routes a GMA to from-scratch probes. Tiny goals
// (scale4plus1's 5-node term, double's 3-node term) finish the whole
// sweep in a couple of probes, so the persistent engine's up-front
// window encode costs more than the learned-clause reuse it buys —
// the BENCH_5 incremental slowdown this threshold exists to fix.
const adaptiveScratchMaxGoal = 6

// PrefersScratch reports that the GMA's goals are small enough that the
// budget search is expected to resolve within about two probes, where a
// throwaway Problem per probe beats a persistent incremental engine. It
// is the only probe-mode selector: the sequential ladder and the parallel
// speculator both follow it, and no option overrides it (answers are
// identical either way; only probe cost changes).
func PrefersScratch(gm *gma.GMA) bool {
	size := 0
	for _, goal := range gm.Goals() {
		size += goal.Size()
	}
	return size <= adaptiveScratchMaxGoal
}

// probeLadder builds the probe function the sequential budget strategies
// walk. Each K-probe is one span tagged with the outcome
// (SAT/UNSAT/UNKNOWN); the encode/solve/decode sub-phases nest inside it
// via Schedule.Trace. The GMA's goal size alone picks the probe mode
// (PrefersScratch): small goals get a throwaway Problem per probe (fresh
// CDCL solver, full re-encode); everything else is answered by one
// persistent schedule.Engine under a budget assumption, so conflict
// clauses learned refuting one budget keep pruning every later probe.
//
// hook, when non-nil, is called with each probe's interrupter just
// before solving and with (nil, -1) right after — the portfolio racer's
// cancellation seam. The hook owns any ClearInterrupt re-arm (it must
// happen atomically with registration, or a stale stop flag aimed at the
// previous budget could kill the new probe).
func (c *Compiled) probeLadder(gm *gma.GMA, opt Options, hook func(p interrupter, k int)) (probeFunc, error) {
	tr := opt.Trace
	record := func(k int, psp *obs.Span, sched *schedule.Schedule, stat schedule.Stat, elapsed time.Duration, err error) (*schedule.Schedule, sat.Result, error) {
		psp.End(obs.T("result", stat.Result.String()),
			obs.Tint("vars", int64(stat.Vars)), obs.Tint("clauses", int64(stat.Clauses)),
			obs.Tint("conflicts", stat.Solver.Conflicts))
		c.SolveTime += elapsed
		c.Probes = append(c.Probes, Probe{Stat: stat, Elapsed: elapsed})
		if err != nil {
			return nil, stat.Result, err
		}
		return sched, stat.Result, nil
	}
	if PrefersScratch(gm) {
		return func(k int) (*schedule.Schedule, sat.Result, error) {
			psp := tr.Startf("probe K=%d", k)
			tr.Add("probes", 1)
			p, err := schedule.NewProblem(c.Graph, gm, k, opt.Schedule)
			if err != nil {
				psp.End(obs.T("result", "error"))
				return nil, sat.Unknown, err
			}
			if hook != nil {
				hook(p, k)
			}
			t0 := time.Now()
			sched, stat, err := p.Solve()
			if hook != nil {
				hook(nil, -1)
			}
			return record(k, psp, sched, stat, time.Since(t0), err)
		}, nil
	}
	eng, err := schedule.NewEngine(c.Graph, gm, initialWindow(opt), opt.MaxCycles, opt.Schedule)
	if err != nil {
		return nil, err
	}
	return func(k int) (*schedule.Schedule, sat.Result, error) {
		psp := tr.Startf("probe K=%d", k)
		tr.Add("probes", 1)
		if hook != nil {
			hook(eng, k)
		}
		t0 := time.Now()
		sched, stat, err := eng.SolveBudget(k)
		if hook != nil {
			hook(nil, -1)
		}
		return record(k, psp, sched, stat, time.Since(t0), err)
	}, nil
}

// satEngine is the refutation-based engine family: the sequential SAT
// strategies from the paper's budget sweep, behind the Engine seam.
type satEngine struct{ strategy SearchStrategy }

func (satEngine) Name() string { return "sat" }

func (e satEngine) Search(c *Compiled, gm *gma.GMA, opt Options) error {
	c.Engine = e.Name()
	probe, err := c.probeLadder(gm, opt, nil)
	if err != nil {
		return err
	}
	switch e.strategy {
	case BinarySearch:
		return c.binarySearch(probe, opt.MaxCycles)
	case DescendSearch:
		return c.descendSearch(probe, opt.MaxCycles, opt.UpperBoundHint, nil)
	default:
		return c.linearSearch(probe, opt.MaxCycles)
	}
}

// parallelEngine wraps the speculative parallel sweep; it is the same
// SAT family (identical Cycles, possibly stronger OptimalProven), with
// its own probe management instead of the sequential ladder.
type parallelEngine struct{}

func (parallelEngine) Name() string { return "sat" }

func (e parallelEngine) Search(c *Compiled, gm *gma.GMA, opt Options) error {
	c.Engine = e.Name()
	return c.parallelSearch(gm, opt)
}
