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

// PrefersScratch reports false for every GMA: the compiler answers every
// budget probe on the persistent schedule.Engine.
//
// Deprecated: there is no probe-mode pick left to report. It stays only
// for callers that still branch on it.
func PrefersScratch(*gma.GMA) bool { return false }

// probeLadder builds the probe function the sequential budget strategies
// walk: one persistent schedule.Engine answers every budget under a
// budget assumption, so conflict clauses learned refuting one budget keep
// pruning every later probe. Each K-probe is one span tagged with the
// outcome (SAT/UNSAT/UNKNOWN); the encode/solve/decode sub-phases nest
// inside it via Schedule.Trace.
//
// hook, when non-nil, is called with the engine just before each solve
// and with (nil, -1) right after — the portfolio racer's cancellation
// seam. The hook owns the ClearInterrupt re-arm (it must happen
// atomically with registration, or a stale stop flag aimed at the
// previous budget could kill the new probe).
func (c *Compiled) probeLadder(gm *gma.GMA, opt Options, hook func(e *schedule.Engine, k int)) (probeFunc, error) {
	tr := opt.Trace
	t0 := time.Now()
	eng, err := schedule.NewEngine(c.Graph, gm, initialWindow(opt), opt.MaxCycles, opt.Schedule)
	c.EncodeTime += time.Since(t0)
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
		// A probe that grew the window spent stat.Encode of its time
		// encoding, not solving.
		elapsed := time.Since(t0) - stat.Encode
		psp.End(obs.T("result", stat.Result.String()),
			obs.Tint("vars", int64(stat.Vars)), obs.Tint("clauses", int64(stat.Clauses)),
			obs.Tint("conflicts", stat.Solver.Conflicts))
		c.EncodeTime += stat.Encode
		c.SolveTime += elapsed
		c.Probes = append(c.Probes, Probe{Stat: stat, Elapsed: elapsed})
		if err != nil {
			return nil, stat.Result, err
		}
		return sched, stat.Result, nil
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
