package core

import (
	"time"

	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/schedule"
)

// PrefersScratch reports false for every GMA: the compiler answers every
// budget probe on the persistent schedule.Engine.
//
// Deprecated: there is no probe-mode pick left to report. It stays only
// for callers that still branch on it.
func PrefersScratch(*gma.GMA) bool { return false }

// probeLadder returns the probe function the sequential budget
// strategies walk: one persistent schedule.Engine answers every budget
// under a budget assumption, so conflict clauses learned refuting one
// budget keep pruning every later probe. Each K-probe is one span tagged
// with the outcome (SAT/UNSAT/UNKNOWN); the encode/solve/decode
// sub-phases nest inside it via Schedule.Trace.
func (c *Compiled) probeLadder(eng *schedule.Engine, opt Options) probeFunc {
	tr := opt.Trace
	return func(k int) (*schedule.Schedule, sat.Result, error) {
		psp := tr.Startf("probe K=%d", k)
		t0 := time.Now()
		sched, stat, err := eng.SolveBudget(k)
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
	}
}

// satSearch walks one persistent engine's probe ladder with a sequential
// strategy from the paper's budget sweep: linear, binary or descend. The
// baseline's bound is computed once and sizes the engine's first window
// (initialWindow): linear stops at its first satisfiable budget, which
// never lies above the bound, and descend starts at the bound itself.
// The engine's solver tables are released for the next GMA's engine
// when the ladder ends.
func (c *Compiled) satSearch(gm *gma.GMA, opt Options) error {
	c.Engine = "sat"
	bound := opt.MaxCycles // binary's window does not depend on it
	if opt.Search != BinarySearch {
		bound = baselineBound(gm, opt)
	}
	t0 := time.Now()
	eng, err := schedule.NewEngine(c.Graph, gm, initialWindow(opt, bound), opt.MaxCycles, opt.Schedule)
	c.EncodeTime += time.Since(t0)
	if err != nil {
		return err
	}
	defer eng.Release()
	probe := c.probeLadder(eng, opt)
	switch opt.Search {
	case BinarySearch:
		return c.binarySearch(probe, opt.MaxCycles)
	case DescendSearch:
		return c.descendSearch(probe, opt.MaxCycles, bound)
	default:
		return c.linearSearch(probe, opt.MaxCycles)
	}
}
