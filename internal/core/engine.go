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

// satSearch walks one persistent engine's probe ladder with a sequential
// strategy from the paper's budget sweep: linear, binary or descend.
func (c *Compiled) satSearch(gm *gma.GMA, opt Options, strategy SearchStrategy) error {
	c.Engine = "sat"
	probe, err := c.probeLadder(gm, opt, nil)
	if err != nil {
		return err
	}
	switch strategy {
	case BinarySearch:
		return c.binarySearch(probe, opt.MaxCycles)
	case DescendSearch:
		return c.descendSearch(probe, opt.MaxCycles, opt.UpperBoundHint, nil)
	default:
		return c.linearSearch(probe, opt.MaxCycles)
	}
}
