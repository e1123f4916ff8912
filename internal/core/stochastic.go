package core

import (
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/stoke"
)

// stochasticSearch runs the STOKE-style MCMC search alone: no SAT
// probes, no refutations, so OptimalProven is never set — the result is
// a fast exactly-verified feasible schedule, deterministic in
// Options.Seed, from the engine's default proposal budget. GMA shapes
// the stochastic engine cannot search (memory operations) fall back to
// the proving SAT descend sweep so every strategy value compiles every
// GMA; the compile span root records why.
func (c *Compiled) stochasticSearch(gm *gma.GMA, opt Options, root *obs.Span) error {
	st, err := stoke.New(gm, opt.Desc, stoke.Options{
		Seed:      int64(opt.Seed),
		MaxCycles: opt.MaxCycles,
		Trace:     opt.Trace,
	})
	if err != nil {
		root.SetTag("fallback", err.Error())
		opt.Search = DescendSearch
		return c.satSearch(gm, opt)
	}
	res, err := st.Run()
	if err != nil {
		return err
	}
	c.Engine = "stochastic"
	c.Stochastic = res
	c.SolveTime += res.Elapsed
	if res.Schedule == nil {
		return ErrNoSchedule
	}
	c.Schedule = res.Schedule
	c.Cycles = res.Cycles
	c.OptimalProven = false
	return nil
}
