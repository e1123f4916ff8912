package core

import (
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/stoke"
)

// stochasticSearch runs the STOKE-style MCMC search alone: no SAT
// probes, no refutations, so OptimalProven is never set — the result is
// a fast exactly-verified feasible schedule, deterministic in
// Options.Seed. GMA shapes the stochastic engine cannot search (memory
// operations) fall back to the proving SAT descend sweep so every
// strategy value compiles every GMA.
func (c *Compiled) stochasticSearch(gm *gma.GMA, opt Options) error {
	st, err := stoke.New(gm, opt.Desc, stoke.Options{
		Seed:      int64(opt.Seed),
		Steps:     opt.StochasticSteps,
		MaxCycles: opt.MaxCycles,
		Trace:     opt.Trace,
	})
	if err != nil {
		opt.Trace.Event("stochastic.fallback", obs.T("gma", gm.Name), obs.T("reason", err.Error()))
		return c.satSearch(gm, opt, DescendSearch)
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
