package core

import (
	"sync"

	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/stoke"
)

// portfolioSearch is the racing budget search. The stochastic engine
// runs on its own goroutine, streaming exactly-verified schedules
// through OnImprove; the SAT descend sweep (descendSearch, fed the best
// stochastic bound) runs on the caller's goroutine. The two halves trade
// in opposite directions:
//
//   - every stochastic improvement is a feasible upper bound, so SAT
//     probes at or above it are skipped (or interrupted mid-solve) and
//     the sweep resumes strictly below the bound — the stochastic side
//     shrinks the SAT side's ladder;
//   - the SAT side supplies what stochastic search never can: an UNSAT
//     refutation one budget below the best feasible schedule, which by
//     budget monotonicity refutes everything smaller, so OptimalProven
//     (and DRAT certification) survive the race.
//
// The adopted schedule may come from either side; c.Engine records the
// winner. A stochastic schedule lives outside the e-graph, so adopting
// one never weakens the refutation story: OptimalProven still means
// "every smaller budget was refuted", the documented e-graph-relative
// contract.
func (c *Compiled) portfolioSearch(gm *gma.GMA, opt Options) error {
	tr := opt.Trace
	var (
		mu      sync.Mutex
		curEng  *schedule.Engine // engine of the in-flight SAT probe, registered by the hook
		curK    = -1
		stBest  = -1 // best exactly-verified stochastic cycle count
		stSched *schedule.Schedule
	)
	st, err := stoke.New(gm, opt.Desc, stoke.Options{
		Seed:      int64(opt.Seed),
		Steps:     opt.StochasticSteps,
		MaxCycles: opt.MaxCycles,
		// The Trace span cursor is not goroutine-safe, so the racing
		// goroutine runs untraced and the SAT sweep keeps the spans.
		OnImprove: func(b stoke.Best) {
			mu.Lock()
			if stBest < 0 || b.Cycles < stBest {
				stBest, stSched = b.Cycles, b.Schedule
			}
			if curEng != nil && curK >= b.Cycles {
				// The probe in flight can only reconfirm what the bound
				// already proves feasible — cut it.
				curEng.Interrupt()
				tr.Add("portfolio.cuts", 1)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		// Memory shapes (and any GMA the stochastic engine cannot seed)
		// fall back to the proving SAT sweep alone.
		tr.Event("portfolio.fallback", obs.T("gma", gm.Name), obs.T("reason", err.Error()))
		return c.satSearch(gm, opt, DescendSearch)
	}
	probe, err := c.probeLadder(gm, opt, func(e *schedule.Engine, k int) {
		mu.Lock()
		if e != nil {
			// Re-arm and register under one critical section: a stale stop
			// flag from a cut aimed at the previous budget must not kill
			// this probe, and OnImprove interrupts under the same mutex, so
			// a cut can never slip between the clear and the registration.
			e.ClearInterrupt()
		}
		curEng, curK = e, k
		mu.Unlock()
	})
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	var stRes *stoke.Result
	var stErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stRes, stErr = st.Run()
	}()
	err = c.descendSearch(probe, opt.MaxCycles, opt.UpperBoundHint, func() (int, *schedule.Schedule) {
		mu.Lock()
		defer mu.Unlock()
		return stBest, stSched
	})
	// Join the racing goroutine and fold its statistics in. The SAT
	// side's SolveTime already covers the race's wall-clock, so the
	// overlapping stochastic elapsed time is reported via c.Stochastic
	// rather than added again.
	st.Interrupt()
	wg.Wait()
	if stErr != nil {
		tr.Event("portfolio.stoke_error", obs.T("gma", gm.Name), obs.T("error", stErr.Error()))
	} else {
		c.Stochastic = stRes
	}
	return err
}
