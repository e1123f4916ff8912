package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/schedule"
)

// parallelSearch runs the cycle-budget search speculatively: up to
// Options.Workers K-probes are in flight at once, each an independent SAT
// query. Budget monotonicity (a K-cycle schedule is trivially a K+1-cycle
// schedule) makes speculation sound and cancellation aggressive:
//
//   - UNSAT at K refutes every budget below K, so in-flight probes with
//     K' < K are interrupted and count as refuted;
//   - SAT at K makes every probe with K' > K moot, so those are
//     interrupted and their answers discarded; a SAT answer at K' > K
//     that arrived first is superseded.
//
// The search finishes when the smallest satisfiable budget is known and
// everything below it is either directly or transitively resolved. With
// unbounded probes every budget gets a definite SAT/UNSAT answer, so
// Cycles and OptimalProven are exactly the sequential strategies' results.
// Under a MaxConflicts budget, timeouts (sat.Unknown without cancellation)
// are not deterministic across strategies — the CNF's variable order
// depends on map iteration and on e-graph state — so, like linearSearch,
// this becomes an anytime search: any SAT found is a real schedule, any
// refutation is sound, and OptimalProven is set only when every smaller
// budget was refuted directly or by implication.
func (c *Compiled) parallelSearch(gm *gma.GMA, opt Options) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxCycles := opt.MaxCycles
	tr := opt.Trace
	c.Engine = "sat"
	// Worker probes must not touch the trace's span cursor (they run
	// concurrently with each other); each probe instead records one
	// detached span, which is goroutine-safe.
	sopt := opt.Schedule
	sopt.Trace = nil

	// elapsed is a probe's wall-clock, encode the part of it spent
	// building (or growing) its problem.
	type outcome struct {
		k       int
		sched   *schedule.Schedule
		stat    schedule.Stat
		elapsed time.Duration
		encode  time.Duration
		err     error
	}
	results := make(chan outcome)

	var mu sync.Mutex // guards running and enginePool
	running := map[int]*schedule.Engine{}
	// Finished probes park their persistent engines here for the next
	// launch: each engine carries one e-graph clone and one warm solver,
	// so a pool of ~workers engines serves the whole search with learned
	// clauses accumulating across budgets.
	var enginePool []*schedule.Engine
	window := initialWindow(opt, maxCycles)

	// launch starts one speculative probe. The probe's engine is
	// registered under its budget before solving so a completed answer
	// elsewhere can interrupt it mid-search.
	launch := func(k int) {
		go func() {
			var sp *obs.Span
			if tr.Enabled() {
				tags := []obs.Tag{obs.Tint("K", int64(k))}
				if opt.RequestID != "" {
					tags = append(tags, obs.T("request", opt.RequestID))
				}
				sp = tr.StartDetached(fmt.Sprintf("probe K=%d", k), tags...)
			}
			t0 := time.Now()
			var encode time.Duration
			mu.Lock()
			var eng *schedule.Engine
			if n := len(enginePool); n > 0 {
				eng = enginePool[n-1]
				enginePool = enginePool[:n-1]
			}
			mu.Unlock()
			if eng == nil {
				// Each engine gets its own e-graph clone: a Graph is never
				// safe for concurrent use (Find path-halves), and problem
				// setup even adds input/constant terms. A single worker
				// means probes never overlap, so the clone (which copies
				// the hash-cons maps) is skipped.
				g := c.Graph
				if workers > 1 {
					g = c.Graph.Clone()
				}
				te := time.Now()
				var err error
				eng, err = schedule.NewEngine(g, gm, window, maxCycles, sopt)
				encode = time.Since(te)
				if err != nil {
					sp.End(obs.T("result", "error"))
					results <- outcome{k: k, err: err, elapsed: time.Since(t0)}
					return
				}
			}
			// Re-arm and register under one critical section: a stale stop
			// flag from a cancellation aimed at the engine's previous budget
			// must not kill this probe, and cancelMoot iterates running
			// under the same mutex, so an interrupt can never slip between
			// the clear and the registration.
			mu.Lock()
			eng.ClearInterrupt()
			running[k] = eng
			mu.Unlock()
			sched, stat, err := eng.SolveBudget(k)
			encode += stat.Encode
			mu.Lock()
			delete(running, k)
			enginePool = append(enginePool, eng)
			mu.Unlock()
			sp.End(obs.T("result", stat.Result.String()),
				obs.T("cancelled", boolStr(stat.Solver.Cancelled)),
				obs.Tint("vars", int64(stat.Vars)), obs.Tint("clauses", int64(stat.Clauses)),
				obs.Tint("conflicts", stat.Solver.Conflicts))
			results <- outcome{k: k, sched: sched, stat: stat, elapsed: time.Since(t0), encode: encode, err: err}
		}()
	}
	// cancelMoot interrupts every in-flight probe the predicate marks as
	// no longer needed. Interrupting a probe twice is harmless.
	cancelMoot := func(moot func(k int) bool) {
		mu.Lock()
		for k, eng := range running {
			if moot(k) {
				eng.Interrupt()
			}
		}
		mu.Unlock()
	}

	var (
		launched = map[int]bool{}
		nextK    = 0
		inflight = 0
		bestSat  = -1 // smallest budget with a direct SAT answer
		maxUnsat = -1 // largest budget with a direct UNSAT answer
		// resolved marks budgets whose probe finished (any result); a
		// budget below an UNSAT counts as resolved by implication.
		resolved = map[int]bool{}
		firstErr error
	)
	refuted := func(k int) bool { return k <= maxUnsat }
	// done: the optimum is known and nothing below it is still open.
	done := func() bool {
		if bestSat < 0 {
			return false
		}
		for k := 0; k < bestSat; k++ {
			if !refuted(k) && !resolved[k] {
				return false
			}
		}
		return true
	}
	// nextUseful picks the smallest undispatched budget that is neither
	// already refuted by implication nor at/above a known SAT answer.
	nextUseful := func() int {
		for ; nextK <= maxCycles; nextK++ {
			if launched[nextK] {
				continue
			}
			if refuted(nextK) {
				resolved[nextK] = true
				continue
			}
			if bestSat >= 0 && nextK >= bestSat {
				return -1
			}
			return nextK
		}
		return -1
	}

	for {
		if firstErr == nil && !done() {
			for inflight < workers {
				k := nextUseful()
				if k < 0 {
					break
				}
				launched[k] = true
				inflight++
				launch(k)
			}
		}
		if inflight == 0 {
			break
		}
		if firstErr != nil || done() {
			// Drain: everything still running is moot.
			cancelMoot(func(int) bool { return true })
		}
		out := <-results
		inflight--
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		c.EncodeTime += out.encode
		c.SolveTime += out.elapsed - out.encode
		c.Probes = append(c.Probes, Probe{Stat: out.stat, Elapsed: out.elapsed - out.encode})
		resolved[out.k] = true
		// An Unknown answer is either cancelled (its budget's answer is
		// implied) or a conflict-budget timeout; a timeout below the
		// optimum blocks the optimality proof, exactly as in linearSearch.
		switch out.stat.Result {
		case sat.Sat:
			// A smaller SAT supersedes the previous best, whose schedule
			// is discarded.
			if bestSat < 0 || out.k < bestSat {
				bestSat = out.k
				c.Schedule = out.sched
				c.Cycles = out.k
				// Probes above the optimum would only reconfirm SAT.
				cancelMoot(func(k int) bool { return k > out.k })
			}
		case sat.Unsat:
			if out.k > maxUnsat {
				maxUnsat = out.k
				// Monotonicity: smaller budgets are refuted a fortiori.
				cancelMoot(func(k int) bool { return k < out.k })
			}
		}
	}
	// Every probe has sent its outcome, and each parked its engine before
	// sending, so the pool holds every engine and no goroutine uses one.
	for _, eng := range enginePool {
		eng.Release()
	}
	if firstErr != nil {
		return firstErr
	}
	if bestSat < 0 {
		return ErrNoSchedule
	}
	c.OptimalProven = bestSat == 0 || refuted(bestSat-1)
	return nil
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
