package schedule

import (
	"fmt"
	"time"

	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Engine answers a sequence of cycle-budget probes for one GMA against a
// single persistent solver. Instead of re-encoding and re-solving from
// scratch per budget (one throwaway Problem per K), it encodes a
// budget-layered window once and turns each probe into
//
//	Solve(selVar[k])
//
// so conflict clauses learned refuting one budget — which are implied by
// the clause database alone, never by the assumption — keep pruning the
// search at every later budget. This is the MiniSat assumption interface
// applied to Denali's optimality loop: the questions "does a K-cycle
// program exist?" for K, K−1, … differ only in the goal row, which the
// layered encoding isolates behind per-budget selector literals.
//
// An Engine is not safe for concurrent SolveBudget calls; the parallel
// strategy pools one Engine per in-flight probe instead of sharing one.
// Interrupt and ClearInterrupt ARE safe from other goroutines — that is
// how speculative probes are retired.
type Engine struct {
	p      *Problem
	maxK   int
	probes int
	// lastSat/lastK record the previous probe: they decide whether the
	// next probe inherits or resets the branching heuristics (see
	// SolveBudget).
	lastSat bool
	lastK   int
	// maxRefuted is the largest budget this engine has proven infeasible,
	// -1 before the first. Each new maximum is committed to the clause
	// database as the unit ¬selVar[k] — implied by the database, so
	// satisfiability is unchanged — which stops the solver from ever
	// branching a dead selector back on; the selector chain then forces
	// every smaller selector off too.
	maxRefuted int
}

// NewEngine builds a persistent probe engine whose encoded window covers
// budgets 0..window. A probe beyond the window grows it in place to the
// probed budget (see SolveBudget); probes beyond maxK are rejected. With
// Options.Certify the engine's solver logs a DRAT proof, and every UNSAT
// probe returns its refutation as Stat.Cert.
func NewEngine(g *egraph.Graph, gm *gma.GMA, window, maxK int, opt Options) (*Engine, error) {
	if window > maxK {
		window = maxK
	}
	if window < 0 {
		return nil, fmt.Errorf("schedule: negative window %d", window)
	}
	p, err := newProblem(g, gm, window, opt, true)
	if err != nil {
		return nil, err
	}
	return &Engine{p: p, maxK: maxK, maxRefuted: -1}, nil
}

// Window is the current encoded window: the largest budget answerable
// without growing it.
func (e *Engine) Window() int { return e.p.K }

// Rebuilds is the number of window re-encodes performed so far. The
// window grows in place, so it is always 0; it stays for callers that
// report it.
func (e *Engine) Rebuilds() int { return 0 }

// Probes is the number of budget probes answered so far.
func (e *Engine) Probes() int { return e.probes }

// Interrupt asks a running (or future) SolveBudget to stop, returning
// sat.Unknown with Stat.Solver.Cancelled set. Safe from any goroutine.
func (e *Engine) Interrupt() { e.p.solver.Interrupt() }

// ClearInterrupt re-arms the engine after an Interrupt, so a pooled
// engine's next probe is not cancelled by a stale stop flag.
func (e *Engine) ClearInterrupt() { e.p.solver.ClearInterrupt() }

// Release hands the engine's solver tables to the next solver built in
// this process (see sat.Solver.Release). Nothing the engine returned
// points into them: schedules are decoded through the solver's Value and
// certificates are drat.Recorder copies. The engine must not be used
// afterwards: a later SolveBudget or Release panics.
func (e *Engine) Release() {
	e.p.solver.Release()
	e.p.solver = nil
}

// SolveBudget probes "does a program of at most k cycles exist?" under
// the budget assumption. The returned Stat mirrors Problem.Solve's, with
// Incremental set, Solver holding this call's deltas and Encode the
// time spent growing the window for it. A budget beyond the window grows
// the window to k in place: the new cycles' variables and clauses join
// the same solver, so learned clauses survive and the window — and with
// it every certificate — stays as small as the ladder allows.
//
// With Options.Certify, an UNSAT answer carries Stat.Cert: every clause
// given to the solver so far plus the unit selVar[k] as premises, every
// logged lemma and deletion as steps, closed by the empty clause (see
// drat.Recorder.Snapshot). It is nil when a budget at or above k was
// refuted earlier: that committed unit would refute selVar[k] outright,
// and the certificate would prove nothing about k.
func (e *Engine) SolveBudget(k int) (*Schedule, Stat, error) {
	if k < 0 || k > e.maxK {
		return nil, Stat{}, fmt.Errorf("schedule: budget %d outside engine range [0, %d]", k, e.maxK)
	}
	p := e.p
	tr := p.opt.Trace
	var grow time.Duration
	if k > p.K {
		sp := tr.Start("encode", obs.Tint("window", int64(k)))
		t0 := time.Now()
		p.extend(k)
		grow = time.Since(t0)
		sp.End(obs.Tint("vars", int64(p.solver.NumVars())), obs.Tint("clauses", int64(p.solver.NumClauses())))
	}
	reused := e.probes > 0
	e.probes++
	if reused && !(e.lastSat && k == e.lastK-1) {
		// Restore the branching heuristics to the cold-start state, keeping
		// the learned clauses. Phases, activities, and heap order carried
		// over from an earlier probe usually steer this one back into the
		// region just explored — state saved while refuting budget k−1 was
		// measured at 20–100× extra conflicts on the eventual SAT probe,
		// and a model found at a distant budget misleads similarly. Reset,
		// the solver walks the same cheap trajectory a fresh one would, and
		// the retained conflict clauses prune it further. The one carry-over
		// that helps is a model at exactly k+1: a K-cycle schedule is the
		// best imaginable warm start for the K−1 question (the descending
		// sweep's common case), so that state is kept.
		p.solver.ResetPhases()
		p.solver.ResetActivities()
	}
	sel := sat.Pos(p.selVar[k])
	sched, stat, err := p.solve(Stat{K: k, Incremental: true, Reused: reused, Encode: grow}, sel)
	e.lastSat, e.lastK = stat.Result == sat.Sat, k
	if stat.Result == sat.Unsat && k > e.maxRefuted {
		if p.proof != nil {
			// Snapshot before committing ¬selVar[k]: that unit is this
			// refutation's conclusion, not one of its premises.
			stat.Cert = p.proof.Snapshot(sel)
		}
		if p.solver.Core() != nil {
			// Commit the refutation: ¬selVar[k] is now implied by the clause
			// database (the core proves it), so making it a unit stops later
			// probes from branching this dead selector back on — without it,
			// the VSIDS bumps it collected while being refuted make exactly
			// that branch attractive, and the next probe re-explores the
			// budget it just proved empty.
			e.maxRefuted = k
			p.solver.AddClause(sat.Neg(p.selVar[k]))
		}
	}
	return sched, stat, err
}
