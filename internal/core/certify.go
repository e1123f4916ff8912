package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
)

// certifyOptimality turns OptimalProven from a solver claim into a
// checked fact. A K-cycle optimum rests on exactly one load-bearing
// UNSAT answer — the refutation of budget K−1 (smaller budgets follow by
// monotonicity) — and every search strategy that sets OptimalProven has
// probed K−1 directly: linear refutes each budget on the way up, binary
// only advances its lower bound on a direct UNSAT, descend's first
// failure sits immediately below its last success, and the parallel
// search's largest refuted budget is exactly bestSat−1. That probe's
// own DRAT certificate, recorded while it was solved, is re-checked here
// by the independent checker in internal/drat; nothing is re-encoded or
// re-solved. A check failure is reported as an error because it means
// the solver's UNSAT answer (and so the optimality claim) cannot be
// trusted.
//
// Every probe runs on a schedule.Engine, whose certificate refutes
// F ∧ sel_{K−1}, where F is every clause the engine's solver was given
// so far — its up-front window, the window's in-place extensions and the
// units ¬sel_j committed for the budgets j < K−1 it refuted earlier —
// and sel_{K−1} is the probed budget selector, a unit premise. That
// proves "no (K−1)-cycle program" because:
//
//   - without the committed units, F ∧ sel_k is exactly the k-cycle
//     question: a model exists iff a k-cycle program does (the layered
//     encoding's invariant, which TestIncrementalEquivalence checks
//     budget by budget against one-shot NewProblem encodings);
//   - selectors occur positively only in the chain clauses
//     ¬sel_{j−1} ∨ sel_j, so any model of F ∧ sel_k stays a model with
//     every sel_{j<k} set false, and the committed ¬sel_j premises
//     (j < k) do not narrow the question. The engine attaches no
//     certificate when it has committed a unit at or above k.
func (c *Compiled) certifyOptimality(opt Options) error {
	if !c.OptimalProven {
		return nil // no optimality claimed, nothing to certify
	}
	if c.Cycles == 0 {
		c.Certified = true // no smaller budget exists
		return nil
	}
	sp := opt.Trace.Start("certify", obs.Tint("K", int64(c.Cycles-1)))
	var cert *Probe
	for i := range c.Probes {
		p := &c.Probes[i]
		if p.K == c.Cycles-1 && p.Result == sat.Unsat && p.Cert != nil {
			cert = p
			break
		}
	}
	if cert == nil {
		c.CertifyResult = "missing"
		sp.End(obs.T("result", c.CertifyResult))
		return fmt.Errorf("core: %s: optimality claimed at %d cycles but no proof of the K=%d refutation was recorded",
			c.GMA.Name, c.Cycles, c.Cycles-1)
	}
	t0 := time.Now()
	err := cert.Cert.Check()
	c.CertifyTime = time.Since(t0)
	c.CertSteps = cert.Cert.Stats().Additions
	if err != nil {
		c.CertifyResult = "failed"
		sp.End(obs.T("result", c.CertifyResult))
		return fmt.Errorf("core: %s: DRAT check of the K=%d refutation failed — the solver's UNSAT answer is unsound: %w",
			c.GMA.Name, c.Cycles-1, err)
	}
	c.Certified = true
	c.Cert = cert.Cert
	c.CertifyResult = "ok"
	sp.End(obs.T("result", c.CertifyResult), obs.Tint("steps", int64(c.CertSteps)))
	return nil
}
