package drat_test

import (
	"testing"

	"repro/internal/drat"
	"repro/internal/drat/dratref"
	"repro/internal/sat"
)

// FuzzCheckerVsReference is the differential fuzzer: on every decoded
// formula and hinted step list — as given and with an empty-clause claim
// appended — the hinted checker may reject what the RUP reference
// accepts, but never accept what it rejects.
func FuzzCheckerVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x80, 0x01, 0x80, 0x80})
	f.Add([]byte{0x02, 0x00, 0x02, 0x80, 0x01, 0x80, 0x00, 0x02, 0xC0, 0x80})
	f.Add(drat.HintedSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, steps := drat.DecodeInstance(data)
		for _, s := range [][]drat.Step{steps, append(steps[:len(steps):len(steps)], drat.Step{})} {
			if drat.Check(formula, s) != nil {
				continue
			}
			if err := dratref.Check(formula, s); err != nil {
				t.Fatalf("checker accepted, reference rejected: %v\nformula: %v\nsteps: %v", err, formula, s)
			}
		}
	})
}

// FuzzHintedProof holds the hinted checker to both sides of its contract
// on real solver proofs. The input is six header bytes (which
// certificate, step, mutation, hint position and ref to use, and how many
// assumptions), then the assumption literals, then a small CNF in
// DecodeInstance's format, every clause of which is a premise. One solver
// with a Recorder attached solves the CNF under the first one, two and
// three assumptions — each Unsat taken with Snapshot, so Closed
// certificates with Assumed units occur — and then globally.
//
//   - Completeness: every UNSAT certificate checks, and the RUP
//     reference accepts it too.
//   - Soundness: after one hint mutation chosen by the input, the hinted
//     checker's acceptance implies the reference's.
func FuzzHintedProof(f *testing.F) {
	// PHP(3,2) under the assumption x1.
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0x00}, cnfBytes([][]int{
		{1, 2}, {3, 4}, {5, 6},
		{-1, -3}, {-1, -5}, {-3, -5},
		{-2, -4}, {-2, -6}, {-4, -6},
	})...))
	// Every 2-variable clause: refuted globally after learning.
	f.Add(append([]byte{1, 1, 3, 0, 0, 1, 0x02, 0x03}, cnfBytes([][]int{{1, 2}, {-1, 2}, {1, -2}, {-1, -2}})...))
	// Satisfiable alone, refuted under x1 and ¬x3.
	f.Add(append([]byte{0, 2, 5, 1, 7, 1, 0x00, 0x05}, cnfBytes([][]int{{-1, 2}, {-2, 3}, {2, 4, -5}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		pick, stepPick, kind, pos, refPick := int(data[0]), int(data[1]), data[2]%6, int(data[3]), int(data[4])
		nAssume := 1 + int(data[5]%3)
		data = data[6:]
		var assumps []sat.Lit
		for ; len(assumps) < nAssume && len(data) > 0; data = data[1:] {
			assumps = append(assumps, sat.Lit(data[0]%(2*fuzzVars)))
		}
		premises, steps := drat.DecodeInstance(data)
		for _, st := range steps {
			premises = append(premises, st.Lits)
		}

		s := sat.New()
		rec := drat.NewRecorder()
		s.Proof = rec
		for i := 0; i < fuzzVars; i++ {
			s.NewVar()
		}
		for _, c := range premises {
			lits := make([]sat.Lit, len(c))
			for i, l := range c {
				if l < 0 {
					lits[i] = sat.Neg(-l - 1)
				} else {
					lits[i] = sat.Pos(l - 1)
				}
			}
			s.AddClause(lits...)
		}
		var certs []*drat.Certificate
		for k := 1; k <= len(assumps); k++ {
			if s.Solve(assumps[:k]...) == sat.Unsat {
				certs = append(certs, rec.Snapshot(assumps[:k]...))
			}
		}
		if s.Solve() == sat.Unsat {
			certs = append(certs, rec.Snapshot())
		}
		// Check the snapshots only now, after all later recording.
		for i, c := range certs {
			if err := c.Check(); err != nil {
				t.Fatalf("certificate %d (assumed %v) rejected: %v\npremises: %v", i, c.Assumed, err, premises)
			}
			formula, steps := flatten(c)
			if err := dratref.Check(formula, steps); err != nil {
				t.Fatalf("certificate %d (assumed %v): reference rejected: %v\npremises: %v", i, c.Assumed, err, premises)
			}
		}
		if len(certs) == 0 {
			return
		}

		formula, steps := flatten(certs[pick%len(certs)])
		i := stepPick % len(steps)
		h := steps[i].Hints
		switch kind {
		case 0: // drop one hint
			if len(h) > 0 {
				p := pos % len(h)
				h = append(h[:p], h[p+1:]...)
			}
		case 1: // reverse the chain
			for a, b := 0, len(h)-1; a < b; a, b = a+1, b-1 {
				h[a], h[b] = h[b], h[a]
			}
		case 2: // empty the list
			h = nil
		case 3, 4: // retarget one hint, or add one, to any ref near the valid range
			ref := int32(refPick%(len(formula)+len(steps)+5) - len(steps) - 2)
			if kind == 3 && len(h) > 0 {
				h[pos%len(h)] = ref
			} else {
				h = append(h, ref)
			}
		case 5: // swap two neighbours
			if len(h) > 1 {
				p := pos % (len(h) - 1)
				h[p], h[p+1] = h[p+1], h[p]
			}
		}
		steps[i].Hints = h
		if drat.Check(formula, steps) != nil {
			return
		}
		if err := dratref.Check(formula, steps); err != nil {
			t.Fatalf("mutation %d of step %d accepted, reference rejected: %v\nformula: %v\nsteps: %v",
				kind, i, err, formula, steps)
		}
	})
}

// fuzzVars is the variable count of DecodeInstance's literals.
const fuzzVars = 6

// flatten renders a certificate as a plain formula, the Assumed units
// appended as premises, and a private copy of its complete proof.
func flatten(c *drat.Certificate) ([]drat.Clause, []drat.Step) {
	formula := append([]drat.Clause(nil), c.Formula...)
	for _, l := range c.Assumed {
		formula = append(formula, drat.Clause{l})
	}
	return formula, drat.CloneSteps(c.Proof())
}

// cnfBytes encodes clauses over variables 1..fuzzVars in DecodeInstance's
// format, all of them premises when the format is read as a formula.
func cnfBytes(clauses [][]int) []byte {
	out := []byte{byte(len(clauses) % 16)}
	for _, c := range clauses {
		for _, l := range c {
			v, neg := l, 0
			if l < 0 {
				v, neg = -l, 1
			}
			out = append(out, byte(2*(v-1)+neg))
		}
		out = append(out, 0x80)
	}
	return out
}
