// Package dratref is the test-only reference for internal/drat's checker:
// a pointer-based forward RUP checker, the verification procedure behind
// the plain DRAT format, that ignores hints and re-derives every lemma by
// unit propagation over the whole live database. It checks hintless
// proofs, such as a DRAT export parsed back, and it is the yardstick the
// hinted checker is measured against: both must accept every proof the
// solver produces, and the hinted checker may be stricter than the
// reference on a corrupted proof, never looser. Only tests import it.
package dratref

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/drat"
)

// Check verifies that steps is a valid RUP refutation of formula: every
// addition step must be derivable by reverse unit propagation from the
// premises plus the not-yet-deleted earlier additions, and some addition
// must be the empty clause. It returns nil for a valid refutation and a
// descriptive error (with the failing step index) otherwise.
//
// Deletion steps are matched by literal set; deleting a clause the
// checker never attached (or a unit clause, whose consequence is already
// on the persistent trail) is skipped, exactly as drat-trim's forward
// mode does. Skipping a deletion can only make later RUP checks easier,
// and every clause in the database is entailed by the premises when it
// is added, so acceptance stays sound.
//
// Steps after the first empty clause are ignored: the refutation is
// already complete.
func Check(formula []drat.Clause, steps []drat.Step) error {
	ck := &checker{assigns: make([]int8, 1)}
	for _, c := range formula {
		ck.addPremise(c)
	}
	for i, st := range steps {
		if st.Del {
			ck.remove(st.Lits)
			continue
		}
		if !ck.addRUP(st.Lits) {
			return fmt.Errorf("drat: step %d: clause %v is not RUP", i, st.Lits)
		}
		if len(st.Lits) == 0 {
			return nil // refutation complete
		}
	}
	return drat.ErrNoEmptyClause
}

// clause is one attached clause. lits[0] and lits[1] are the watched
// positions, maintained exactly as in a CDCL solver.
type clause struct {
	lits    []int
	deleted bool
}

// checker replays a derivation by unit propagation. The persistent state
// (trail, assignments) is the UP fixpoint of the live clause database;
// each RUP check pushes temporary assumptions on the same trail and
// rolls them back.
type checker struct {
	assigns []int8 // 1-based variable -> 0 undef, 1 true, -1 false
	trail   []int  // assigned literals, persistent prefix then temps
	qhead   int
	watches [][]*clause // literal index -> watching clauses
	clauses []*clause   // every attached clause of len >= 2, in order
	// byKey maps a clause's canonical form to its live instances, for
	// matching deletion steps. Most certificates delete few or no clauses
	// while premises number in the thousands, so the index is built
	// lazily on the first deletion step (from clauses) and maintained
	// incrementally after that.
	byKey map[string][]*clause
	// topConflict is set once the database is UP-inconsistent; every
	// later addition (the empty clause in particular) is then entailed.
	topConflict bool
	// seenPos/seenNeg are generation-stamped literal marks for normalize,
	// reused across clauses to avoid a map allocation per clause.
	seenPos []uint32
	seenNeg []uint32
	seenGen uint32
}

// widx encodes a literal as a watch-list index.
func widx(l int) int {
	if l < 0 {
		return -2*l - 1
	}
	return 2 * l
}

func (ck *checker) grow(c drat.Clause) {
	for _, l := range c {
		v := l
		if v < 0 {
			v = -v
		}
		for len(ck.assigns) <= v {
			ck.assigns = append(ck.assigns, 0)
		}
	}
	// append, not make+copy: amortized doubling keeps incremental
	// variable growth linear instead of quadratic.
	for need := 2*len(ck.assigns) + 2; len(ck.watches) < need; {
		ck.watches = append(ck.watches, nil)
	}
	for len(ck.seenPos) < len(ck.assigns) {
		ck.seenPos = append(ck.seenPos, 0)
		ck.seenNeg = append(ck.seenNeg, 0)
	}
}

func (ck *checker) value(l int) int8 {
	if l < 0 {
		return -ck.assigns[-l]
	}
	return ck.assigns[l]
}

func (ck *checker) assign(l int) {
	v, s := l, int8(1)
	if l < 0 {
		v, s = -l, -1
	}
	ck.assigns[v] = s
	ck.trail = append(ck.trail, l)
}

// normalize dedups a clause and reports tautologies (which can never
// propagate and are entailed trivially). The caller must grow() first;
// the generation-stamped marks make this allocation-free beyond the
// output clause itself.
func (ck *checker) normalize(c drat.Clause) (drat.Clause, bool) {
	ck.seenGen++
	gen := ck.seenGen
	out := make(drat.Clause, 0, len(c))
	for _, l := range c {
		v := l
		same, opp := ck.seenPos, ck.seenNeg
		if l < 0 {
			v = -l
			same, opp = ck.seenNeg, ck.seenPos
		}
		if same[v] == gen {
			continue
		}
		if opp[v] == gen {
			return nil, true
		}
		same[v] = gen
		out = append(out, l)
	}
	return out, false
}

// addPremise installs one original clause without any RUP obligation.
func (ck *checker) addPremise(c drat.Clause) {
	ck.grow(c)
	norm, taut := ck.normalize(c)
	if taut {
		return
	}
	ck.attach(norm)
}

// attach installs a (normalized) clause into the persistent database,
// propagating persistently when it is unit and recording a top-level
// conflict when it is falsified outright.
func (ck *checker) attach(c drat.Clause) {
	if ck.topConflict {
		return
	}
	if len(c) == 0 {
		ck.topConflict = true
		return
	}
	// Move two non-false literals into the watch positions.
	w := 0
	for i, l := range c {
		if ck.value(l) >= 0 {
			c[i], c[w] = c[w], c[i]
			w++
			if w == 2 {
				break
			}
		}
	}
	switch w {
	case 0:
		// Every literal false under the persistent trail: the database
		// is inconsistent the moment this clause joins it.
		ck.topConflict = true
		return
	case 1:
		// Unit under the persistent assignment (or a unit clause): its
		// literal is forced, and since persistent assignments are never
		// undone the clause is satisfied forever after — it need not be
		// watched; the consequence lives on the trail.
		if ck.value(c[0]) == 0 {
			ck.assign(c[0])
			if !ck.propagate() {
				ck.topConflict = true
			}
		}
		if len(c) >= 2 {
			// Keep it findable for deletion steps even though it is not
			// watched.
			ck.index(&clause{lits: c})
		}
		return
	}
	cl := &clause{lits: c}
	ck.watches[widx(c[0])] = append(ck.watches[widx(c[0])], cl)
	ck.watches[widx(c[1])] = append(ck.watches[widx(c[1])], cl)
	ck.index(cl)
}

// index records an attached clause for deletion matching: appended to the
// clause list always, keyed into byKey only once the lazy index exists.
func (ck *checker) index(cl *clause) {
	ck.clauses = append(ck.clauses, cl)
	if ck.byKey != nil {
		k := key(cl.lits)
		ck.byKey[k] = append(ck.byKey[k], cl)
	}
}

// propagate runs unit propagation from qhead; it returns false on
// conflict. Watches are maintained with the watched-false-literal-at-
// position-1 normalization of the solver, but reimplemented from the
// format's definition rather than shared.
func (ck *checker) propagate() bool {
	for ck.qhead < len(ck.trail) {
		p := ck.trail[ck.qhead]
		ck.qhead++
		falseLit := -p
		ws := ck.watches[widx(falseLit)]
		kept := ws[:0]
		conflict := false
		for i := 0; i < len(ws); i++ {
			cl := ws[i]
			if cl.deleted {
				continue
			}
			if conflict {
				kept = append(kept, cl)
				continue
			}
			if cl.lits[0] == falseLit {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			if ck.value(cl.lits[0]) > 0 {
				kept = append(kept, cl)
				continue
			}
			moved := false
			for k := 2; k < len(cl.lits); k++ {
				if ck.value(cl.lits[k]) >= 0 {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					ck.watches[widx(cl.lits[1])] = append(ck.watches[widx(cl.lits[1])], cl)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, cl)
			if ck.value(cl.lits[0]) < 0 {
				conflict = true
				continue
			}
			ck.assign(cl.lits[0])
		}
		ck.watches[widx(falseLit)] = kept
		if conflict {
			return false
		}
	}
	return true
}

// addRUP checks one addition step by reverse unit propagation and, on
// success, installs the clause persistently. It returns false when the
// clause is not RUP.
func (ck *checker) addRUP(c drat.Clause) bool {
	ck.grow(c)
	if ck.topConflict {
		return true // anything follows from an inconsistent database
	}
	norm, taut := ck.normalize(c)
	if taut {
		return true // trivially entailed; never propagates, skip attach
	}
	// Assume the negation of every literal, then propagate: a conflict
	// proves the clause follows from the database by unit propagation.
	mark := len(ck.trail)
	conflict := false
	for _, l := range norm {
		switch ck.value(l) {
		case 1:
			// The literal already holds, so asserting its negation is an
			// immediate contradiction.
			conflict = true
		case 0:
			ck.assign(-l)
		}
		if conflict {
			break
		}
	}
	if !conflict {
		conflict = !ck.propagate()
	}
	// Roll back the assumptions and their consequences.
	for i := len(ck.trail) - 1; i >= mark; i-- {
		l := ck.trail[i]
		if l < 0 {
			ck.assigns[-l] = 0
		} else {
			ck.assigns[l] = 0
		}
	}
	ck.trail = ck.trail[:mark]
	ck.qhead = mark
	if !conflict {
		return false
	}
	ck.attach(norm)
	return true
}

// remove processes a deletion step: the first live clause matching the
// canonical form is detached. Unit clauses and clauses the checker never
// attached are skipped (their consequences are already persistent).
func (ck *checker) remove(c drat.Clause) {
	// A hostile proof may delete a clause over variables the formula
	// never mentioned; grow first so normalize's marks can index them.
	ck.grow(c)
	norm, taut := ck.normalize(c)
	if taut || len(norm) <= 1 {
		return
	}
	if ck.byKey == nil {
		ck.byKey = make(map[string][]*clause, len(ck.clauses))
		for _, cl := range ck.clauses {
			k := key(cl.lits)
			ck.byKey[k] = append(ck.byKey[k], cl)
		}
	}
	for _, cl := range ck.byKey[key(norm)] {
		if !cl.deleted {
			cl.deleted = true // watch lists prune lazily in propagate
			return
		}
	}
}

// key renders a clause's canonical (sorted, deduplicated) form, used to
// match deletion steps against live clauses regardless of literal order.
func key(c drat.Clause) string {
	ls := append([]int(nil), c...)
	sort.Ints(ls)
	buf := make([]byte, 0, 8*len(ls))
	prev := 0
	for _, l := range ls {
		if l == prev {
			continue
		}
		prev = l
		buf = strconv.AppendInt(buf, int64(l), 10)
		buf = append(buf, ' ')
	}
	return string(buf)
}
