package drat

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The pointer-based forward RUP checker below is the test-only reference
// for the arena checker in check.go: the two must agree on every verdict
// and on the failing step (see TestCheckerAgainstReference and
// FuzzCheckerVsReference).

// refCheck verifies that steps is a valid RUP refutation of formula: every
// addition step must be derivable by reverse unit propagation from the
// premises plus the not-yet-deleted earlier additions, and some addition
// must be the empty clause. It returns nil for a valid refutation and a
// descriptive error (with the failing step index) otherwise.
//
// The refChecker is a forward RUP refChecker with two watched literals and
// clause-deletion support, independent of the solver package. Deletion
// steps are hints: deleting a clause the refChecker never attached (or a
// unit clause, whose consequence is already on the persistent trail) is
// skipped, exactly as drat-trim's forward mode does. Skipping a deletion
// can only make later RUP checks easier, and every clause in the
// database is entailed by the premises when it is added, so acceptance
// stays sound.
//
// Steps after the first empty clause are ignored: the refutation is
// already complete.
func refCheck(formula []Clause, steps []Step) error {
	ck := newRefChecker()
	for _, c := range formula {
		ck.addPremise(c)
	}
	for i, st := range steps {
		if st.Del {
			ck.remove(st.Lits)
			continue
		}
		ok, err := ck.addRUP(st.Lits)
		if err != nil {
			return fmt.Errorf("drat: step %d: %w", i, err)
		}
		if !ok {
			return fmt.Errorf("drat: step %d: clause %v is not RUP", i, st.Lits)
		}
		if len(st.Lits) == 0 {
			return nil // refutation complete
		}
	}
	return ErrNoEmptyClause
}

// refClause is one attached clause. lits[0] and lits[1] are the watched
// positions, maintained exactly as in a CDCL solver.
type refClause struct {
	lits    []int
	deleted bool
}

// refChecker replays a derivation by unit propagation. The persistent state
// (trail, assignments) is the UP fixpoint of the live clause database;
// each RUP check pushes temporary assumptions on the same trail and
// rolls them back.
type refChecker struct {
	assigns []int8 // 1-based variable -> 0 undef, 1 true, -1 false
	trail   []int  // assigned literals, persistent prefix then temps
	qhead   int
	watches [][]*refClause // literal index -> watching clauses
	clauses []*refClause   // every attached clause of len >= 2, in order
	// byKey maps a clause's canonical form to its live instances, for
	// matching deletion steps. Most certificates delete few or no clauses
	// while premises number in the thousands, so the index is built
	// lazily on the first deletion step (from clauses) and maintained
	// incrementally after that.
	byKey map[string][]*refClause
	// topConflict is set once the database is UP-inconsistent; every
	// later addition (the empty clause in particular) is then entailed.
	topConflict bool
	// seenPos/seenNeg are generation-stamped literal marks for normalize,
	// reused across clauses to avoid a map allocation per clause.
	seenPos []uint32
	seenNeg []uint32
	seenGen uint32
}

func newRefChecker() *refChecker {
	return &refChecker{assigns: make([]int8, 1)}
}

// widx encodes a literal as a watch-list index.
func refWidx(l int) int {
	if l < 0 {
		return -2*l - 1
	}
	return 2 * l
}

func (ck *refChecker) grow(c Clause) {
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

func (ck *refChecker) value(l int) int8 {
	if l < 0 {
		return -ck.assigns[-l]
	}
	return ck.assigns[l]
}

func (ck *refChecker) assign(l int) {
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
func (ck *refChecker) normalize(c Clause) (Clause, bool) {
	ck.seenGen++
	gen := ck.seenGen
	out := make(Clause, 0, len(c))
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
func (ck *refChecker) addPremise(c Clause) {
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
func (ck *refChecker) attach(c Clause) {
	if ck.topConflict {
		return
	}
	if len(c) == 0 {
		ck.topConflict = true
		return
	}
	// Move two non-false literals (preferring none over scanning order)
	// into the watch positions.
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
			ck.index(&refClause{lits: c})
		}
		return
	}
	cl := &refClause{lits: c}
	ck.watches[refWidx(c[0])] = append(ck.watches[refWidx(c[0])], cl)
	ck.watches[refWidx(c[1])] = append(ck.watches[refWidx(c[1])], cl)
	ck.index(cl)
}

// index records an attached clause for deletion matching: appended to the
// clause list always, keyed into byKey only once the lazy index exists.
func (ck *refChecker) index(cl *refClause) {
	ck.clauses = append(ck.clauses, cl)
	if ck.byKey != nil {
		k := refKey(cl.lits)
		ck.byKey[k] = append(ck.byKey[k], cl)
	}
}

// propagate runs unit propagation from qhead; it returns false on
// conflict. Watches are maintained with the watched-false-literal-at-
// position-1 normalization of the solver, but reimplemented from the
// format's definition rather than shared.
func (ck *refChecker) propagate() bool {
	for ck.qhead < len(ck.trail) {
		p := ck.trail[ck.qhead]
		ck.qhead++
		falseLit := -p
		ws := ck.watches[refWidx(falseLit)]
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
					ck.watches[refWidx(cl.lits[1])] = append(ck.watches[refWidx(cl.lits[1])], cl)
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
		ck.watches[refWidx(falseLit)] = kept
		if conflict {
			return false
		}
	}
	return true
}

// addRUP checks one addition step by reverse unit propagation and, on
// success, installs the clause persistently. It returns (false, nil)
// when the clause is not RUP. The error return is reserved for malformed
// steps (there are none today; it keeps the signature honest for
// extensions such as RAT checking).
func (ck *refChecker) addRUP(c Clause) (bool, error) {
	ck.grow(c)
	if ck.topConflict {
		return true, nil // anything follows from an inconsistent database
	}
	norm, taut := ck.normalize(c)
	if taut {
		return true, nil // trivially entailed; never propagates, skip attach
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
		return false, nil
	}
	ck.attach(norm)
	return true, nil
}

// remove processes a deletion step: the first live clause matching the
// canonical form is detached. Unit clauses and clauses the refChecker never
// attached are skipped (their consequences are already persistent).
func (ck *refChecker) remove(c Clause) {
	// A hostile proof may delete a clause over variables the formula
	// never mentioned; grow first so normalize's marks can index them.
	ck.grow(c)
	norm, taut := ck.normalize(c)
	if taut || len(norm) <= 1 {
		return
	}
	if ck.byKey == nil {
		ck.byKey = make(map[string][]*refClause, len(ck.clauses))
		for _, cl := range ck.clauses {
			k := refKey(cl.lits)
			ck.byKey[k] = append(ck.byKey[k], cl)
		}
	}
	k := refKey(norm)
	for _, cl := range ck.byKey[k] {
		if !cl.deleted {
			cl.deleted = true // watch lists prune lazily in propagate
			return
		}
	}
}

// refKey renders a clause's canonical (sorted, deduplicated) form, used to
// match deletion steps against live clauses regardless of literal order.
func refKey(c Clause) string {
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

// RefCase is one formula and derivation the checker and the reference
// must judge alike.
type RefCase struct {
	Name    string
	Formula []Clause
	Steps   []Step
}

// referenceCases builds the inputs of TestCheckerAgainstReference that
// need this package's test helpers: the solver's proofs of the UNSAT
// corpus, also under shuffled clause order; PHP(n+1,n) proofs, whose
// larger instances exercise deletion steps; and every corruption
// TestCorruptProofRejected makes of a PHP(4,3) proof.
func referenceCases(t *testing.T) []RefCase {
	t.Helper()
	var cases []RefCase
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.cnf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus CNFs under %s: %v", corpusDir, err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		vars, clauses := readDIMACS(t, f)
		rng := rand.New(rand.NewSource(int64(len(base))))
		for round := 0; round < 4; round++ {
			_, cert := solveWithProof(vars, clauses)
			cases = append(cases, RefCase{fmt.Sprintf("%s/%d", base, round), clauses, cert.Steps})
			clauses = append([]Clause(nil), clauses...)
			rng.Shuffle(len(clauses), func(i, j int) { clauses[i], clauses[j] = clauses[j], clauses[i] })
		}
	}
	for n := 2; n <= 7; n++ {
		cert := refutation(t, n+1, n)
		cases = append(cases, RefCase{fmt.Sprintf("php%d-%d", n+1, n), cert.Formula, cert.Steps})
	}
	cert := refutation(t, 4, 3)
	copySteps := func() []Step {
		out := make([]Step, len(cert.Steps))
		for i, s := range cert.Steps {
			out[i] = Step{Del: s.Del, Lits: append(Clause(nil), s.Lits...)}
		}
		return out
	}
	steps := copySteps()
	for len(steps) > 0 {
		last := steps[len(steps)-1]
		steps = steps[:len(steps)-1]
		if !last.Del && len(last.Lits) == 0 {
			break
		}
	}
	cases = append(cases, RefCase{"truncated", cert.Formula, append(steps, Step{})})
	for i := range cert.Steps {
		if cert.Steps[i].Del || len(cert.Steps[i].Lits) == 0 {
			continue
		}
		dropped := copySteps()
		dropped = append(dropped[:i], dropped[i+1:]...)
		cases = append(cases, RefCase{fmt.Sprintf("drop%d", i), cert.Formula, dropped})
		flipped := copySteps()
		flipped[i].Lits[0] = -flipped[i].Lits[0]
		cases = append(cases, RefCase{fmt.Sprintf("flip%d", i), cert.Formula, flipped})
	}
	cases = append(cases, RefCase{"weakened", cert.Formula[:len(cert.Formula)-1], cert.Steps})
	return cases
}

// verdict renders a check result for comparison: accepted, no empty
// clause, or the failing step.
func verdict(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrNoEmptyClause):
		return "no empty clause"
	}
	var step int
	if _, scanErr := fmt.Sscanf(err.Error(), "drat: step %d:", &step); scanErr != nil {
		return err.Error()
	}
	return fmt.Sprintf("rejected at step %d", step)
}
