package drat

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNoEmptyClause reports a proof whose steps all check but which never
// derives the empty clause — it certifies nothing.
var ErrNoEmptyClause = errors.New("drat: proof does not derive the empty clause")

// errNoConflict fails an addition whose hints propagate without ever
// falsifying a clause.
var errNoConflict = errors.New("its hints end without a conflict")

// maxCheckVar bounds the variables the checker accepts, so literal codes
// (2v or 2v+1) fit its int32 arena.
const maxCheckVar = 1<<30 - 1

// Check verifies that steps is a valid hinted refutation of formula. It
// returns nil for a valid refutation and a descriptive error (with the
// failing step index) otherwise.
//
// The checker keeps one persistent state: the unit-propagation fixpoint
// of the live clause database (the root), maintained with two watched
// literals as premises and accepted additions join it. An addition C is
// checked only by walking its hints (see Step.Hints) under root ∪ ¬C, in
// order:
//
//   - a hint with no literal that is not false is the conflict that
//     accepts C;
//   - a hint with exactly one such literal assigns it, or finds it
//     already true;
//   - anything else fails the step: a hint with two or more literals
//     not false, a ref naming a later step, the step itself, a deletion
//     step, a deleted clause or nothing, and a chain that ends without a
//     conflict.
//
// C is accepted before any hint is walked when root ∪ ¬C is already
// contradictory: a literal of C holds at the root, C is a tautology, or
// the live database is inconsistent by unit propagation. Every ref is
// resolved even then, and nothing ever falls back to propagating over
// the whole database. The root knows at least what the solver's top
// level knew when it learned C, so literals fixed there need no hints.
//
// A deletion step's one hint must name a live clause with exactly the
// step's literals; that clause leaves the database and may not be hinted
// again. What it propagated at the root stays: it was entailed.
//
// Steps after the first empty clause are ignored: the refutation is
// already complete. Variables beyond 2^30−1 are rejected.
func Check(formula []Clause, steps []Step) error {
	return check(formula, nil, steps, false)
}

// check is Check over formula plus the unit premises assumed; closed
// appends the empty clause, unhinted, to steps.
func check(formula []Clause, assumed Clause, steps []Step, closed bool) error {
	ck, err := newChecker(formula, assumed, steps)
	if err != nil {
		return err
	}
	for _, c := range formula {
		ck.addPremise(c)
	}
	for _, l := range assumed {
		ck.unit(code(l))
	}
	for i, st := range steps {
		if st.Del {
			if err := ck.remove(i, st); err != nil {
				return fmt.Errorf("drat: step %d: deletion of %v: %w", i, st.Lits, err)
			}
			continue
		}
		if err := ck.add(i, st); err != nil {
			return fmt.Errorf("drat: step %d: clause %v: %w", i, st.Lits, err)
		}
		if len(st.Lits) == 0 {
			return nil // refutation complete
		}
	}
	if closed {
		if err := ck.add(len(steps), Step{}); err != nil {
			return fmt.Errorf("drat: step %d: clause []: %w", len(steps), err)
		}
		return nil
	}
	return ErrNoEmptyClause
}

// The checker keeps every premise and addition in one literal arena, the
// way the solver's clause store does, but shares no code with it. A
// literal is coded 2v for variable v and 2v+1 for ¬v, so negation is ^1
// and the value table, the watch lists and the normalization marks are
// all indexed by code.

// code maps a DIMACS literal to its code.
func code(l int) int32 {
	if l < 0 {
		return int32(-2*l + 1)
	}
	return int32(2 * l)
}

// hdr locates one stored clause's literals in the arena. A deletion step
// stores an empty, deleted header, so refs resolve by position.
type hdr struct {
	start, size uint32
	deleted     bool
}

// watcher is one watch-list entry: a clause ref plus a blocker, one of
// the clause's literals. While the blocker is true the clause is
// satisfied, so propagation skips it without touching its header or
// literals.
type watcher struct {
	ref     uint32
	blocker int32
}

// checker replays a hinted derivation. The persistent state (trail,
// assignments) is the UP fixpoint of the live clause database; each
// addition's hint walk pushes temporary assignments on the same trail and
// rolls them back.
type checker struct {
	val   []int8  // literal code -> 0 unassigned, 1 true, -1 false
	trail []int32 // assigned codes, persistent prefix then temps
	qhead int

	arena []int32 // stored clauses' literal codes, back to back
	// hdrs holds one header per premise, then one per step, so premise
	// p is hdrs[p] and step j is hdrs[premises+j].
	hdrs     []hdr
	premises int
	steps    []Step
	// watches[c] lists the clauses watching code c; short lists are
	// carved from slab (see watch).
	watches [][]watcher
	slab    []watcher

	// topConflict is set once the database is UP-inconsistent; every
	// later addition (the empty clause in particular) is then entailed.
	topConflict bool
	// norm is the reused normalization buffer; mark holds
	// generation-stamped literal-code marks for it.
	norm    []int32
	mark    []uint32
	markGen uint32
}

// newChecker sizes the checker for formula, assumed and steps in one
// pass: the value table and marks to the largest variable, the arena to
// every premise and addition literal and the headers to every premise
// and step, so loading and checking never regrow them.
func newChecker(formula []Clause, assumed Clause, steps []Step) (*checker, error) {
	maxVar, lits, checked := 0, 0, len(steps)
	scan := func(c Clause) error {
		for _, l := range c {
			v := l
			if v < 0 {
				v = -v
			}
			if v == 0 || v > maxCheckVar {
				return fmt.Errorf("drat: literal %d out of range", l)
			}
			maxVar = max(maxVar, v)
		}
		lits += len(c)
		return nil
	}
	for _, c := range formula {
		if err := scan(c); err != nil {
			return nil, err
		}
	}
	if err := scan(assumed); err != nil {
		return nil, err
	}
	for i, st := range steps {
		if err := scan(st.Lits); err != nil {
			return nil, err
		}
		if st.Del {
			lits -= len(st.Lits) // deletions never reach the arena
			continue
		}
		if len(st.Lits) == 0 {
			checked = i + 1 // Check stops at the first empty clause
			break
		}
	}
	codes := 2*maxVar + 2
	return &checker{
		val:      make([]int8, codes),
		mark:     make([]uint32, codes),
		watches:  make([][]watcher, codes),
		arena:    make([]int32, 0, lits),
		hdrs:     make([]hdr, 0, len(formula)+checked),
		premises: len(formula),
		steps:    steps,
	}, nil
}

// Short watch lists are carved out of shared slab chunks instead of each
// getting its own small heap array; a list that outgrows watchSlabMax
// moves to an ordinary heap array.
const (
	watchSlabChunk = 1 << 12
	watchSlabMax   = 64
)

// watch appends w to code c's watch list.
func (ck *checker) watch(c int32, w watcher) {
	ws := ck.watches[c]
	if len(ws) == cap(ws) {
		n := max(2*cap(ws), 4)
		if n > watchSlabMax {
			ws = slices.Grow(ws, n-len(ws))
		} else {
			if cap(ck.slab)-len(ck.slab) < n {
				ck.slab = make([]watcher, 0, watchSlabChunk)
			}
			at := len(ck.slab)
			ck.slab = ck.slab[:at+n]
			ws = append(ck.slab[at:at:at+n], ws...)
		}
	}
	ck.watches[c] = append(ws, w)
}

func (ck *checker) assign(c int32) {
	ck.val[c] = 1
	ck.val[c^1] = -1
	ck.trail = append(ck.trail, c)
}

// normalize dedups a clause into the reused buffer, as codes, and
// reports tautologies (which can never propagate and are entailed
// trivially). The marks stay valid for the result until the next call.
func (ck *checker) normalize(c Clause) ([]int32, bool) {
	ck.markGen++
	gen := ck.markGen
	out := ck.norm[:0]
	taut := false
	for _, l := range c {
		x := code(l)
		if ck.mark[x] == gen {
			continue
		}
		taut = taut || ck.mark[x^1] == gen
		ck.mark[x] = gen
		out = append(out, x)
	}
	ck.norm = out
	return out, taut
}

// addPremise stores one original clause without any obligation.
func (ck *checker) addPremise(c Clause) {
	norm, taut := ck.normalize(c)
	r := ck.store(norm)
	if !taut {
		ck.attach(r)
	}
}

// store copies a (normalized) clause into the arena and returns its ref.
func (ck *checker) store(c []int32) uint32 {
	r := uint32(len(ck.hdrs))
	ck.hdrs = append(ck.hdrs, hdr{start: uint32(len(ck.arena)), size: uint32(len(c))})
	ck.arena = append(ck.arena, c...)
	return r
}

func (ck *checker) lits(r uint32) []int32 {
	h := &ck.hdrs[r]
	return ck.arena[h.start : h.start+h.size : h.start+h.size]
}

// attach joins stored clause r to the root's propagation, propagating
// persistently when it is unit and recording a top-level conflict when
// it is falsified outright.
func (ck *checker) attach(r uint32) {
	if ck.topConflict {
		return
	}
	c := ck.lits(r)
	// Move two non-false literals into the watch positions.
	w := 0
	for i, l := range c {
		if ck.val[l] >= 0 {
			c[i], c[w] = c[w], c[i]
			w++
			if w == 2 {
				break
			}
		}
	}
	switch w {
	case 0:
		// Every literal false at the root: the database is inconsistent
		// the moment this clause joins it.
		ck.topConflict = true
	case 1:
		// Unit at the root (or a unit clause): its literal is forced,
		// and since root assignments are never undone the clause is
		// satisfied forever after — it need not be watched.
		ck.unit(c[0])
	default:
		ck.watch(c[0], watcher{r, c[1]})
		ck.watch(c[1], watcher{r, c[0]})
	}
}

// unit asserts code c at the root and propagates it.
func (ck *checker) unit(c int32) {
	switch ck.val[c] {
	case 0:
		ck.assign(c)
		if !ck.propagate() {
			ck.topConflict = true
		}
	case -1:
		ck.topConflict = true
	}
}

// propagate runs unit propagation from qhead; it returns false on
// conflict. Watches keep the false watched literal at position 1.
func (ck *checker) propagate() bool {
	for ck.qhead < len(ck.trail) {
		f := ck.trail[ck.qhead] ^ 1 // the literal that just became false
		ck.qhead++
		ws := ck.watches[f]
		kept := ws[:0]
		conflict := false
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict || ck.val[w.blocker] > 0 {
				kept = append(kept, w)
				continue
			}
			h := &ck.hdrs[w.ref]
			if h.deleted {
				continue // dropped lazily
			}
			ls := ck.arena[h.start : h.start+h.size]
			if ls[0] == f {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := ls[0]
			w.blocker = first
			if ck.val[first] > 0 {
				kept = append(kept, w)
				continue
			}
			moved := false
			for k := 2; k < len(ls); k++ {
				if ck.val[ls[k]] >= 0 {
					ls[1], ls[k] = ls[k], ls[1]
					ck.watch(ls[1], w)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, w)
			if ck.val[first] < 0 {
				conflict = true
				continue
			}
			ck.assign(first)
		}
		ck.watches[f] = kept
		if conflict {
			return false
		}
	}
	return true
}

// add checks addition step i by walking its hints and, on success,
// stores the clause and joins it to the root.
func (ck *checker) add(i int, st Step) error {
	norm, taut := ck.normalize(st.Lits)
	// Root ∪ ¬C is contradictory before any hint when the database
	// already is, when C is a tautology, or when a literal of C holds at
	// the root.
	conflict := ck.topConflict || taut
	mark := len(ck.trail)
	if !conflict {
		for _, l := range norm {
			if v := ck.val[l]; v > 0 {
				conflict = true
				break
			} else if v == 0 {
				ck.assign(l ^ 1)
			}
		}
	}
	err := ck.walk(i, st.Hints, conflict)
	// Roll back ¬C and everything the hints derived.
	for _, l := range ck.trail[mark:] {
		ck.val[l] = 0
		ck.val[l^1] = 0
	}
	ck.trail = ck.trail[:mark]
	if err != nil || len(norm) == 0 {
		return err // the empty clause completes the refutation
	}
	r := ck.store(norm)
	if !taut {
		ck.attach(r)
	}
	return nil
}

// walk propagates step i's hints in order; conflict reports that the
// step is already accepted, so the hints are only resolved.
func (ck *checker) walk(i int, hints []int32, conflict bool) error {
	for k, ref := range hints {
		r, err := ck.resolve(i, ref)
		if err != nil {
			return fmt.Errorf("hint %d: %w", k, err)
		}
		if conflict {
			continue
		}
		var unit int32
		open := 0
		for _, l := range ck.lits(r) {
			if ck.val[l] >= 0 {
				unit = l
				if open++; open > 1 {
					break
				}
			}
		}
		switch {
		case open == 0:
			conflict = true
		case open > 1:
			return fmt.Errorf("hint %d: ref %d is not unit", k, ref)
		case ck.val[unit] == 0:
			ck.assign(unit)
		}
	}
	if !conflict {
		return errNoConflict
	}
	return nil
}

// resolve maps ref, as used by step i, to the stored clause it names,
// failing unless that is a live premise or an earlier live addition.
func (ck *checker) resolve(i int, ref int32) (uint32, error) {
	var r int
	switch {
	case ref > 0 && int(ref) <= ck.premises:
		r = int(ref) - 1
	case ref < 0 && int(^ref) < len(ck.steps):
		j := int(^ref) // −ref−1, without overflowing at the minimum
		switch {
		case j > i:
			return 0, fmt.Errorf("ref %d names a later step", ref)
		case j == i:
			return 0, fmt.Errorf("ref %d names the step itself", ref)
		case ck.steps[j].Del:
			return 0, fmt.Errorf("ref %d names a deletion step", ref)
		}
		r = ck.premises + j
	default:
		return 0, fmt.Errorf("ref %d is out of range", ref)
	}
	if ck.hdrs[r].deleted {
		return 0, fmt.Errorf("ref %d names a deleted clause", ref)
	}
	return uint32(r), nil
}

// remove processes deletion step i: its one hint must name a live clause
// with exactly the step's literals, which then leaves the database
// (watch lists drop it lazily in propagate).
func (ck *checker) remove(i int, st Step) error {
	ck.hdrs = append(ck.hdrs, hdr{deleted: true}) // the step itself is no clause
	if len(st.Hints) != 1 {
		return fmt.Errorf("names %d clauses, want 1", len(st.Hints))
	}
	ref := st.Hints[0]
	r, err := ck.resolve(i, ref)
	if err != nil {
		return err
	}
	norm, _ := ck.normalize(st.Lits)
	ls := ck.lits(r)
	if len(ls) != len(norm) {
		return fmt.Errorf("ref %d names a clause with other literals", ref)
	}
	for _, l := range ls {
		if ck.mark[l] != ck.markGen {
			return fmt.Errorf("ref %d names a clause with other literals", ref)
		}
	}
	ck.hdrs[r].deleted = true
	return nil
}
