package drat

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNoEmptyClause reports a proof whose steps all check but which never
// derives the empty clause — it certifies nothing.
var ErrNoEmptyClause = errors.New("drat: proof does not derive the empty clause")

// maxCheckVar bounds the variables the checker accepts, so literal codes
// (2v or 2v+1) fit its int32 arena.
const maxCheckVar = 1<<30 - 1

// Check verifies that steps is a valid RUP refutation of formula: every
// addition step must be derivable by reverse unit propagation from the
// premises plus the not-yet-deleted earlier additions, and some addition
// must be the empty clause. It returns nil for a valid refutation and a
// descriptive error (with the failing step index) otherwise.
//
// The checker is a forward RUP checker with two watched literals and
// clause-deletion support, independent of the solver package. Deletion
// steps are hints: deleting a clause the checker never attached (or a
// unit clause, whose consequence is already on the persistent trail) is
// skipped, exactly as drat-trim's forward mode does. Skipping a deletion
// can only make later RUP checks easier, and every clause in the
// database is entailed by the premises when it is added, so acceptance
// stays sound.
//
// Steps after the first empty clause are ignored: the refutation is
// already complete. Variables beyond 2^30−1 are rejected.
func Check(formula []Clause, steps []Step) error {
	return check(formula, nil, steps, false)
}

// check is Check over formula plus the unit premises assumed; closed
// appends the empty clause to steps.
func check(formula []Clause, assumed Clause, steps []Step, closed bool) error {
	ck, err := newChecker(formula, assumed, steps)
	if err != nil {
		return err
	}
	for _, c := range formula {
		ck.addPremise(c)
	}
	for _, l := range assumed {
		ck.addPremise(Clause{l})
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
	if closed {
		if !ck.addRUP(nil) {
			return fmt.Errorf("drat: step %d: clause [] is not RUP", len(steps))
		}
		return nil
	}
	return ErrNoEmptyClause
}

// The checker keeps every attached clause in one literal arena, the way
// the solver's clause store does, but shares no code with it. A literal
// is coded 2v for variable v and 2v+1 for ¬v, so negation is ^1 and the
// value table, the watch lists and the normalization marks are all
// indexed by code.

// code maps a DIMACS literal to its code.
func code(l int) int32 {
	if l < 0 {
		return int32(-2*l + 1)
	}
	return int32(2 * l)
}

// hdr locates one attached clause's literals in the arena.
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

// checker replays a derivation by unit propagation. The persistent state
// (trail, assignments) is the UP fixpoint of the live clause database;
// each RUP check pushes temporary assumptions on the same trail and
// rolls them back.
type checker struct {
	val   []int8  // literal code -> 0 unassigned, 1 true, -1 false
	trail []int32 // assigned codes, persistent prefix then temps
	qhead int

	arena []int32 // attached clauses' literal codes, back to back
	hdrs  []hdr   // clause ref -> its run in arena
	// watches[c] lists the clauses watching code c; short lists are
	// carved from slab (see watch).
	watches [][]watcher
	slab    []watcher

	// byKey indexes clauses for deletion steps by an order-independent
	// hash of their literal set: the head ref+1 of a chain continued by
	// next. Most certificates delete few or no clauses, so the index is
	// built on the first deletion step and maintained after that.
	byKey map[uint64]uint32
	next  []uint32

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
// pass: the value table and marks to the largest variable, and the arena
// to every premise and addition literal, so loading and checking never
// regrow them.
func newChecker(formula []Clause, assumed Clause, steps []Step) (*checker, error) {
	maxVar, lits := 0, 0
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
	for _, st := range steps {
		if err := scan(st.Lits); err != nil {
			return nil, err
		}
		if st.Del {
			lits -= len(st.Lits) // deletions never reach the arena
			continue
		}
		if len(st.Lits) == 0 {
			break // Check stops at the first empty clause
		}
	}
	codes := 2*maxVar + 2
	return &checker{
		val:     make([]int8, codes),
		mark:    make([]uint32, codes),
		watches: make([][]watcher, codes),
		arena:   make([]int32, 0, lits),
		hdrs:    make([]hdr, 0, len(formula)),
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
	for _, l := range c {
		x := code(l)
		if ck.mark[x] == gen {
			continue
		}
		if ck.mark[x^1] == gen {
			ck.norm = out
			return nil, true
		}
		ck.mark[x] = gen
		out = append(out, x)
	}
	ck.norm = out
	return out, false
}

// addPremise installs one original clause without any RUP obligation.
func (ck *checker) addPremise(c Clause) {
	norm, taut := ck.normalize(c)
	if taut {
		return
	}
	ck.attach(norm)
}

// attach installs a (normalized) clause into the persistent database,
// propagating persistently when it is unit and recording a top-level
// conflict when it is falsified outright.
func (ck *checker) attach(c []int32) {
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
		// Every literal false under the persistent trail: the database
		// is inconsistent the moment this clause joins it.
		ck.topConflict = true
		return
	case 1:
		// Unit under the persistent assignment (or a unit clause): its
		// literal is forced, and since persistent assignments are never
		// undone the clause is satisfied forever after — it need not be
		// watched; the consequence lives on the trail.
		if ck.val[c[0]] == 0 {
			ck.assign(c[0])
			if !ck.propagate() {
				ck.topConflict = true
			}
		}
		if len(c) >= 2 {
			ck.store(c) // findable for deletion steps, never watched
		}
		return
	}
	r := ck.store(c)
	ck.watch(c[0], watcher{r, c[1]})
	ck.watch(c[1], watcher{r, c[0]})
}

// store copies a clause into the arena and returns its ref, indexing it
// for deletion steps once the index exists.
func (ck *checker) store(c []int32) uint32 {
	r := uint32(len(ck.hdrs))
	ck.hdrs = append(ck.hdrs, hdr{start: uint32(len(ck.arena)), size: uint32(len(c))})
	ck.arena = append(ck.arena, c...)
	if ck.byKey != nil {
		ck.index(r)
	}
	return r
}

func (ck *checker) lits(r uint32) []int32 {
	h := &ck.hdrs[r]
	return ck.arena[h.start : h.start+h.size : h.start+h.size]
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

// addRUP checks one addition step by reverse unit propagation and, on
// success, installs the clause persistently. It returns false when the
// clause is not RUP.
func (ck *checker) addRUP(c Clause) bool {
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
		if v := ck.val[l]; v > 0 {
			// The literal already holds, so asserting its negation is an
			// immediate contradiction.
			conflict = true
			break
		} else if v == 0 {
			ck.assign(l ^ 1)
		}
	}
	if !conflict {
		conflict = !ck.propagate()
	}
	// Roll back the assumptions and their consequences.
	for _, l := range ck.trail[mark:] {
		ck.val[l] = 0
		ck.val[l^1] = 0
	}
	ck.trail = ck.trail[:mark]
	ck.qhead = mark
	if !conflict {
		return false
	}
	ck.attach(norm)
	return true
}

// setKey hashes a clause's literal set: a sum of mixed codes, so literal
// order does not matter. Equal keys are confirmed by sameSet.
func setKey(c []int32) uint64 {
	var k uint64
	for _, l := range c {
		x := uint64(l) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		k += x ^ x>>31
	}
	return k
}

// index chains clause r, the next ref in order, into byKey under its
// literal set's key.
func (ck *checker) index(r uint32) {
	k := setKey(ck.lits(r))
	ck.next = append(ck.next, ck.byKey[k])
	ck.byKey[k] = r + 1
}

// sameSet reports whether clause r holds exactly the literals of the
// just-normalized clause c (whose marks are still current).
func (ck *checker) sameSet(r uint32, c []int32) bool {
	ls := ck.lits(r)
	if len(ls) != len(c) {
		return false
	}
	for _, l := range ls {
		if ck.mark[l] != ck.markGen {
			return false
		}
	}
	return true
}

// remove processes a deletion step: a live clause with the same literal
// set is detached. Unit clauses and clauses the checker never attached
// are skipped (their consequences are already persistent).
func (ck *checker) remove(c Clause) {
	norm, taut := ck.normalize(c)
	if taut || len(norm) <= 1 {
		return
	}
	if ck.byKey == nil {
		ck.byKey = make(map[uint64]uint32, len(ck.hdrs))
		ck.next = make([]uint32, 0, len(ck.hdrs))
		for r := range ck.hdrs {
			ck.index(uint32(r))
		}
	}
	for r := ck.byKey[setKey(norm)]; r != 0; r = ck.next[r-1] {
		if h := &ck.hdrs[r-1]; !h.deleted && ck.sameSet(r-1, norm) {
			h.deleted = true // watch lists prune lazily in propagate
			return
		}
	}
}
