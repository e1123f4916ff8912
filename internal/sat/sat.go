// Package sat implements a complete CDCL boolean satisfiability solver in
// the CHAFF/MiniSat lineage: two-watched-literal propagation, first-UIP
// conflict clause learning, VSIDS variable activity, phase saving, and Luby
// restarts.
//
// The Denali paper notes that its SAT solver is pluggable ("we have already
// made several substitutions of this sort"); this package is the
// reproduction's substitute for CHAFF. It exposes exactly what the
// constraint generator needs — variables, clauses, solve, model — plus
// DIMACS import/export for testing against reference problems.
package sat

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Lit is a literal: variable index v encoded as 2v (positive) or 2v+1
// (negated). Variables are numbered from 0.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (1-based, negative for
// negated).
func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

const litUndef Lit = -1

// lbool values for assignments.
const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// cref addresses one clause: an index into the solver's header table.
// Clauses are values in a flat arena, not heap objects, so reasons and
// the clause lists hold refs.
type cref int32

// crefUndef is "no clause": the reason of a decision, an assumption or a
// top-level unit.
const crefUndef cref = -1

// coff is a clause's place in the arena: the offset of the first of the
// two header words that precede its literals. Watch lists hold offsets,
// so propagate reads a clause's size and literals from one run of the
// arena and reaches its cref, the second word, only to report it.
type coff int32

// The first header word is the clause's size<<2 with these flags.
// hdrDeleted marks a clause reduceDB dropped, for the compaction that
// ends the same reduction.
const (
	hdrDeleted Lit = 1 << iota
	hdrLearned
)

// clauseHdr locates one clause's literals in the arena and carries the
// bookkeeping propagate never reads.
type clauseHdr struct {
	start    int32 // index of the first literal in Solver.arena
	id       int32 // the clause's proof ID (see Proof); 0 with no Proof attached
	activity float64
}

// Result is the outcome of Solve.
type Result int

const (
	// Unknown means the conflict budget was exhausted.
	Unknown Result = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was refuted.
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver work. Stats() returns lifetime totals accumulated
// across every Solve call on the solver; LastStats() returns the same
// shape holding the just-finished call's deltas instead.
type Stats struct {
	Vars         int
	Clauses      int
	Learned      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Reduced      int64
	// Cancelled reports that Solve returned Unknown because Interrupt was
	// called, as opposed to exhausting MaxConflicts.
	Cancelled bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	// tables holds every slice sized by the problem; Release hands them
	// to the next New.
	tables

	slab  []coff // the chunk short watch lists are carved from (see watch)
	qhead int

	varInc float64
	claInc float64
	// resets counts ResetActivities calls; it feeds the activity noise
	// (see noiseSeed).
	resets uint64

	unsat bool

	// model is the assignment snapshot of the last Sat answer. Solve
	// backtracks to level 0 before returning (so clauses can be added and
	// further Solve calls made on the same solver); Model and Value read
	// this snapshot, not the live trail.
	model []int8
	// core is the failed-assumption subset of the last Solve call that
	// returned Unsat under assumptions; nil for global refutations.
	core []Lit

	stats Stats
	// last holds the just-finished Solve call's per-call statistics.
	last Stats

	// MaxConflicts bounds each Solve call's search independently (a
	// per-call budget, not a lifetime total); <= 0 means unbounded.
	MaxConflicts int64

	// Proof, when non-nil, receives the clausal derivation (original
	// clauses, learned clauses with their hints, deletions) so an UNSAT
	// answer can be checked independently; see the Proof interface.
	// Attach it before the first AddClause or the premises will be
	// incomplete.
	Proof Proof
	// proofID is the ID of the clause most recently logged to Proof.
	proofID int32

	// stop is the cancellation flag: Interrupt (from any goroutine) makes
	// the running Solve return Unknown with Stats().Cancelled set.
	stop atomic.Bool
}

// tables are the solver's problem-sized slices: what Reserve sizes, and
// what a process that builds one solver after another would otherwise
// allocate, zero and fault in afresh for each. Release parks them as the
// spare with every length cut to 0, and New hands the spare to the next
// solver, whose appends then reuse the capacity. Nothing outside the
// solver may keep a slice into them across Release.
type tables struct {
	// arena holds every clause back to back: two header words (see
	// coff), then the literals; hdrs[c] says where clause c's literals
	// start.
	arena   []Lit
	hdrs    []clauseHdr
	clauses []cref
	learned []cref
	// watches is indexed by literal. Release drops the inner lists (their
	// slab chunks and heap arrays), keeping only the outer table.
	watches [][]coff

	vals   []int8 // indexed by literal: vals[l] is l's value, vals[l^1] its negation's
	level  []int32
	reason []cref
	trail  []Lit
	lim    []int

	activity []float64
	heap     []int32 // binary max-heap of variables by activity
	heapPos  []int32 // var -> heap index, -1 if absent
	phase    []bool
	defPhase []bool // per-var reset polarity: SetPhase overrides, ResetPhases restores

	// Scratch buffers reused across calls: AddClause's sorted copy and
	// its proof-log copy, analyze's learned clause, its seen marks (all
	// false between calls) and, with a Proof attached, its hints.
	addBuf   []Lit
	inputBuf []Lit
	learnBuf []Lit
	seen     []bool
	hints    []int32

	// idle counts the solvers in a row that reserved less than a quarter
	// of these tables (see age).
	idle int
}

// truncate cuts every table to length 0, keeping its capacity. The
// watch lists are cleared first, so a parked set pins no slab chunk or
// list array of the solver it came from.
func (t *tables) truncate() {
	clear(t.watches)
	*t = tables{
		arena: t.arena[:0], hdrs: t.hdrs[:0], clauses: t.clauses[:0], learned: t.learned[:0],
		watches: t.watches[:0],
		vals:    t.vals[:0], level: t.level[:0], reason: t.reason[:0], trail: t.trail[:0], lim: t.lim[:0],
		activity: t.activity[:0], heap: t.heap[:0], heapPos: t.heapPos[:0], phase: t.phase[:0], defPhase: t.defPhase[:0],
		addBuf: t.addBuf[:0], inputBuf: t.inputBuf[:0], learnBuf: t.learnBuf[:0], seen: t.seen[:0], hints: t.hints[:0],
		idle: t.idle,
	}
}

// maxIdle is how many solvers in a row may reserve less than a quarter
// of a recycled set before it is dropped. A compile's GMAs, and the
// programs a process compiles one after another, mix problem sizes a
// hundredfold apart, so a set one solver finds far too large is often
// needed whole a few solvers later; a set that sits unneeded this long
// goes, so the one parked follows the recent problems rather than the
// largest the process ever built.
const maxIdle = 16

// age counts a solver that asks for room for vars variables and words
// arena words against the set, and drops the set once maxIdle solvers in
// a row, this one included, have needed less than a quarter of it.
func (t *tables) age(vars, words int) {
	if cap(t.vals) <= 4*2*vars && cap(t.arena) <= 4*words {
		t.idle = 0
	} else if t.idle++; t.idle >= maxIdle {
		*t = tables{}
	}
}

// spare holds the tables of the most recently released solver until the
// next New takes them. One set is what a sequential run uses: it
// releases and takes back one set per GMA. A release replaces the set
// already parked, so at most one set outlives its solver. A mutex
// rather than a sync.Pool, whose per-processor slots and victim cache
// keep more sets alive and lose them at every GC (see DESIGN.md).
var spare struct {
	sync.Mutex
	tables
}

// New returns an empty solver. When an earlier solver was released, its
// tables come with it: every length and scalar starts as in a fresh
// solver, so the search cannot tell the two apart, but NewVar, AddClause
// and Reserve fill the released capacity instead of allocating.
func New() *Solver {
	s := &Solver{varInc: 1.0, claInc: 1.0}
	spare.Lock()
	s.tables, spare.tables = spare.tables, tables{}
	spare.Unlock()
	return s
}

// Release hands the solver's tables to the next New, in place of any
// set released before and not yet taken, and leaves the solver empty.
// The caller must use neither the solver nor the slice Core returned
// afterwards. Models, Stats and proof logs already taken are copies and
// stay valid.
func (s *Solver) Release() {
	t := s.tables
	s.tables = tables{}
	t.truncate()
	spare.Lock()
	spare.tables = t
	spare.Unlock()
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.NumVars()
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, s.noise(v))
	s.phase = append(s.phase, false)
	s.defPhase = append(s.defPhase, false)
	s.heapPos = append(s.heapPos, -1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapInsert(int32(v))
	s.stats.Vars++
	return v
}

// Reserve makes room for vars more variables, clauses more problem
// clauses and lits more clause literals (plus each clause's two header
// words), so a caller that knows its problem size can build it without
// regrowing the per-variable tables or the clause arena. Tables that
// came from a released solver (see New) and are already large enough
// are kept as they are, unless they have been far too large for too long
// (see age). It is only a capacity hint: the solver still grows past it,
// and the answer does not depend on it.
func (s *Solver) Reserve(vars, clauses, lits int) {
	words := lits + 2*clauses
	if s.NumVars() == 0 {
		s.age(vars, words)
	}
	s.vals = slices.Grow(s.vals, 2*vars)
	s.level = slices.Grow(s.level, vars)
	s.reason = slices.Grow(s.reason, vars)
	s.activity = slices.Grow(s.activity, vars)
	s.phase = slices.Grow(s.phase, vars)
	s.defPhase = slices.Grow(s.defPhase, vars)
	s.heap = slices.Grow(s.heap, vars)
	s.heapPos = slices.Grow(s.heapPos, vars)
	s.seen = slices.Grow(s.seen, vars)
	s.watches = slices.Grow(s.watches, 2*vars)
	s.trail = slices.Grow(s.trail, vars)
	s.hdrs = slices.Grow(s.hdrs, clauses)
	s.clauses = slices.Grow(s.clauses, clauses)
	s.arena = slices.Grow(s.arena, words)
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vals) / 2 }

// SetPhase overrides variable v's saved phase: the polarity the solver
// tries first when branching on v. Incremental encodings use it to seed
// structurally-known-good polarities (e.g. "enabled" for selector-style
// variables whose positive assignment is never harmful) that the default
// negative phase would search away from. The override is sticky: it also
// becomes the polarity ResetPhases restores, so a seeded phase survives
// the heuristic resets a persistent engine issues between probes.
func (s *Solver) SetPhase(v int, phase bool) {
	s.phase[v] = phase
	s.defPhase[v] = phase
}

// NumClauses returns the number of problem (non-learned) clauses retained
// after top-level simplification.
func (s *Solver) NumClauses() int { return len(s.clauses) }

func (s *Solver) value(l Lit) int8 { return s.vals[l] }

// AddClause adds a clause (a disjunction of literals). It returns false if
// the formula is already unsatisfiable at the top level. Clauses may be
// added before the first Solve and between Solve calls (the solver is
// back at decision level 0 whenever Solve returns); learned clauses and
// variable activity carry over.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.lim) != 0 {
		panic("sat: AddClause called during search")
	}
	if s.Proof != nil {
		// Log a copy: handing the caller's slice to an interface method
		// would make every variadic call site heap-allocate its literals.
		s.inputBuf = append(s.inputBuf[:0], lits...)
		s.logInput(s.inputBuf)
	}
	// Top-level simplification: sort, dedup, drop false literals, detect
	// tautologies and already-satisfied clauses. Clauses are short and
	// arrive nearly sorted, so an insertion sort into the reused buffer
	// beats a general sort and allocates nothing.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for i := 1; i < len(ls); i++ {
		l, j := ls[i], i
		for ; j > 0 && ls[j-1] > l; j-- {
			ls[j] = ls[j-1]
		}
		ls[j] = l
	}
	out := ls[:0]
	var prev Lit = litUndef
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev != litUndef && l == prev.Not() {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			prev = l
			continue // drop false literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		// The clause is falsified by top-level units alone, so the empty
		// clause is derivable by unit propagation: the refutation is done.
		s.logEmpty(s.proofID)
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], crefUndef)
		if confl := s.propagate(); confl != crefUndef {
			s.logEmpty(s.hdrs[confl].id)
			s.unsat = true
			return false
		}
		return true
	}
	c := s.newClause(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	s.stats.Clauses++
	return true
}

// newClause copies lits into the arena behind its two header words and
// returns the new clause's ref. The clause takes the proof ID of the
// clause logged last: AddClause and the conflict loop create a clause
// right after logging it.
func (s *Solver) newClause(lits []Lit, learned bool) cref {
	c := cref(len(s.hdrs))
	w := Lit(len(lits)) << 2
	if learned {
		w |= hdrLearned
	}
	s.arena = append(s.arena, w, Lit(c))
	s.hdrs = append(s.hdrs, clauseHdr{start: int32(len(s.arena)), id: s.proofID})
	s.arena = append(s.arena, lits...)
	return c
}

// word returns clause c's first header word: its size<<2 and flags.
func (s *Solver) word(c cref) *Lit { return &s.arena[s.hdrs[c].start-2] }

// lits returns clause c's literals: a window onto the arena, permuted in
// place as watches move.
func (s *Solver) lits(c cref) []Lit {
	start := s.hdrs[c].start
	end := start + int32(*s.word(c)>>2)
	return s.arena[start:end:end]
}

func (s *Solver) attach(c cref) {
	ls := s.lits(c)
	o := coff(s.hdrs[c].start - 2)
	s.watch(ls[0], o)
	s.watch(ls[1], o)
}

// Short watch lists are carved out of shared slab chunks instead of each
// getting its own small heap array: most literals watch only a few
// clauses, and one allocation per literal (and per doubling) dominated
// the cost of building a large encoding. A list that outgrows
// watchSlabMax moves to an ordinary heap array. Growth never reorders a
// list, so where a list's memory lives cannot change the search.
const (
	watchSlabChunk = 1 << 12
	watchSlabMax   = 64
)

// watch appends the clause at offset o to literal l's watch list.
func (s *Solver) watch(l Lit, o coff) {
	ws := s.watches[l]
	if len(ws) == cap(ws) {
		ws = s.growWatch(ws)
	}
	s.watches[l] = append(ws, o)
}

// growWatch returns ws moved to an array of twice its capacity (at least
// 4). Abandoned slab slots are not reused; a chunk is freed once no list
// points into it.
func (s *Solver) growWatch(ws []coff) []coff {
	n := max(2*cap(ws), 4)
	if n > watchSlabMax {
		return slices.Grow(ws, n-len(ws))
	}
	if cap(s.slab)-len(s.slab) < n {
		s.slab = make([]coff, 0, watchSlabChunk)
	}
	at := len(s.slab)
	s.slab = s.slab[:at+n]
	return append(s.slab[at:at:at+n], ws...)
}

func (s *Solver) enqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l], s.vals[l^1] = lTrue, lFalse
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	// Propagation adds no clause and no variable, so neither table moves.
	arena, vals := s.arena, s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		// Clauses watching ¬p: that literal just became false.
		falseLit := p.Not()
		ws := s.watches[falseLit]
		kept := ws[:0]
		confl := crefUndef
		for i := 0; i < len(ws); i++ {
			o := ws[i]
			if confl != crefUndef {
				kept = append(kept, o)
				continue
			}
			ls := arena[o+2 : o+2+coff(arena[o]>>2)]
			// Normalize: watched false literal at position 1.
			if ls[0] == falseLit {
				ls[0], ls[1] = ls[1], ls[0]
			}
			if vals[ls[0]] == lTrue {
				kept = append(kept, o)
				continue
			}
			moved := false
			for k := 2; k < len(ls); k++ {
				if vals[ls[k]] != lFalse {
					ls[1], ls[k] = ls[k], ls[1]
					s.watch(ls[1], o)
					moved = true
					break
				}
			}
			if moved {
				continue // removed from this watch list
			}
			kept = append(kept, o)
			if vals[ls[0]] == lFalse {
				confl = cref(arena[o+1])
				continue
			}
			s.enqueue(ls[0], cref(arena[o+1]))
		}
		s.watches[falseLit] = kept
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// analyze derives a first-UIP learned clause from a conflict. The asserting
// literal is placed at index 0 and the backtrack level returned. The
// clause lives in a buffer reused by the next conflict. With a Proof
// attached, s.hints receives the IDs of the clauses the derivation
// resolves, in propagation order: the reasons, then the conflict clause.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learnBuf[:0], litUndef)
	seen := s.seen
	pathC := 0
	p := litUndef
	index := len(s.trail) - 1
	curLevel := int32(len(s.lim))
	logging := s.Proof != nil
	hints := s.hints[:0]
	for {
		if logging {
			hints = append(hints, s.hdrs[confl].id)
		}
		if *s.word(confl)&hdrLearned != 0 {
			s.bumpClause(confl)
		}
		ls := s.lits(confl)
		if p != litUndef {
			ls = ls[1:] // reason clause has p at lits[0]
		}
		for _, q := range ls {
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bump(v)
				if s.level[v] >= curLevel {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reason[p.Var()]
		seen[p.Var()] = false
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Not()
	if logging {
		// Collected from the conflict backwards along the trail.
		slices.Reverse(hints)
		s.hints = hints
	}
	// Every current-level mark was cleared on the walk; the lower-level
	// ones are exactly learnt[1:].
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learnBuf = learnt
	// Backtrack to the second-highest level in the clause; move that
	// literal to index 1 so the watches stay valid after backtracking.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	return learnt, bt
}

func (s *Solver) backtrack(level int) {
	if len(s.lim) <= level {
		return
	}
	bound := s.lim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.IsNeg()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = crefUndef
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:bound]
	s.lim = s.lim[:level]
	s.qhead = bound
}

func (s *Solver) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

// Interrupt requests that a running (or future) Solve stop and return
// Unknown with Stats().Cancelled set. It is safe to call from any
// goroutine, any number of times, before or during Solve; it never blocks.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (s *Solver) Interrupted() bool { return s.stop.Load() }

// ClearInterrupt resets the cancellation flag so the solver can be
// reused after an Interrupt. Persistent engines call it between probes:
// a stale flag from a cancelled probe would otherwise abort the next
// Solve immediately.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// Solve runs the CDCL search, optionally under assumption literals that
// hold for this call only. With no assumptions the answer is global: Unsat
// means the clause database itself is unsatisfiable. With assumptions,
// Unsat means the database conjoined with the assumptions is
// unsatisfiable — the database may still be satisfiable — and Core then
// reports a failed subset of the assumptions. On Sat the model is
// snapshotted (see Model/Value) and the solver backtracks to level 0, so
// the caller may add clauses and Solve again; learned clauses, variable
// activity and saved phases all carry over between calls. This is the
// incremental contract the cycle-budget search is built on.
//
// MaxConflicts bounds each call independently. Stats returns lifetime
// totals across calls; LastStats returns the just-finished call's
// per-call deltas — deltas, not totals, are what aggregate correctly
// when Solve is called repeatedly on one solver.
func (s *Solver) Solve(assumps ...Lit) Result {
	before := s.stats
	res := s.solve(assumps)
	after := s.stats
	s.last = Stats{
		Vars:         after.Vars,
		Clauses:      after.Clauses,
		Learned:      after.Learned - before.Learned,
		Conflicts:    after.Conflicts - before.Conflicts,
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		Restarts:     after.Restarts - before.Restarts,
		Reduced:      after.Reduced - before.Reduced,
		Cancelled:    after.Cancelled,
	}
	return res
}

func (s *Solver) solve(assumps []Lit) Result {
	s.model = nil
	s.core = nil
	s.stats.Cancelled = false
	if s.unsat {
		return Unsat
	}
	if confl := s.propagate(); confl != crefUndef {
		s.logEmpty(s.hdrs[confl].id)
		s.unsat = true
		return Unsat
	}
	startConflicts := s.stats.Conflicts
	restartBase := int64(100)
	lubyIdx := int64(1)
	conflictsAtRestart := s.stats.Conflicts
	limit := restartBase * luby(lubyIdx)
	for {
		// The cancellation flag is polled once per propagate/decide round:
		// a single atomic load, negligible next to the propagation it
		// gates, so an Interrupt lands within one round.
		if s.stop.Load() {
			s.backtrack(0)
			s.stats.Cancelled = true
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			if len(s.lim) == 0 {
				s.logEmpty(s.hdrs[confl].id)
				s.unsat = true
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.logLearn(learnt, s.hints)
			s.backtrack(bt)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], crefUndef)
			} else {
				c := s.newClause(learnt, true)
				s.learned = append(s.learned, c)
				s.stats.Learned++
				s.attach(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.stats.Conflicts-startConflicts >= s.MaxConflicts {
				s.backtrack(0)
				return Unknown
			}
			continue
		}
		if s.stats.Conflicts-conflictsAtRestart >= limit {
			// Restart, and shed low-activity learned clauses when the
			// database has grown past its budget. Backtracking to level 0
			// drops the assumption prefix too; the decide path below
			// re-establishes it before any heuristic branching.
			s.stats.Restarts++
			s.backtrack(0)
			if len(s.learned) > s.learnedLimit() {
				s.reduceDB()
			}
			lubyIdx++
			conflictsAtRestart = s.stats.Conflicts
			limit = restartBase * luby(lubyIdx)
			continue
		}
		if len(s.lim) < len(assumps) {
			// Establish the assumption prefix, one decision level per
			// assumption in order, before any heuristic branching. Levels
			// 1..len(assumps) thus always correspond to the assumptions.
			p := assumps[len(s.lim)]
			switch s.value(p) {
			case lTrue:
				// Already implied at an earlier level; a dummy decision
				// level keeps the level index aligned with the
				// assumption index.
				s.lim = append(s.lim, len(s.trail))
			case lFalse:
				// The formula (plus earlier assumptions) forces ¬p: the
				// assumption set has failed. Extract which assumptions
				// were involved, leave the trail clean, and report Unsat
				// for this call only — s.unsat stays false.
				s.core = s.analyzeFinal(p)
				s.backtrack(0)
				return Unsat
			default:
				s.lim = append(s.lim, len(s.trail))
				s.enqueue(p, crefUndef)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			// All variables assigned: snapshot the model, then restore
			// level 0 so clauses can be added before the next call. Phase
			// saving in backtrack keeps the assignment as the preferred
			// polarity, so a related follow-up probe re-converges fast.
			s.saveModel()
			s.backtrack(0)
			return Sat
		}
		s.stats.Decisions++
		s.lim = append(s.lim, len(s.trail))
		l := Pos(v)
		if !s.phase[v] {
			l = Neg(v)
		}
		s.enqueue(l, crefUndef)
	}
}

// analyzeFinal computes the failed-assumption core once assumption p is
// found false while establishing the assumption prefix: the subset of the
// assumptions (always including p) whose conjunction with the clause
// database is already contradictory. It walks the trail above the first
// decision level, expanding propagated literals through their reason
// clauses and collecting the assumption decisions it reaches — the
// MiniSat analyzeFinal algorithm.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if len(s.lim) == 0 {
		return core // ¬p holds at top level: p alone is contradictory
	}
	seen := make([]bool, s.NumVars())
	seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.lim[0]; i-- {
		v := s.trail[i].Var()
		if !seen[v] {
			continue
		}
		if r := s.reason[v]; r == crefUndef {
			// A decision above level 0 while establishing assumptions is
			// itself an assumption literal.
			core = append(core, s.trail[i])
		} else {
			// The propagated literal is lits(r)[0]; its antecedents are
			// the rest. Level-0 literals need no justification.
			for _, q := range s.lits(r)[1:] {
				if s.level[q.Var()] > 0 {
					seen[q.Var()] = true
				}
			}
		}
		seen[v] = false
	}
	return core
}

// saveModel snapshots the current total assignment as the model.
func (s *Solver) saveModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]int8, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[Pos(v)]
	}
}

// Core returns the failed-assumption core of the most recent Solve call
// that returned Unsat under assumptions: a subset of that call's
// assumptions whose conjunction with the clause database is
// unsatisfiable. It returns nil when the refutation was global (the
// database alone is unsatisfiable — no assumptions needed) and after
// Sat or Unknown answers. The slice is valid until the next Solve and
// invalid after Release.
func (s *Solver) Core() []Lit { return s.core }

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPopMax()
		if s.vals[Pos(int(v))] == lUndef {
			return int(v)
		}
	}
	return -1
}

// Model returns the satisfying assignment snapshotted by the most recent
// Solve that reported Sat. (Solve backtracks to level 0 before returning,
// so the snapshot — not the live trail — is the model; it stays readable
// while clauses are added for a follow-up incremental call.)
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.Value(v)
	}
	return m
}

// Value reports the assignment of variable v in the last Sat model.
// Variables allocated after that model was found read as false.
func (s *Solver) Value(v int) bool {
	if s.model != nil {
		if v < len(s.model) {
			return s.model[v] == lTrue
		}
		return false
	}
	return s.vals[Pos(v)] == lTrue
}

// Stats returns the lifetime search statistics, accumulated across every
// Solve call on this solver.
func (s *Solver) Stats() Stats { return s.stats }

// LastStats returns the most recent Solve call's statistics: the work
// counters (Conflicts, Decisions, Propagations, Restarts, Learned,
// Reduced) are that call's deltas, while Vars and Clauses are the current
// totals. Summing the per-call deltas over a solver's Solve calls yields
// exactly the Stats totals.
func (s *Solver) LastStats() Stats { return s.last }

// luby returns the i'th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// --- activity heap (max-heap keyed by activity) ---

func (s *Solver) heapLess(i, j int32) bool {
	return s.activity[s.heap[i]] > s.activity[s.heap[j]]
}

func (s *Solver) heapSwap(i, j int32) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = i
	s.heapPos[s.heap[j]] = j
}

func (s *Solver) heapUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			break
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Solver) heapDown(i int32) {
	n := int32(len(s.heap))
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.heapLess(l, best) {
			best = l
		}
		if r < n && s.heapLess(r, best) {
			best = r
		}
		if best == i {
			return
		}
		s.heapSwap(i, best)
		i = best
	}
}

func (s *Solver) heapInsert(v int32) {
	s.heap = append(s.heap, v)
	i := int32(len(s.heap) - 1)
	s.heapPos[v] = i
	s.heapUp(i)
}

func (s *Solver) heapPopMax() int32 {
	v := s.heap[0]
	last := int32(len(s.heap) - 1)
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

// bumpClause raises a learned clause's activity, rescaling on overflow.
func (s *Solver) bumpClause(c cref) {
	h := &s.hdrs[c]
	h.activity += s.claInc
	if h.activity > 1e20 {
		for _, lc := range s.learned {
			s.hdrs[lc].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// learnedLimit is the learned-clause budget: a third of the problem
// clauses, grown with the conflict count so long searches may keep more.
func (s *Solver) learnedLimit() int {
	limit := len(s.clauses)/3 + int(s.stats.Conflicts/10)
	if limit < 2000 {
		limit = 2000
	}
	return limit
}

// reduceDB deletes the lower-activity half of the learned clauses, keeping
// binary clauses and clauses that are the reason for a current assignment,
// and compacts the arena, so no watch list ever holds a deleted clause.
func (s *Solver) reduceDB() {
	sorted := append([]cref(nil), s.learned...)
	sort.Slice(sorted, func(i, j int) bool { return s.hdrs[sorted[i]].activity < s.hdrs[sorted[j]].activity })
	locked := func(c cref) bool {
		l := s.lits(c)[0]
		return s.reason[l.Var()] == c && s.vals[l] != lUndef
	}
	toDelete := len(sorted) / 2
	for _, c := range sorted {
		if toDelete == 0 {
			break
		}
		w := s.word(c)
		if *w>>2 <= 2 || locked(c) {
			continue
		}
		*w |= hdrDeleted
		s.logDelete(c)
		toDelete--
	}
	before := len(s.learned)
	kept := s.learned[:0]
	for _, c := range s.learned {
		if *s.word(c)&hdrDeleted == 0 {
			kept = append(kept, c)
		}
	}
	s.learned = kept
	s.stats.Reduced += int64(before - len(kept))
	s.compact()
}

// compact rebuilds the arena without the clauses marked deleted. Live
// clauses keep their relative order and their literal order, refs are
// renumbered densely, and deleted clauses leave the watch lists, whose
// live entries keep their order — so compacting changes nothing about
// the search. The new arena has room for all of the old one's words: the
// clauses learned next refill what the deleted ones freed.
func (s *Solver) compact() {
	live := len(s.clauses) + len(s.learned)
	remap := make([]cref, len(s.hdrs))
	arena := make([]Lit, 0, len(s.arena))
	hdrs := make([]clauseHdr, 0, live)
	for c, h := range s.hdrs {
		w := s.arena[h.start-2]
		if w&hdrDeleted != 0 {
			remap[c] = crefUndef
			continue
		}
		remap[c] = cref(len(hdrs))
		lits := s.arena[h.start : h.start+int32(w>>2)]
		arena = append(arena, w, Lit(len(hdrs)))
		h.start = int32(len(arena))
		arena = append(arena, lits...)
		hdrs = append(hdrs, h)
	}
	for i, c := range s.clauses {
		s.clauses[i] = remap[c]
	}
	for i, c := range s.learned {
		s.learned[i] = remap[c]
	}
	// Each watch entry names its clause by the cref word in the old arena.
	for l, ws := range s.watches {
		kept := ws[:0]
		for _, o := range ws {
			if r := remap[s.arena[o+1]]; r != crefUndef {
				kept = append(kept, coff(hdrs[r].start-2))
			}
		}
		s.watches[l] = kept
	}
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v] = remap[r]
		}
	}
	s.arena, s.hdrs = arena, hdrs
}

// ResetPhases restores every saved phase to its default polarity —
// negative unless overridden by SetPhase — leaving activities and the
// clause database untouched.
func (s *Solver) ResetPhases() {
	copy(s.phase, s.defPhase)
}

// noiseSeed, when nonzero, gives every variable a starting activity in
// [0, 1e-3) at NewVar and at each ResetActivities, in place of 0: a hash
// of the seed, the variable and the solver's reset count. Each seed is
// one reproducible perturbation of the branching order, which the test
// harness uses to tell a change to the search from a lucky or unlucky
// draw. Only tests set it (export_test.go); 0 leaves every search as it
// is.
var noiseSeed uint64

// noise is variable v's starting activity: 0 unless noiseSeed is set.
func (s *Solver) noise(v int) float64 {
	if noiseSeed == 0 {
		return 0
	}
	// splitmix64's finalizer over the seed, the variable and the reset
	// count, scaled from its top 53 bits to [0, 1e-3).
	h := noiseSeed ^ uint64(v)*0x9e3779b97f4a7c15 ^ s.resets*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53) * 1e-3
}

// ResetActivities zeroes the variable activities (re-draws their noise
// when noiseSeed is set), resets both bump increments (variable and
// clause) to 1, and restores the branching heap to canonical variable
// order, leaving phases and clauses untouched.
// After the reset the solver branches exactly like a freshly-built one on
// the same clauses: with all activities tied, decision order is
// heap-array order, which pops and re-inserts would otherwise have
// shuffled. Learned-clause activities are not zeroed: they keep their
// old scale, which can dwarf the reset increment, so database reduction
// still favours the clauses that were active before the reset.
func (s *Solver) ResetActivities() {
	s.resets++
	s.varInc = 1.0
	s.claInc = 1.0
	s.heap = s.heap[:0]
	if noiseSeed == 0 {
		// Every activity tied: inserting the variables in order leaves
		// each where it lands, so the heap is the variables in order.
		clear(s.activity)
		for v := range s.heapPos {
			s.heap = append(s.heap, int32(v))
			s.heapPos[v] = int32(v)
		}
		return
	}
	for v := range s.activity {
		s.activity[v] = s.noise(v)
		s.heapPos[v] = -1
	}
	for v := 0; v < s.NumVars(); v++ {
		s.heapInsert(int32(v))
	}
}
