package sat

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// logProof records a solver's derivation, copying each clause: a tag
// (1<<30 input, -1 learned, -2 deleted), then the deleted clause's ID or
// the learned clause's hints, a -3 separator, and the literals.
type logProof struct{ steps [][]Lit }

func (p *logProof) Input(lits []Lit) { p.steps = append(p.steps, append([]Lit{1 << 30}, lits...)) }

func (p *logProof) Learn(lits []Lit, hints []int32) {
	step := []Lit{-1}
	for _, h := range hints {
		step = append(step, Lit(h))
	}
	p.steps = append(p.steps, append(append(step, -3), lits...))
}

func (p *logProof) Delete(lits []Lit, id int32) {
	p.steps = append(p.steps, append([]Lit{-2, Lit(id), -3}, lits...))
}

// TestClauseHdrSize: a clause's size and flags live in the arena, ahead
// of its literals, so the side header holds only the start, the proof ID
// and the activity.
func TestClauseHdrSize(t *testing.T) {
	if got := unsafe.Sizeof(clauseHdr{}); got != 16 {
		t.Fatalf("clauseHdr is %d bytes, want 16", got)
	}
}

// random3SAT adds a seeded random 3-SAT instance to s.
func random3SAT(s *Solver, seed int64, vars, clauses int) *Solver {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < vars; i++ {
		s.NewVar()
	}
	for i := 0; i < clauses; i++ {
		var c [3]Lit
		for j := range c {
			c[j] = Lit(2*rng.Intn(vars) + rng.Intn(2))
		}
		s.AddClause(c[:]...)
	}
	return s
}

// TestCompactionKeepsTrajectory: compacting the clause arena renumbers
// refs and purges deleted clauses from the watch lists, which must change
// nothing about the search. Two solvers run the same hard instance in
// conflict-bounded slices. Both compact at every database reduction; one
// is also compacted between every two slices, and its watch lists are
// checked after each of those compactions. Their per-slice answers and
// work counters, their proof logs and their models must agree exactly.
func TestCompactionKeepsTrajectory(t *testing.T) {
	const vars, clauses, slice, rounds = 200, 852, 500, 40
	pa, pb := &logProof{}, &logProof{}
	a := New()
	a.Proof = pa
	random3SAT(a, 7, vars, clauses)
	b := New()
	b.Proof = pb
	random3SAT(b, 7, vars, clauses)
	a.MaxConflicts, b.MaxConflicts = slice, slice
	for i := 0; i < rounds; i++ {
		a.compact()
		if len(a.hdrs) != len(a.clauses)+len(a.learned) {
			t.Fatalf("round %d: compaction left %d headers for %d live clauses",
				i, len(a.hdrs), len(a.clauses)+len(a.learned))
		}
		checkWatches(t, i, a)
		ra, rb := a.Solve(), b.Solve()
		if ra != rb || a.LastStats() != b.LastStats() {
			t.Fatalf("round %d: compacted solver answered %v %+v, reference %v %+v",
				i, ra, a.LastStats(), rb, b.LastStats())
		}
		if slices.Contains(a.seen, true) {
			t.Fatalf("round %d: analyze left seen marks set", i)
		}
		if ra != Unknown {
			if ra == Sat && !slices.Equal(a.Model(), b.Model()) {
				t.Fatalf("round %d: models differ", i)
			}
			break
		}
	}
	if a.Stats().Reduced == 0 {
		t.Fatal("the database was never reduced: make the instance harder")
	}
	if len(pa.steps) != len(pb.steps) {
		t.Fatalf("proof logs have %d and %d steps", len(pa.steps), len(pb.steps))
	}
	for i := range pa.steps {
		if !slices.Equal(pa.steps[i], pb.steps[i]) {
			t.Fatalf("proof step %d differs: %v vs %v", i, pa.steps[i], pb.steps[i])
		}
	}
}

// checkWatches walks every watch list of s right after a compaction.
// Each entry is the offset of a clause's header words: the second word
// names a live clause whose literals start two words later, and the
// first has the deleted flag clear. Each clause is watched once by each
// of its first two literals and nowhere else.
func checkWatches(t *testing.T, round int, s *Solver) {
	t.Helper()
	watched := make([]int, len(s.hdrs))
	for l, ws := range s.watches {
		for _, o := range ws {
			c := cref(s.arena[o+1])
			if c < 0 || int(c) >= len(s.hdrs) || s.hdrs[c].start != int32(o)+2 || s.arena[o]&hdrDeleted != 0 {
				t.Fatalf("round %d: literal %d watches offset %d, whose header names clause %d (%d headers)",
					round, l, o, c, len(s.hdrs))
			}
			if ls := s.lits(c); Lit(l) != ls[0] && Lit(l) != ls[1] {
				t.Fatalf("round %d: literal %d watches clause %d, %v", round, l, c, ls)
			}
			watched[c]++
		}
	}
	for c, n := range watched {
		if n != 2 {
			t.Fatalf("round %d: clause %d is on %d watch lists, want 2", round, c, n)
		}
	}
}

// TestAddClauseAllocs: building a reserved solver out of binary clauses
// allocates almost nothing per clause: the arena, the header table and
// the per-variable tables are sized once, and short watch lists come out
// of shared slab chunks.
func TestAddClauseAllocs(t *testing.T) {
	const vars, n = 2000, 20000
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]Lit, n)
	for i := range pairs {
		v := rng.Intn(vars - 1)
		pairs[i] = [2]Lit{Neg(v), Neg(v + 1 + rng.Intn(vars-v-1))}
	}
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		s.Reserve(vars, n, 2*n)
		for i := 0; i < vars; i++ {
			s.NewVar()
		}
		for _, p := range pairs {
			s.AddClause(p[0], p[1])
		}
	})
	if per := allocs / n; per > 0.01 {
		t.Errorf("binary AddClause allocates %.4f times per clause (%.0f for %d), want <= 0.01", per, allocs, n)
	}
}
