package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	p := Pos(3)
	n := Neg(3)
	if p.Var() != 3 || n.Var() != 3 {
		t.Fatal("Var")
	}
	if p.IsNeg() || !n.IsNeg() {
		t.Fatal("IsNeg")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not")
	}
	if p.String() != "4" || n.String() != "-4" {
		t.Fatalf("String: %s %s", p, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	if r := s.Solve(); r != Sat {
		t.Fatalf("result = %v", r)
	}
	if !s.Value(a) {
		t.Fatal("a should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	if ok := s.AddClause(Neg(a)); ok {
		t.Fatal("adding ¬a after unit a should report unsat")
	}
	if r := s.Solve(); r != Unsat {
		t.Fatalf("result = %v", r)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should report unsat")
	}
	if s.Solve() != Unsat {
		t.Fatal("solver should be unsat")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a), Neg(a))
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be stored")
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
}

func TestImplicationChain(t *testing.T) {
	// a, a->b, b->c, c->d : all must be true.
	s := New()
	v := make([]int, 4)
	for i := range v {
		v[i] = s.NewVar()
	}
	s.AddClause(Pos(v[0]))
	for i := 0; i < 3; i++ {
		s.AddClause(Neg(v[i]), Pos(v[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
	for i := range v {
		if !s.Value(v[i]) {
			t.Fatalf("v[%d] should be true", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes is UNSAT and requires real
	// conflict-driven search.
	for _, n := range []int{3, 4, 5} {
		s := New()
		// p[i][j]: pigeon i in hole j.
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = Pos(p[i][j])
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
				}
			}
		}
		if r := s.Solve(); r != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, r)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// A 5-cycle is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, k := range []int{2, 3} {
		s := New()
		col := make([][]int, 5)
		for v := range col {
			col[v] = make([]int, k)
			for c := range col[v] {
				col[v][c] = s.NewVar()
			}
			lits := make([]Lit, k)
			for c := range lits {
				lits[c] = Pos(col[v][c])
			}
			s.AddClause(lits...)
		}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				s.AddClause(Neg(col[e[0]][c]), Neg(col[e[1]][c]))
			}
		}
		r := s.Solve()
		if k == 2 && r != Unsat {
			t.Fatalf("2-coloring C5 = %v, want UNSAT", r)
		}
		if k == 3 && r != Sat {
			t.Fatalf("3-coloring C5 = %v, want SAT", r)
		}
	}
}

// bruteForceSat decides satisfiability by truth-table enumeration.
func bruteForceSat(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m&(1<<uint(l.Var())) != 0
				if val != l.IsNeg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBruteForce cross-checks the CDCL solver against
// truth-table enumeration on random 3-SAT instances near the phase
// transition.
func TestRandomAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8) // 4..11 vars
		m := int(4.3*float64(n)) + rng.Intn(5)
		var clauses [][]Lit
		for i := 0; i < m; i++ {
			var c []Lit
			used := map[int]bool{}
			for len(c) < 3 {
				v := rng.Intn(n)
				if used[v] {
					continue
				}
				used[v] = true
				if rng.Intn(2) == 0 {
					c = append(c, Pos(v))
				} else {
					c = append(c, Neg(v))
				}
			}
			clauses = append(clauses, c)
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForceSat(n, clauses)
		if want && got != Sat {
			return false
		}
		if !want && got != Unsat {
			return false
		}
		if got == Sat {
			// Verify the model satisfies every clause.
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.IsNeg() {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtMostOne(t *testing.T) {
	for _, n := range []int{2, 3, 5, 6, 9, 17} {
		// Forcing two distinct literals true must be UNSAT.
		s := New()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = Pos(s.NewVar())
		}
		s.AtMostOne(lits)
		s.AddClause(lits[0])
		s.AddClause(lits[n-1])
		if r := s.Solve(); r != Unsat {
			t.Fatalf("n=%d: two true literals should be UNSAT, got %v", n, r)
		}
		// Exactly one true is SAT.
		s2 := New()
		lits2 := make([]Lit, n)
		for i := range lits2 {
			lits2[i] = Pos(s2.NewVar())
		}
		s2.AtMostOne(lits2)
		s2.AddClause(lits2[n/2])
		if r := s2.Solve(); r != Sat {
			t.Fatalf("n=%d: one true literal should be SAT, got %v", n, r)
		}
		for i, l := range lits2 {
			if i != n/2 && s2.Value(l.Var()) {
				t.Fatalf("n=%d: literal %d also true", n, i)
			}
		}
		// All false is SAT.
		s3 := New()
		lits3 := make([]Lit, n)
		for i := range lits3 {
			lits3[i] = Pos(s3.NewVar())
		}
		s3.AtMostOne(lits3)
		if r := s3.Solve(); r != Sat {
			t.Fatalf("n=%d: all-false should be SAT, got %v", n, r)
		}
	}
}

func TestAtMostOneProperty(t *testing.T) {
	// Property: under AtMostOne, any model has at most one true literal.
	f := func(seed int64, size uint8) bool {
		n := int(size%14) + 2
		rng := rand.New(rand.NewSource(seed))
		s := New()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = Pos(s.NewVar())
		}
		s.AtMostOne(lits)
		// Random extra unit to diversify models.
		pick := rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.AddClause(lits[pick])
		} else {
			s.AddClause(lits[pick].Not())
		}
		if s.Solve() != Sat {
			return false
		}
		count := 0
		for _, l := range lits {
			if s.Value(l.Var()) {
				count++
			}
		}
		return count <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAtMostKTailGrows builds cardinality groups the way an encoding
// that grows in place does — AtMostKTail on a first batch of members,
// then on each later batch prefixed by the previous tail — and checks by
// enumerating every member assignment (as solver assumptions) that the
// grown group admits exactly the assignments with at most k members
// true. Batch sizes cover the pairwise, ladder and counter encodings.
func TestAtMostKTailGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 120; round++ {
		k := rng.Intn(4) // 0..3
		s := New()
		var members, tail []Lit
		for batch := 0; batch < 1+rng.Intn(4); batch++ {
			more := make([]Lit, rng.Intn(8))
			for i := range more {
				more[i] = Pos(s.NewVar())
			}
			members = append(members, more...)
			tail = s.AtMostKTail(nil, append(tail, more...), k)
		}
		n := len(members)
		if n > 10 {
			continue
		}
		for m := 0; m < 1<<n; m++ {
			assumps := make([]Lit, n)
			count := 0
			for i, l := range members {
				if m>>i&1 == 1 {
					assumps[i] = l
					count++
				} else {
					assumps[i] = l.Not()
				}
			}
			want := Unsat
			if count <= k {
				want = Sat
			}
			if got := s.Solve(assumps...); got != want {
				t.Fatalf("round %d: k=%d, %d of %d members true: %v, want %v", round, k, count, n, got, want)
			}
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.NewVar()
	}
	s.AddClause(Pos(0), Neg(1))
	s.AddClause(Pos(1), Pos(2))
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf, "gma=test cycle-budget-K=3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "c gma=test cycle-budget-K=3\n") {
		t.Fatalf("missing provenance comment:\n%s", out)
	}
	if !strings.Contains(out, "c 3 variables, 2 clauses\n") {
		t.Fatalf("missing size comment:\n%s", out)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumVars() != 3 || s2.NumClauses() != 2 {
		t.Fatalf("round trip: %d vars %d clauses", s2.NumVars(), s2.NumClauses())
	}
	if s2.Solve() != Sat {
		t.Fatal("round-tripped problem should be sat")
	}
}

func TestDIMACSCommentNewlineEscape(t *testing.T) {
	// Comments can carry caller-supplied text (request IDs, GMA names); a
	// line break inside one must not be able to forge a problem line.
	s := New()
	s.NewVar()
	s.NewVar()
	s.AddClause(Pos(0), Pos(1))
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf, "request=evil\np cnf 9 9\r\nmore"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "\np cnf 9 9") {
		t.Fatalf("newline in comment forged a problem line:\n%s", out)
	}
	if !strings.Contains(out, "c request=evil p cnf 9 9  more\n") {
		t.Fatalf("comment not flattened to one line:\n%s", out)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumVars() != 2 || s2.NumClauses() != 1 {
		t.Fatalf("parsed %d vars %d clauses, want 2 and 1", s2.NumVars(), s2.NumClauses())
	}
}

func TestParseDIMACS(t *testing.T) {
	src := `c example
p cnf 2 2
1 -2 0
2 0
`
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
	if !s.Value(0) || !s.Value(1) {
		t.Fatal("model should set both variables true")
	}
}

// TestParseDIMACSEmptyClause: a line holding only the terminator is the
// empty clause, which no assignment satisfies.
func TestParseDIMACSEmptyClause(t *testing.T) {
	s, err := ParseDIMACS(strings.NewReader("p cnf 1 2\n1 0\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("formula with an empty clause solved %v, want UNSAT", got)
	}
}

// TestDIMACSRoundTripUnits: clauses simplified away against top-level
// units, and a top-level refutation, survive export. Solving first adds
// a learned unit at level 0; each exported instance must re-solve to the
// original verdict.
func TestDIMACSRoundTripUnits(t *testing.T) {
	build := func(refute bool) *Solver {
		s := New()
		for i := 0; i < 3; i++ {
			s.NewVar()
		}
		s.AddClause(Pos(0))         // a top-level unit
		s.AddClause(Neg(0), Pos(1)) // simplified to the unit x1
		s.AddClause(Neg(1), Pos(2), Neg(0))
		if refute {
			s.AddClause(Neg(2), Neg(1)) // with the units above: x2 and ¬x2
		}
		return s
	}
	for _, refute := range []bool{false, true} {
		s := build(refute)
		want := s.Solve()
		var buf bytes.Buffer
		if err := s.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		s2, err := ParseDIMACS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Solve(); got != want {
			t.Errorf("refute=%v: direct %v, exported CNF re-solves %v:\n%s", refute, want, got, buf.String())
		}
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for _, src := range []string{
		"p cnf x 2\n1 0\n",
		"p dnf 2 2\n1 0\n",
		"p cnf 1 1\n2 0\n",
		"p cnf 1 1\nfoo 0\n",
	} {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDIMACS(%q): expected error", src)
		}
	}
}

func TestMaxConflicts(t *testing.T) {
	// A hard pigeonhole instance with a tiny conflict budget returns
	// Unknown rather than spinning.
	n := 7
	s := New()
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = Pos(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
			}
		}
	}
	s.MaxConflicts = 10
	if r := s.Solve(); r != Unknown {
		t.Fatalf("expected Unknown under tiny budget, got %v", r)
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		s.NewVar()
	}
	for i := 0; i < 5; i++ {
		s.AddClause(Pos(i), Neg(i+1))
	}
	s.AddClause(Pos(5))
	if s.Solve() != Sat {
		t.Fatal("sat expected")
	}
	st := s.Stats()
	if st.Vars != 6 {
		t.Fatalf("stats vars = %d", st.Vars)
	}
	if st.Propagations == 0 && st.Decisions == 0 {
		t.Fatal("expected some search work")
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Result strings")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
