package egraph

import (
	"testing"

	"repro/internal/term"
)

func vars(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestMatchSimple(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(add64 p q)"))
	subs := g.Match(term.MustParse("(add64 x y)"), vars("x", "y"))
	if len(subs) != 1 {
		t.Fatalf("got %d matches", len(subs))
	}
	p := g.AddTerm(term.NewVar("p"))
	q := g.AddTerm(term.NewVar("q"))
	if g.Find(subs[0]["x"]) != g.Find(p) || g.Find(subs[0]["y"]) != g.Find(q) {
		t.Fatal("wrong bindings")
	}
}

func TestMatchNonlinearPattern(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(add64 p p)"))
	g.AddTerm(term.MustParse("(add64 p q)"))
	subs := g.Match(term.MustParse("(add64 x x)"), vars("x"))
	if len(subs) != 1 {
		t.Fatalf("nonlinear pattern: got %d matches, want 1", len(subs))
	}
	// After merging p and q, (add64 p q) also matches (add64 x x).
	p := g.AddTerm(term.NewVar("p"))
	q := g.AddTerm(term.NewVar("q"))
	if err := g.Merge(p, q); err != nil {
		t.Fatal(err)
	}
	subs = g.Match(term.MustParse("(add64 x x)"), vars("x"))
	if len(subs) != 1 { // both nodes now yield the same substitution
		t.Fatalf("after merge: got %d matches, want 1", len(subs))
	}
}

func TestMatchConstPattern(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(mul64 r 4)"))
	g.AddTerm(term.MustParse("(mul64 s 8)"))
	subs := g.Match(term.MustParse("(mul64 k 4)"), vars("k"))
	if len(subs) != 1 {
		t.Fatalf("got %d matches", len(subs))
	}
	r := g.AddTerm(term.NewVar("r"))
	if g.Find(subs[0]["k"]) != g.Find(r) {
		t.Fatal("bound wrong class")
	}
}

// TestMatchModuloEquivalence reproduces the crucial Figure 2 step: the
// pattern k * 2**n fails against reg6*4 in a plain term DAG but succeeds in
// the E-graph once 4 = 2**2 is recorded.
func TestMatchModuloEquivalence(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(mul64 reg6 4)"))
	pat := term.MustParse("(mul64 k (** 2 n))")
	if subs := g.Match(pat, vars("k", "n")); len(subs) != 0 {
		t.Fatalf("pattern must not match before 4 = 2**2, got %v", subs)
	}
	// Record 4 = 2**2. Constant folding would immediately merge them, so
	// disable it to exercise the pure matching path, as the paper's
	// matcher records the fact explicitly.
	four := g.AddTerm(term.NewConst(4))
	g.SetConstFolding(false)
	pow := g.AddTerm(term.MustParse("(** 2 2)"))
	if err := g.Merge(four, pow); err != nil {
		t.Fatal(err)
	}
	subs := g.Match(pat, vars("k", "n"))
	if len(subs) != 1 {
		t.Fatalf("got %d matches after 4 = 2**2", len(subs))
	}
	two := g.AddTerm(term.NewConst(2))
	if g.Find(subs[0]["n"]) != g.Find(two) {
		t.Fatal("n should bind to 2")
	}
}

func TestMatchFreeVariable(t *testing.T) {
	// A pattern variable not in patVars matches only the class containing
	// that named variable — used for axioms mentioning fixed symbols.
	g := New()
	g.AddTerm(term.MustParse("(f M)"))
	g.AddTerm(term.MustParse("(f N)"))
	subs := g.Match(term.MustParse("(f M)"), vars())
	if len(subs) != 1 {
		t.Fatalf("got %d matches, want 1", len(subs))
	}
}

func TestMatchSeq(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(carry a b)"))
	g.AddTerm(term.MustParse("(add64 a b)"))
	pats := []*term.Term{
		term.MustParse("(carry x y)"),
		term.MustParse("(add64 x y)"),
	}
	subs := g.MatchSeq(pats, vars("x", "y"))
	if len(subs) != 1 {
		t.Fatalf("multi-pattern: got %d matches", len(subs))
	}
	// Without the add64 term for (b,a), the reversed binding is absent.
	pats2 := []*term.Term{
		term.MustParse("(carry x y)"),
		term.MustParse("(add64 y x)"),
	}
	subs2 := g.MatchSeq(pats2, vars("x", "y"))
	if len(subs2) != 0 {
		t.Fatalf("reversed multi-pattern should not match, got %d", len(subs2))
	}
}

func TestMatchDeduplicates(t *testing.T) {
	g := New()
	a := g.AddTerm(term.MustParse("(add64 p q)"))
	b := g.AddTerm(term.MustParse("(add64 r s)"))
	p := g.AddTerm(term.NewVar("p"))
	r := g.AddTerm(term.NewVar("r"))
	q := g.AddTerm(term.NewVar("q"))
	s := g.AddTerm(term.NewVar("s"))
	for _, pair := range [][2]ClassID{{p, r}, {q, s}, {a, b}} {
		if err := g.Merge(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	subs := g.Match(term.MustParse("(add64 x y)"), vars("x", "y"))
	if len(subs) != 1 {
		t.Fatalf("duplicate nodes must yield one substitution, got %d", len(subs))
	}
}

func TestInstantiate(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(mul64 reg6 4)"))
	p := NewPattern([]*term.Term{term.MustParse("(mul64 k 4)")}, vars("k"))
	var rows RowSet
	g.MatchRows(p, &rows)
	if rows.Len() != 1 {
		t.Fatal("expected a match")
	}
	rhs := p.Template(term.MustParse("(sll k 2)"))
	c := g.Instantiate(rhs, rows.Row(0))
	reg6 := g.AddTerm(term.NewVar("reg6"))
	want := g.AddApp("sll", []ClassID{reg6, g.AddTerm(term.NewConst(2))})
	if g.Find(c) != g.Find(want) {
		t.Fatal("instantiation interned the wrong term")
	}
}

func TestCountComputations(t *testing.T) {
	g := New()
	goal := g.AddTerm(term.MustParse("(add64 (mul64 reg6 4) 1)"))
	if n := g.CountComputations(goal, 1000); n != 1 {
		t.Fatalf("initial graph has 1 computation, got %d", n)
	}
	// Add shift alternative: mul64 reg6 4 = sll reg6 2.
	mul := g.AddTerm(term.MustParse("(mul64 reg6 4)"))
	shift := g.AddTerm(term.MustParse("(sll reg6 2)"))
	if err := g.Merge(mul, shift); err != nil {
		t.Fatal(err)
	}
	if n := g.CountComputations(goal, 1000); n != 2 {
		t.Fatalf("after shift alternative: %d computations, want 2", n)
	}
	// Add s4addq alternative for the whole goal.
	one := g.AddTerm(term.NewConst(1))
	reg6 := g.AddTerm(term.NewVar("reg6"))
	s4 := g.AddApp("s4addq", []ClassID{reg6, one})
	if err := g.Merge(goal, s4); err != nil {
		t.Fatal(err)
	}
	if n := g.CountComputations(goal, 1000); n != 3 {
		t.Fatalf("after s4addq: %d computations, want 3", n)
	}
	// Cap is honoured.
	if n := g.CountComputations(goal, 2); n != 2 {
		t.Fatalf("capped count = %d, want 2", n)
	}
}

func TestMatchArityMismatch(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(f a)"))
	if subs := g.Match(term.MustParse("(f x y)"), vars("x", "y")); len(subs) != 0 {
		t.Fatal("arity mismatch must not match")
	}
	if subs := g.Match(term.NewVar("x"), vars("x")); subs != nil {
		t.Fatal("non-application pattern must not match")
	}
}
