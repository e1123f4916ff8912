package egraph

import (
	"fmt"
	"testing"

	"repro/internal/term"
)

// TestKeyFormats pins the hash-cons signatures to their fmt renderings:
// they are map keys whose bytes decide deduplication, so a faster builder
// must produce the same ones.
func TestKeyFormats(t *testing.T) {
	g := New()
	x := g.AddTerm(term.NewVar("x"))
	c := g.AddTerm(term.NewConst(0xdeadbeef))
	for _, tc := range []struct {
		got, want string
	}{
		{g.signature(term.Const, "", 0xdeadbeef, "", nil), "#deadbeef"},
		{g.signature(term.Const, "", 0, "", nil), "#0"},
		{g.signature(term.Var, "", 0, "reg6", nil), "$reg6"},
		{g.signature(term.App, "add64", 0, "", []ClassID{x, c}), fmt.Sprintf("add64 %d %d", x, c)},
		{g.signature(term.App, "f", 0, "", nil), "f"},
	} {
		if tc.got != tc.want {
			t.Errorf("signature = %q, want %q", tc.got, tc.want)
		}
	}
}

// TestMatchDuplicateAllocs: f(a) and f(b) become congruent once a = b, so
// matching (f x) meets the binding x = a once per node. The second meeting
// is a duplicate, and recording a duplicate allocates nothing.
func TestMatchDuplicateAllocs(t *testing.T) {
	g := New()
	g.AddTerm(term.MustParse("(f a)"))
	g.AddTerm(term.MustParse("(f b)"))
	if err := g.Merge(g.AddTerm(term.NewVar("a")), g.AddTerm(term.NewVar("b"))); err != nil {
		t.Fatal(err)
	}
	p := NewPattern([]*term.Term{term.MustParse("(f x)")}, map[string]bool{"x": true})
	var rows RowSet
	g.MatchRows(p, &rows)
	if rows.Len() != 1 {
		t.Fatalf("MatchRows found %d rows, want 1 (the congruent node is a duplicate)", rows.Len())
	}
	// Replay the duplicate: bind x as the search did and record again.
	m := &matchState{g: g, p: p, env: append([]ClassID(nil), rows.Row(0)...), out: &rows}
	if n := testing.AllocsPerRun(100, m.record); n != 0 {
		t.Errorf("a duplicate match allocates %.1f times, want 0", n)
	}
	if rows.Len() != 1 {
		t.Errorf("duplicates were recorded: %d rows", rows.Len())
	}
}
