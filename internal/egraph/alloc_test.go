package egraph

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/term"
)

// fmtFingerprint is the reference rendering of Subst.Fingerprint.
func fmtFingerprint(s Subst, g *Graph) string {
	var names []string
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, g.Find(s[n]))
	}
	return b.String()
}

// TestKeyFormats pins the hash-cons signatures and substitution
// fingerprints to their fmt renderings: they are map keys whose bytes
// decide deduplication, so a faster builder must produce the same ones.
func TestKeyFormats(t *testing.T) {
	g := New()
	x := g.AddTerm(term.NewVar("x"))
	c := g.AddTerm(term.NewConst(0xdeadbeef))
	app := g.AddApp("add64", []ClassID{x, c})
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
	for _, s := range []Subst{
		{},
		{"k": c},
		{"y": app, "x": x, "k": c, "zz": app, "a": x},
		{"v0": x, "v1": x, "v2": x, "v3": x, "v4": x, "v5": x, "v6": x, "v7": x, "v8": c, "v9": c},
	} {
		if got, want := s.Fingerprint(g), fmtFingerprint(s, g); got != want {
			t.Errorf("Fingerprint = %q, want %q", got, want)
		}
	}
}

// TestFingerprintAllocs: a fingerprint costs one allocation, its string.
func TestFingerprintAllocs(t *testing.T) {
	g := New()
	s := Subst{
		"x": g.AddTerm(term.NewVar("a")),
		"y": g.AddTerm(term.NewVar("b")),
		"k": g.AddTerm(term.NewConst(8)),
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Fingerprint(g) }); n > 1 {
		t.Errorf("Fingerprint allocates %.1f times, want <= 1", n)
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
	m := &matchState{g: g, p: p, env: []ClassID{-1}, seen: map[string]bool{}}
	m.step(0)
	if len(m.out) != 1 {
		t.Fatalf("MatchSeq found %d substitutions, want 1 (the congruent node is a duplicate)", len(m.out))
	}
	// Replay the duplicate: bind x as the search did and record again.
	m.env[0] = m.out[0]["x"]
	if n := testing.AllocsPerRun(100, m.record); n != 0 {
		t.Errorf("a duplicate substitution allocates %.1f times, want 0", n)
	}
	if len(m.out) != 1 {
		t.Errorf("duplicates were recorded: %d substitutions", len(m.out))
	}
}
