package egraph_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/lang"
	"repro/internal/matcher"
	"repro/internal/programs"
	"repro/internal/term"
)

// refMatchSeq is the direct recursive formulation of multi-pattern
// matching: a closure per pending argument and a map binding per
// variable. MatchSeq must find exactly its substitutions, in exactly its
// order — the order decides which axiom instance is interned first, and
// so every node and class ID downstream.
func refMatchSeq(g *egraph.Graph, pats []*term.Term, patVars map[string]bool) []egraph.Subst {
	var out []egraph.Subst
	seen := map[string]bool{}
	var matchArgs func(pats []*term.Term, classes []egraph.ClassID, s egraph.Subst, yield func())
	matchOne := func(pat *term.Term, class egraph.ClassID, s egraph.Subst, yield func()) {
		class = g.Find(class)
		switch pat.Kind {
		case term.Const:
			if v, ok := g.ConstValue(class); ok && v == pat.Word {
				yield()
			}
		case term.Var:
			if patVars[pat.Name] {
				if bound, ok := s[pat.Name]; ok {
					if g.Find(bound) == class {
						yield()
					}
					return
				}
				s[pat.Name] = class
				yield()
				delete(s, pat.Name)
				return
			}
			for _, id := range g.ClassNodes(class) {
				if n := g.Node(id); n.Kind == term.Var && n.Name == pat.Name {
					yield()
					return
				}
			}
		default:
			for _, id := range g.ClassNodes(class) {
				n := g.Node(id)
				if n.Kind == term.App && n.Op == pat.Op && len(n.Args) == len(pat.Args) {
					matchArgs(pat.Args, g.CanonArgs(id), s, yield)
				}
			}
		}
	}
	matchArgs = func(pats []*term.Term, classes []egraph.ClassID, s egraph.Subst, yield func()) {
		if len(pats) == 0 {
			yield()
			return
		}
		matchOne(pats[0], classes[0], s, func() { matchArgs(pats[1:], classes[1:], s, yield) })
	}
	s := egraph.Subst{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(pats) {
			if fp := refFingerprint(g, s); !seen[fp] {
				seen[fp] = true
				c := egraph.Subst{}
				for k, v := range s {
					c[k] = v
				}
				out = append(out, c)
			}
			return
		}
		if pats[i].Kind != term.App {
			return
		}
		for _, id := range g.NodesWithOp(pats[i].Op) {
			if len(g.Node(id).Args) == len(pats[i].Args) {
				matchArgs(pats[i].Args, g.CanonArgs(id), s, func() { rec(i + 1) })
			}
		}
	}
	rec(0)
	return out
}

// refFingerprint renders a substitution as "name=class;" per binding, in
// name order, each class canonical: the reference's dedup key.
func refFingerprint(g *egraph.Graph, s egraph.Subst) string {
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

// TestMatchSeqAgainstReference compares MatchSeq and Match with the
// reference on every builtin and program axiom, over E-graphs of the
// paper's programs at several stages of saturation.
func TestMatchSeqAgainstReference(t *testing.T) {
	for _, src := range []string{programs.Byteswap4, programs.Checksum, programs.Lcp2} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		axs, err := axioms.Builtin()
		if err != nil {
			t.Fatal(err)
		}
		axs = append(axs, prog.Axioms...)
		gm := prog.Procs[0].GMAs[0]
		for rounds := 1; rounds <= 3; rounds++ {
			g := egraph.New()
			for _, goal := range gm.Goals() {
				g.AddTerm(goal)
			}
			if _, err := matcher.Saturate(g, axs, matcher.Options{MaxRounds: rounds}); err != nil {
				t.Fatal(err)
			}
			for _, ax := range axs {
				vs := ax.VarSet()
				where := fmt.Sprintf("%s after %d rounds, axiom %s", gm.Name, rounds, ax.Name)
				sameSubsts(t, where, g, g.MatchSeq(ax.Patterns, vs), refMatchSeq(g, ax.Patterns, vs))
				if len(ax.Patterns) == 1 {
					sameSubsts(t, where+" (Match)", g, g.Match(ax.Patterns[0], vs), refMatchSeq(g, ax.Patterns, vs))
				}
			}
		}
	}
}

func sameSubsts(t *testing.T, where string, g *egraph.Graph, got, want []egraph.Subst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d substitutions, reference %d", where, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: substitution %d binds %v, reference %v", where, i, got[i], want[i])
		}
		for k, v := range want[i] {
			if gv, ok := got[i][k]; !ok || gv != v {
				t.Fatalf("%s: substitution %d binds %v, reference %v", where, i, got[i], want[i])
			}
		}
	}
}
