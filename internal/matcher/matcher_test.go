package matcher

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/obs"
	"repro/internal/term"
)

func builtinAxioms(t *testing.T) []*axioms.Axiom {
	t.Helper()
	axs, err := axioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	return axs
}

func saturate(t *testing.T, g *egraph.Graph, axs []*axioms.Axiom, opt Options) Result {
	t.Helper()
	res, err := Saturate(g, axs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hasInClass reports whether class c contains an application of op.
func hasInClass(g *egraph.Graph, c egraph.ClassID, op string) bool {
	for _, id := range g.ClassNodes(c) {
		if n := g.Node(id); n.Kind == term.App && n.Op == op {
			return true
		}
	}
	return false
}

// TestFigure2 reproduces the paper's running example: saturating
// reg6*4+1 must discover the shift-and-add form and the single s4addq
// instruction.
func TestFigure2(t *testing.T) {
	g := egraph.New()
	goal := g.AddTerm(term.MustParse("(add64 (mul64 reg6 4) 1)"))
	res := saturate(t, g, builtinAxioms(t), Options{})
	if !res.Quiescent {
		t.Fatalf("saturation did not quiesce: %+v", res)
	}
	if !hasInClass(g, goal, "s4addq") {
		t.Fatalf("goal class lacks s4addq; graph: %s", g.TermOf(goal))
	}
	mul := g.AddTerm(term.MustParse("(mul64 reg6 4)"))
	if !hasInClass(g, mul, "sll") {
		t.Fatal("mul class lacks the sll alternative")
	}
	// At least three ways to compute the goal.
	if n := g.CountComputations(goal, 1000); n < 3 {
		t.Fatalf("only %d computations found", n)
	}
}

// TestDoubleIsShift checks 2*reg7 = reg7<<1 (the paper's introductory
// example of proof by matching).
func TestDoubleIsShift(t *testing.T) {
	g := egraph.New()
	goal := g.AddTerm(term.MustParse("(mul64 2 reg7)"))
	saturate(t, g, builtinAxioms(t), Options{})
	if !hasInClass(g, goal, "sll") {
		t.Fatal("2*reg7 should be equal to a shift")
	}
	if !hasInClass(g, goal, "add64") {
		t.Fatal("2*reg7 should also be equal to reg7+reg7")
	}
}

// TestSumWays checks the paper's claim that commutativity and
// associativity of addition yield more than a hundred ways of computing
// a+b+c+d+e.
func TestSumWays(t *testing.T) {
	g := egraph.New()
	goal := g.AddTerm(term.MustParse("(add64 a (add64 b (add64 c (add64 d e))))"))
	res := saturate(t, g, builtinAxioms(t), Options{MaxNodes: 200000, MaxRounds: 30})
	if !res.Quiescent {
		t.Logf("saturation stats: %+v", res)
	}
	n := g.CountComputations(goal, 10000)
	if n <= 100 {
		t.Fatalf("found only %d ways of computing a+b+c+d+e; the paper reports more than a hundred", n)
	}
}

// TestSelectStoreReorder reproduces the paper's clause example: after
// storing x at p, a load from p+8 must become equal to the load from the
// original memory, giving the code generator the option of doing the load
// and store in either order.
func TestSelectStoreReorder(t *testing.T) {
	g := egraph.New()
	load := g.AddTerm(term.MustParse("(select (store M p x) (add64 p 8))"))
	oldLoad := g.AddTerm(term.MustParse("(select M (add64 p 8))"))
	if g.Find(load) == g.Find(oldLoad) {
		t.Fatal("loads must start distinct")
	}
	saturate(t, g, builtinAxioms(t), Options{})
	if g.Find(load) != g.Find(oldLoad) {
		t.Fatal("select-store axiom + offset distinction should have merged the loads")
	}
}

// TestSelectStoreSameAddress: select(store(a,i,x), i) = x.
func TestSelectStoreSameAddress(t *testing.T) {
	g := egraph.New()
	load := g.AddTerm(term.MustParse("(select (store M p x) p)"))
	x := g.AddTerm(term.NewVar("x"))
	saturate(t, g, builtinAxioms(t), Options{})
	if g.Find(load) != g.Find(x) {
		t.Fatal("load of just-stored value should equal the stored value")
	}
}

// TestSelectStoreUnknownAlias: with two symbolic addresses and no
// arithmetic relating them, the clause must stay unresolved — the graph
// must NOT equate the loads.
func TestSelectStoreUnknownAlias(t *testing.T) {
	g := egraph.New()
	load := g.AddTerm(term.MustParse("(select (store M p x) q)"))
	oldLoad := g.AddTerm(term.MustParse("(select M q)"))
	saturate(t, g, builtinAxioms(t), Options{})
	if g.Find(load) == g.Find(oldLoad) {
		t.Fatal("possibly-aliased load must not be reordered")
	}
}

// TestByteswapDecomposition saturates the byteswap4 goal term and checks
// that the goal class acquires an or-of-inserts machine computation.
func TestByteswapDecomposition(t *testing.T) {
	g := egraph.New()
	goal := g.AddTerm(term.MustParse(
		"(storeb (storeb (storeb (storeb 0 0 (selectb a 3)) 1 (selectb a 2)) 2 (selectb a 1)) 3 (selectb a 0))"))
	res := saturate(t, g, builtinAxioms(t), Options{MaxNodes: 100000, MaxRounds: 24})
	if !hasInClass(g, goal, "bis") {
		t.Fatalf("goal class lacks a bis computation (res=%+v, term=%s)", res, g.TermOf(goal))
	}
	// The innermost byte should have collapsed to extbl a 3 somewhere:
	// insbl(selectb(a,3),0) = selectb(a,3) = extbl(a,3).
	inner := g.AddTerm(term.MustParse("(storeb 0 0 (selectb a 3))"))
	if !hasInClass(g, inner, "extbl") {
		t.Fatalf("inner byte class lacks extbl: %s", g.TermOf(inner))
	}
}

// TestChecksumAddExpansion uses the checksum program's local axioms: add
// expands into add64/carry machine computations.
func TestChecksumAddExpansion(t *testing.T) {
	local, err := axioms.ParseAll(`
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) b))))
(\axiom (forall (a b) (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
(\axiom (forall (a b) (pats (add a b)) (eq (add a b) (add b a))))
`, "checksum")
	if err != nil {
		t.Fatal(err)
	}
	g := egraph.New()
	goal := g.AddTerm(term.MustParse("(add sum v)"))
	all := append(builtinAxioms(t), local...)
	saturate(t, g, all, Options{})
	if !hasInClass(g, goal, "add64") {
		t.Fatalf("add did not expand into machine ops: %s", g.TermOf(goal))
	}
	carry := g.AddTerm(term.MustParse("(carry sum v)"))
	if !hasInClass(g, carry, "cmpult") {
		t.Fatal("carry did not expand into cmpult")
	}
	// Both carry definitions should be in the same class (the paper
	// points out the two axioms give the code generator freedom).
	c1 := g.AddTerm(term.MustParse("(cmpult (add64 sum v) sum)"))
	c2 := g.AddTerm(term.MustParse("(cmpult (add64 sum v) v)"))
	if g.Find(c1) != g.Find(c2) {
		t.Fatal("the two carry computations should be equal")
	}
}

func TestConditionsRespected(t *testing.T) {
	// The shift axiom must not fire for an exponent >= 64 even if such a
	// term is constructed artificially.
	axs, err := axioms.ParseAll(`
(\axiom (forall (k n) (pats (\mul64 k (** 2 n))) (where (\cmpult n 64))
  (eq (\mul64 k (** 2 n)) (\sll k n))))
`, "cond")
	if err != nil {
		t.Fatal(err)
	}
	g := egraph.New()
	g.SetConstFolding(false) // keep 2**70 symbolic
	goal := g.AddTerm(term.MustParse("(mul64 x (** 2 70))"))
	saturate(t, g, axs, Options{DisablePow2: true, DisableOffsets: true})
	if hasInClass(g, goal, "sll") {
		t.Fatal("condition n<64 violated")
	}
	// And with a valid exponent it does fire.
	g2 := egraph.New()
	g2.SetConstFolding(false)
	goal2 := g2.AddTerm(term.MustParse("(mul64 x (** 2 3))"))
	saturate(t, g2, axs, Options{DisablePow2: true, DisableOffsets: true})
	if !hasInClass(g2, goal2, "sll") {
		t.Fatal("axiom should fire for n=3")
	}
}

func TestNodeBudgetStopsSaturation(t *testing.T) {
	g := egraph.New()
	g.AddTerm(term.MustParse("(add64 a (add64 b (add64 c (add64 d (add64 e (add64 f (add64 h (add64 i j))))))))"))
	res := saturate(t, g, builtinAxioms(t), Options{MaxNodes: 60, MaxRounds: 50})
	if res.Quiescent {
		t.Fatal("tiny budget should prevent quiescence")
	}
	if res.Nodes < 60 {
		t.Fatalf("expected to hit the node budget, nodes=%d", res.Nodes)
	}
}

func TestRoundBudget(t *testing.T) {
	g := egraph.New()
	g.AddTerm(term.MustParse("(add64 a (add64 b (add64 c (add64 d e))))"))
	res := saturate(t, g, builtinAxioms(t), Options{MaxRounds: 1})
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

// TestBudgetExhaustedTag: the round that ends saturation on a limit
// carries a budget-exhausted tag naming it; a quiescent run tags none.
// Every round span carries the clauses it added.
func TestBudgetExhaustedTag(t *testing.T) {
	for _, tc := range []struct {
		name string
		goal string
		opt  Options
		want string
	}{
		{"nodes", "(add64 a (add64 b (add64 c (add64 d (add64 e (add64 f (add64 h (add64 i j))))))))", Options{MaxNodes: 60, MaxRounds: 50}, "nodes"},
		{"rounds", "(add64 a (add64 b (add64 c (add64 d e))))", Options{MaxRounds: 1}, "rounds"},
		{"quiescent", "(add64 (mul64 reg6 4) 1)", Options{}, ""},
	} {
		g := egraph.New()
		g.AddTerm(term.MustParse(tc.goal))
		tr := obs.New()
		tc.opt.Trace = tr
		res := saturate(t, g, builtinAxioms(t), tc.opt)
		if res.Quiescent != (tc.want == "") {
			t.Fatalf("%s: quiescent = %v", tc.name, res.Quiescent)
		}
		rounds := roundSpans(t, tr)
		if len(rounds) != res.Rounds {
			t.Fatalf("%s: %d round spans for %d rounds", tc.name, len(rounds), res.Rounds)
		}
		for i, args := range rounds {
			if _, ok := args["clauses"]; !ok {
				t.Errorf("%s: round %d has no clauses tag: %v", tc.name, i+1, args)
			}
			got, _ := args["budget-exhausted"].(string)
			want := ""
			if i == len(rounds)-1 {
				want = tc.want
			}
			if got != want {
				t.Errorf("%s: round %d budget-exhausted = %q, want %q", tc.name, i+1, got, want)
			}
		}
	}
}

// roundSpans returns the tags of every "round N" span in tr's Chrome
// export, in start order.
func roundSpans(t *testing.T, tr *obs.Trace) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	var rounds []map[string]any
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && strings.HasPrefix(e.Name, "round ") {
			rounds = append(rounds, e.Args)
		}
	}
	return rounds
}

func TestOffsetDistinctions(t *testing.T) {
	g := egraph.New()
	p := g.AddTerm(term.NewVar("p"))
	p8 := g.AddTerm(term.MustParse("(add64 p 8)"))
	p16 := g.AddTerm(term.MustParse("(add64 p 16)"))
	saturate(t, g, nil, Options{})
	if !g.Distinct(p, p8) {
		t.Fatal("p and p+8 should be distinct")
	}
	if !g.Distinct(p8, p16) {
		t.Fatal("p+8 and p+16 should be distinct")
	}
	// Idempotent: run again without error.
	saturate(t, g, nil, Options{})
}

func TestPow2Enrichment(t *testing.T) {
	g := egraph.New()
	four := g.AddTerm(term.NewConst(4))
	saturate(t, g, nil, Options{})
	if !hasInClass(g, four, "**") {
		t.Fatal("4 should be equated with 2**2")
	}
	// Non-powers are untouched.
	six := g.AddTerm(term.NewConst(6))
	saturate(t, g, nil, Options{})
	if hasInClass(g, six, "**") {
		t.Fatal("6 must not be equated with a power of two")
	}
}

func TestInstantiationsCounted(t *testing.T) {
	g := egraph.New()
	g.AddTerm(term.MustParse("(add64 a b)"))
	res := saturate(t, g, builtinAxioms(t), Options{})
	if res.Instantiations == 0 {
		t.Fatal("expected some instantiations")
	}
	if res.Nodes == 0 || res.Classes == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

// TestCapDoesNotFakeQuiescence: the per-axiom cap counts only rows not
// yet done. With a cap of 1 the first round instantiates gg(a) and the
// second must still reach gg(b), whose row comes after the done one;
// a round the cap cut is never reported quiescent.
func TestCapDoesNotFakeQuiescence(t *testing.T) {
	axs, err := axioms.ParseAll(`(\axiom (forall (x) (pats (\gg x)) (eq (\gg x) (\hh x))))`, "cap")
	if err != nil {
		t.Fatal(err)
	}
	g := egraph.New()
	ga := g.AddTerm(term.MustParse("(gg a)"))
	gb := g.AddTerm(term.MustParse("(gg b)"))
	res := saturate(t, g, axs, Options{MaxMatchesPerAxiom: 1, DisablePow2: true, DisableOffsets: true})
	if !res.Quiescent || res.Instantiations != 2 || res.Rounds != 3 {
		t.Errorf("got %+v, want 3 rounds, 2 instantiations, quiescent", res)
	}
	for _, c := range []egraph.ClassID{ga, gb} {
		if !hasInClass(g, c, "hh") {
			t.Errorf("%s lacks its hh instance", g.TermOf(c))
		}
	}
}

// TestDoneRoundAllocs: once every match of an axiom is done, matching it
// again allocates nothing per match — the done check re-canonicalizes a
// row into a reused key and probes a hash set — so a round's allocations
// do not grow with the number of done matches.
func TestDoneRoundAllocs(t *testing.T) {
	axs, err := axioms.ParseAll(`(\axiom (forall (x y) (pats (\gg x y)) (eq (\gg x y) (\hh y x))))`, "done")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		g := egraph.New()
		for i := 0; i < n; i++ {
			g.AddTerm(term.MustParse(fmt.Sprintf("(gg a%d b%d)", i, i)))
		}
		s := newSaturation(g, axs, Options{}.withDefaults())
		if _, err := s.apply(0); err != nil {
			t.Fatal(err)
		}
		if s.res.Instantiations != n {
			t.Fatalf("%d goals: %d instantiations", n, s.res.Instantiations)
		}
		a := testing.AllocsPerRun(20, func() {
			if _, err := s.apply(0); err != nil {
				t.Fatal(err)
			}
		})
		if s.res.Instantiations != n {
			t.Fatalf("%d goals: a done round instantiated again", n)
		}
		return a
	}
	small, large := allocs(4), allocs(400)
	if large > small {
		t.Errorf("a round of done matches allocates %.0f times with 400 matches and %.0f with 4; want no growth", large, small)
	}
}
