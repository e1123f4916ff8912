package core

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/gma"
	"repro/internal/term"
)

func opts(t *testing.T) Options {
	t.Helper()
	axs, err := axioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	return Options{Desc: alpha.EV6(), Axioms: axs}
}

func simpleGMA(name string, inputs []string, target string, value string) *gma.GMA {
	return &gma.GMA{
		Name:    name,
		Targets: []gma.Target{{Kind: gma.Reg, Name: target}},
		Values:  []*term.Term{term.MustParse(value)},
		Inputs:  inputs,
	}
}

func TestS4addl(t *testing.T) {
	// Figure 2: reg6*4+1 should compile to a single s4addq.
	g := simpleGMA("s4", []string{"reg6"}, "res", "(add64 (mul64 reg6 4) 1)")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1\n%s", c.Cycles, c.ProbeSummary())
	}
	if !c.OptimalProven {
		t.Fatal("optimality should be proven by the K=0 refutation")
	}
	if n := c.Schedule.Instructions(); n != 1 {
		t.Fatalf("instructions = %d, want 1", n)
	}
	if c.Schedule.Launches[0].Mnemonic != "s4addq" {
		t.Fatalf("mnemonic = %s, want s4addq", c.Schedule.Launches[0].Mnemonic)
	}
	// The literal 1 must be an immediate operand, not a register.
	l := c.Schedule.Launches[0]
	if len(l.Args) != 2 || !l.Args[1].IsLit || l.Args[1].Lit != 1 {
		t.Fatalf("args = %v", l.Args)
	}
}

func TestDoubleViaShiftOrAdd(t *testing.T) {
	// 2*reg7: one cycle via sll or addq — never the 7-cycle mulq.
	g := simpleGMA("dbl", []string{"reg7"}, "res", "(mul64 2 reg7)")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", c.Cycles)
	}
	mn := c.Schedule.Launches[0].Mnemonic
	if mn != "sll" && mn != "addq" && mn != "s4addq" && mn != "s8addq" {
		t.Fatalf("mnemonic = %s", mn)
	}
}

func TestIdentityNeedsNoCode(t *testing.T) {
	// res := a + 0 is just a; zero cycles.
	g := simpleGMA("id", []string{"a"}, "res", "(add64 a 0)")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 0 || c.Schedule.Instructions() != 0 {
		t.Fatalf("cycles=%d instructions=%d, want 0/0", c.Cycles, c.Schedule.Instructions())
	}
	op, ok := c.Schedule.ResultRegs["res"]
	if !ok || op.Reg != c.Schedule.InputRegs["a"] {
		t.Fatalf("result location = %v, inputs %v", op, c.Schedule.InputRegs)
	}
}

func TestFiveOperandSum(t *testing.T) {
	g := simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
		"(add64 a (add64 b (add64 c (add64 d e))))")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Four adds, tree depth 3: three cycles on a quad-issue machine.
	if c.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3\n%s", c.Cycles, c.ProbeSummary())
	}
	if !c.OptimalProven {
		t.Fatal("optimality not proven")
	}
	if n := c.Schedule.Instructions(); n != 4 {
		t.Fatalf("instructions = %d, want 4", n)
	}
}

func TestGuardedGMA(t *testing.T) {
	g := &gma.GMA{
		Name:    "loop",
		Guard:   term.MustParse("(cmplt p r)"),
		Targets: []gma.Target{{Kind: gma.Reg, Name: "p"}},
		Values:  []*term.Term{term.MustParse("(add64 p 8)")},
		Inputs:  []string{"p", "r"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1 (guard and increment issue together)", c.Cycles)
	}
	if c.Schedule.Instructions() != 2 {
		t.Fatalf("instructions = %d, want 2", c.Schedule.Instructions())
	}
	if _, ok := c.Schedule.ResultRegs["<guard>"]; !ok {
		t.Fatal("guard register missing")
	}
	asm := c.Assembly()
	if !strings.Contains(asm, "beq") {
		t.Fatalf("assembly missing guard branch:\n%s", asm)
	}
}

func TestStore(t *testing.T) {
	g := &gma.GMA{
		Name:       "st",
		Targets:    []gma.Target{{Kind: gma.Memory, Name: "M"}},
		Values:     []*term.Term{term.MustParse("(store M p x)")},
		Inputs:     []string{"p", "x"},
		MemoryVars: []string{"M"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 || c.Schedule.Instructions() != 1 {
		t.Fatalf("cycles=%d n=%d", c.Cycles, c.Schedule.Instructions())
	}
	l := c.Schedule.Launches[0]
	if !l.IsStore || l.Mnemonic != "stq" || l.Val == nil {
		t.Fatalf("launch = %+v", l)
	}
}

func TestLoadLatency(t *testing.T) {
	g := &gma.GMA{
		Name:       "ld",
		Targets:    []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:     []*term.Term{term.MustParse("(select M p)")},
		Inputs:     []string{"p"},
		MemoryVars: []string{"M"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != alpha.LatLoadHit {
		t.Fatalf("cycles = %d, want %d", c.Cycles, alpha.LatLoadHit)
	}
	if !c.OptimalProven {
		t.Fatal("optimality not proven")
	}
}

func TestLoadDisplacementFolding(t *testing.T) {
	// select(M, p+8) should be one ldq with displacement 8 — no addq.
	g := &gma.GMA{
		Name:       "ldd",
		Targets:    []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:     []*term.Term{term.MustParse("(select M (add64 p 8))")},
		Inputs:     []string{"p"},
		MemoryVars: []string{"M"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != alpha.LatLoadHit {
		t.Fatalf("cycles = %d, want %d\n%s", c.Cycles, alpha.LatLoadHit, c.ProbeSummary())
	}
	if c.Schedule.Instructions() != 1 {
		t.Fatalf("instructions = %d, want 1 (folded displacement)", c.Schedule.Instructions())
	}
	l := c.Schedule.Launches[0]
	if !l.IsLoad || l.Disp != 8 || l.Base == nil {
		t.Fatalf("launch = %+v", l)
	}
}

func TestMissAnnotation(t *testing.T) {
	g := &gma.GMA{
		Name:       "miss",
		Targets:    []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:     []*term.Term{term.MustParse("(select M p)")},
		Inputs:     []string{"p"},
		MemoryVars: []string{"M"},
		MissAddrs:  []*term.Term{term.NewVar("p")},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != alpha.LatMiss {
		t.Fatalf("cycles = %d, want miss latency %d", c.Cycles, alpha.LatMiss)
	}
}

func TestProtectedLoadWaitsForGuard(t *testing.T) {
	g := &gma.GMA{
		Name:         "safe",
		Guard:        term.MustParse("(cmplt p r)"),
		Targets:      []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:       []*term.Term{term.MustParse("(select M p)")},
		Inputs:       []string{"p", "r"},
		MemoryVars:   []string{"M"},
		ProtectLoads: true,
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	// cmplt in cycle 0, load at cycle >= 1, completing at 1+3-1 = 3.
	if c.Cycles != 1+alpha.LatLoadHit {
		t.Fatalf("cycles = %d, want %d\n%s", c.Cycles, 1+alpha.LatLoadHit, c.ProbeSummary())
	}
	var loadCycle, cmpCycle = -1, -1
	for _, l := range c.Schedule.Launches {
		switch {
		case l.IsLoad:
			loadCycle = l.Cycle
		case l.Mnemonic == "cmplt":
			cmpCycle = l.Cycle
		}
	}
	if loadCycle <= cmpCycle {
		t.Fatalf("load at %d must follow guard at %d", loadCycle, cmpCycle)
	}
	// Without protection the load may issue immediately.
	g2 := *g
	g2.ProtectLoads = false
	c2, err := CompileGMA(&g2, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Cycles != alpha.LatLoadHit {
		t.Fatalf("unprotected cycles = %d, want %d", c2.Cycles, alpha.LatLoadHit)
	}
}

func TestLoadBeforeOverwritingStore(t *testing.T) {
	// r := old M[p]; M[p] := x. The load must be scheduled before the
	// store even though nothing dataflow-orders them.
	g := &gma.GMA{
		Name: "xchg",
		Targets: []gma.Target{
			{Kind: gma.Reg, Name: "r"},
			{Kind: gma.Memory, Name: "M"},
		},
		Values: []*term.Term{
			term.MustParse("(select M p)"),
			term.MustParse("(store M p x)"),
		},
		Inputs:     []string{"p", "x"},
		MemoryVars: []string{"M"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	var loadCycle, storeCycle = -1, -1
	for _, l := range c.Schedule.Launches {
		if l.IsLoad {
			loadCycle = l.Cycle
		}
		if l.IsStore {
			storeCycle = l.Cycle
		}
	}
	if loadCycle < 0 || storeCycle < 0 {
		t.Fatalf("missing load or store:\n%s", c.Schedule.Compact())
	}
	if loadCycle >= storeCycle {
		t.Fatalf("load at %d must precede store at %d", loadCycle, storeCycle)
	}
}

func TestConstantGoal(t *testing.T) {
	g := simpleGMA("konst", nil, "res", "300")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 || c.Schedule.Launches[0].Mnemonic != "ldiq" {
		t.Fatalf("cycles=%d launches=%v", c.Cycles, c.Schedule.Compact())
	}
}

func TestUncomputable(t *testing.T) {
	// An operator with no machine implementation and no rewrite: the
	// pipeline must report it rather than loop.
	axs, _ := axioms.Builtin()
	g := simpleGMA("bad", []string{"x"}, "res", "(frobnicate x)")
	_, err := CompileGMA(g, Options{Desc: alpha.EV6(), Axioms: axs})
	if err == nil {
		t.Fatal("expected uncomputable error")
	}
	if !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("error should mention the operator: %v", err)
	}
}

func TestBinarySearchAgreesWithLinear(t *testing.T) {
	g := simpleGMA("sum4", []string{"a", "b", "c", "d"}, "res",
		"(add64 (add64 a b) (add64 c d))")
	o := opts(t)
	lin, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Search = BinarySearch
	bin, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Cycles != bin.Cycles {
		t.Fatalf("linear %d vs binary %d cycles", lin.Cycles, bin.Cycles)
	}
	if !bin.OptimalProven {
		t.Fatal("binary search should still prove optimality here")
	}
}

func TestMultipleGoals(t *testing.T) {
	g := &gma.GMA{
		Name: "pair",
		Targets: []gma.Target{
			{Kind: gma.Reg, Name: "u"},
			{Kind: gma.Reg, Name: "v"},
		},
		Values: []*term.Term{
			term.MustParse("(add64 a b)"),
			term.MustParse("(xor64 a b)"),
		},
		Inputs: []string{"a", "b"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1 (independent ops dual-issue)", c.Cycles)
	}
	if len(c.Schedule.ResultRegs) != 2 {
		t.Fatalf("result regs = %v", c.Schedule.ResultRegs)
	}
}

func TestSwapTargetsSameValues(t *testing.T) {
	// (u, v) := (b, a): values are inputs; zero cycles, results point at
	// the input registers.
	g := &gma.GMA{
		Name: "swap",
		Targets: []gma.Target{
			{Kind: gma.Reg, Name: "u"},
			{Kind: gma.Reg, Name: "v"},
		},
		Values: []*term.Term{term.NewVar("b"), term.NewVar("a")},
		Inputs: []string{"a", "b"},
	}
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 0 {
		t.Fatalf("cycles = %d, want 0", c.Cycles)
	}
	if c.Schedule.ResultRegs["u"].Reg != c.Schedule.InputRegs["b"] {
		t.Fatal("u should be b's register")
	}
	if c.Schedule.ResultRegs["v"].Reg != c.Schedule.InputRegs["a"] {
		t.Fatal("v should be a's register")
	}
}

// TestPanicIsNotACompile: a compile that panics (here on a nil axiom)
// must reach the caller's recover as the original panic, not as a
// failure inside CompileGMA's own deferred code. That the panic is then
// counted once as an error, and never as a compile, is checked where the
// metrics are derived (serve's TestPublishPanicAndCachedRows).
func TestPanicIsNotACompile(t *testing.T) {
	o := opts(t)
	o.Axioms = append(o.Axioms, nil)
	var stack string
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compiling with a nil axiom did not panic")
			}
			stack = string(debug.Stack())
		}()
		CompileGMA(simpleGMA("double", []string{"reg7"}, "res", "(mul64 2 reg7)"), o)
	}()
	if strings.Contains(stack, "core.CompileGMA.func") {
		t.Errorf("the recovered panic was raised inside CompileGMA's deferred code:\n%s", stack)
	}
}

func TestValidateRejectsBadGMA(t *testing.T) {
	g := &gma.GMA{Name: "bad"}
	if _, err := CompileGMA(g, opts(t)); err == nil {
		t.Fatal("empty GMA should be rejected")
	}
	g2 := simpleGMA("freevar", nil, "res", "(add64 x 1)") // x not an input
	if _, err := CompileGMA(g2, opts(t)); err == nil {
		t.Fatal("free variable should be rejected")
	}
}

func TestProbeSummaryFormat(t *testing.T) {
	g := simpleGMA("s4", []string{"reg6"}, "res", "(add64 (mul64 reg6 4) 1)")
	c, err := CompileGMA(g, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	sum := c.ProbeSummary()
	if !strings.Contains(sum, "UNSAT") || !strings.Contains(sum, "SAT") {
		t.Fatalf("probe summary:\n%s", sum)
	}
	if len(c.Probes) < 2 {
		t.Fatalf("expected at least two probes, got %d", len(c.Probes))
	}
}

func TestDescendSearch(t *testing.T) {
	o := opts(t)
	o.Search = DescendSearch
	o.UpperBoundHint = 8
	g := simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
		"(add64 a (add64 b (add64 c (add64 d e))))")
	c, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 3 || !c.OptimalProven {
		t.Fatalf("descend: %d cycles, optimal=%v\n%s", c.Cycles, c.OptimalProven, c.ProbeSummary())
	}
	// Probes descend from the hint.
	if c.Probes[0].K != 8 {
		t.Fatalf("first probe K = %d, want 8", c.Probes[0].K)
	}
	for i := 1; i < len(c.Probes); i++ {
		if c.Probes[i].K != c.Probes[i-1].K-1 {
			t.Fatalf("non-descending probes:\n%s", c.ProbeSummary())
		}
	}
}

func TestDescendSearchBadHint(t *testing.T) {
	// An infeasible hint (too small) must fall back to searching upward.
	o := opts(t)
	o.Search = DescendSearch
	o.UpperBoundHint = 1
	g := simpleGMA("sum5b", []string{"a", "b", "c", "d", "e"}, "res",
		"(add64 a (add64 b (add64 c (add64 d e))))")
	c, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 3 {
		t.Fatalf("fallback found %d cycles\n%s", c.Cycles, c.ProbeSummary())
	}
}

func TestDescendToZero(t *testing.T) {
	// A free goal descends all the way to K=0 and is proven optimal.
	o := opts(t)
	o.Search = DescendSearch
	o.UpperBoundHint = 2
	g := simpleGMA("free", []string{"a"}, "res", "(add64 a 0)")
	c, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 0 || !c.OptimalProven {
		t.Fatalf("cycles=%d optimal=%v", c.Cycles, c.OptimalProven)
	}
}
