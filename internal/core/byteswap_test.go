package core

import (
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/gma"
	"repro/internal/sat"
	"repro/internal/term"
)

// byteswapGMA builds the GMA for reversing the n low bytes of register a
// (Figure 3 of the paper, after symbolic execution of the store chain).
func byteswapGMA(n int) *gma.GMA {
	val := term.NewConst(0)
	for i := 0; i < n; i++ {
		val = term.NewApp("storeb", val, term.NewConst(uint64(i)),
			term.NewApp("selectb", term.NewVar("a"), term.NewConst(uint64(n-1-i))))
	}
	return &gma.GMA{
		Name:    "byteswap",
		Targets: []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:  []*term.Term{val},
		Inputs:  []string{"a"},
	}
}

// TestByteswap4 reproduces the paper's headline result: a 5-cycle EV6
// program for the 4-byte swap (Figure 4), with optimality proven by the
// 4-cycle refutation.
func TestByteswap4(t *testing.T) {
	c, err := CompileGMA(byteswapGMA(4), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 5 {
		t.Fatalf("cycles = %d, want 5 (Figure 4)\n%s", c.Cycles, c.ProbeSummary())
	}
	if !c.OptimalProven {
		t.Fatal("optimality must be proven by refuting K=4")
	}
	if n := c.Schedule.Instructions(); n > 10 {
		t.Fatalf("instructions = %d, expected about 9 as in Figure 4", n)
	}
	// The probe sequence must contain a 4-cycle refutation. Every probe
	// runs on the persistent engine and reports its window-sized totals,
	// which grow with the window and never shrink.
	var sawRefutation bool
	prev := -1
	for _, p := range c.Probes {
		if p.K == 4 && p.Result == sat.Unsat {
			sawRefutation = true
		}
		if p.Vars < prev {
			t.Fatalf("engine window sizes must not shrink:\n%s", c.ProbeSummary())
		}
		prev = p.Vars
	}
	if !sawRefutation {
		t.Fatalf("missing 4-cycle refutation:\n%s", c.ProbeSummary())
	}
	// Byte-manipulation instructions must be scheduled on the upper
	// units only.
	for _, l := range c.Schedule.Launches {
		switch l.Mnemonic {
		case "extbl", "insbl", "mskbl":
			if l.Unit != alpha.U0 && l.Unit != alpha.U1 {
				t.Fatalf("%s scheduled on %s", l.Mnemonic, l.UnitName)
			}
		}
	}
}

// TestByteswap4NoClusters is the E9 ablation: with a unified register file
// (no cross-cluster penalty) the optimum is still 5 cycles — the two
// upper-unit byte pipes are the binding constraint, not the clusters. The
// paper's Figure 4 footnote is about instruction *placement* (the "unused
// instruction" keeps a later extbl on the right cluster), not the count.
func TestByteswap4NoClusters(t *testing.T) {
	o := opts(t)
	o.Desc = alpha.NoClusters()
	c, err := CompileGMA(byteswapGMA(4), o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 5 {
		t.Fatalf("cycles = %d, want 5\n%s", c.Cycles, c.ProbeSummary())
	}
	if !c.OptimalProven {
		t.Fatal("optimality not proven")
	}
}

// TestByteswap2 is the small sibling: swap the two low bytes.
func TestByteswap2(t *testing.T) {
	c, err := CompileGMA(byteswapGMA(2), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles > 3 {
		t.Fatalf("cycles = %d for byteswap2\n%s", c.Cycles, c.Schedule.Compact())
	}
	if !c.OptimalProven {
		t.Fatal("optimality not proven")
	}
}
