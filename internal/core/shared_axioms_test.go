package core

import (
	"sync"
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/gma"
	"repro/internal/lang"
	"repro/internal/programs"
)

// TestSharedAxiomsConcurrentCompile compiles golden GMAs on concurrent
// goroutines that share one Builtin slice, and so the process-wide parsed
// axioms and their terms. Each result must equal a sequential compile's
// cycles and assembly; under -race this also shows that no compile writes
// to the shared axioms.
func TestSharedAxiomsConcurrentCompile(t *testing.T) {
	axs, err := axioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var gmas []*gma.GMA
	for _, src := range []string{programs.Quickstart, programs.Byteswap4, programs.Byteswap5, programs.Lcp2, programs.CopyLoop, programs.Rowop, programs.SumLoop} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, proc := range prog.Procs {
			gmas = append(gmas, proc.GMAs...)
		}
	}
	type answer struct {
		cycles int
		asm    string
	}
	compile := func(g *gma.GMA) (answer, error) {
		c, err := CompileGMA(g, Options{Desc: alpha.EV6(), Axioms: axs})
		if err != nil {
			return answer{}, err
		}
		return answer{c.Cycles, c.Assembly()}, nil
	}
	want := make([]answer, len(gmas))
	for i, g := range gmas {
		if want[i], err = compile(g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
	got := make([]answer, len(gmas))
	errs := make([]error, len(gmas))
	var wg sync.WaitGroup
	for i, g := range gmas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = compile(g)
		}()
	}
	wg.Wait()
	for i, g := range gmas {
		if errs[i] != nil {
			t.Errorf("%s: concurrent compile: %v", g.Name, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("%s: concurrent compile gave %d cycles and\n%s\nsequential %d cycles and\n%s", g.Name, got[i].cycles, got[i].asm, want[i].cycles, want[i].asm)
		}
	}
}
