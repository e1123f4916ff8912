package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/lang"
	"repro/internal/sat"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// TestIncrementalEquivalence guards the persistent probe engine, which
// answers every budget the compiler probes, against the one-shot
// reference encoding budget by budget over the whole golden corpus. For
// every GMA, each budget k = 0…optimum is answered twice on the saturated
// E-graph: by a fresh schedule.NewProblem(k).Solve(), whose CNF bakes k
// in, and by one persistent schedule.Engine walking the same ladder with
// SolveBudget(k) under budget assumptions. Both must refute every budget
// below the optimum the compile found and satisfy the optimum itself, and
// every SAT schedule from either side must pass the simulator.
func TestIncrementalEquivalence(t *testing.T) {
	desc := alpha.EV6()
	sopt := schedule.Options{Desc: desc}
	for _, p := range goldenCorpus {
		prog, err := lang.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.name, err)
		}
		for _, proc := range prog.Procs {
			for _, g := range proc.GMAs {
				o := opts(t)
				o.Axioms = append(o.Axioms, prog.Axioms...)
				o.MaxCycles = 24
				c, err := CompileGMA(g, o)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, g.Name, err)
				}
				// The engine gets its own clone: Problem setup adds input and
				// constant terms to the graph it encodes.
				eng, err := schedule.NewEngine(c.Graph.Clone(), g, initialWindow(o, baselineBound(g, o)), o.MaxCycles, sopt)
				if err != nil {
					t.Fatalf("%s/%s: NewEngine: %v", p.name, g.Name, err)
				}
				for k := 0; k <= c.Cycles; k++ {
					prob, err := schedule.NewProblem(c.Graph, g, k, sopt)
					if err != nil {
						t.Fatalf("%s/%s K=%d: NewProblem: %v", p.name, g.Name, k, err)
					}
					scrSched, scr, err := prob.Solve()
					if err != nil {
						t.Fatalf("%s/%s K=%d: scratch solve: %v", p.name, g.Name, k, err)
					}
					incSched, inc, err := eng.SolveBudget(k)
					if err != nil {
						t.Fatalf("%s/%s K=%d: SolveBudget: %v", p.name, g.Name, k, err)
					}
					want := sat.Unsat
					if k == c.Cycles {
						want = sat.Sat
					}
					if scr.Result != want || inc.Result != want {
						t.Errorf("%s/%s K=%d: scratch %v, engine %v, want %v (optimum %d)",
							p.name, g.Name, k, scr.Result, inc.Result, want, c.Cycles)
					}
					for which, s := range map[string]*schedule.Schedule{"scratch": scrSched, "engine": incSched} {
						if s == nil {
							continue
						}
						if err := sim.Verify(g, s, desc, rand.New(rand.NewSource(7)), 25); err != nil {
							t.Errorf("%s/%s K=%d: %s schedule fails simulation:\n%v", p.name, g.Name, k, which, err)
						}
					}
				}
			}
		}
	}
}
