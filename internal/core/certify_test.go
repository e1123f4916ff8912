package core

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/sat"
)

// probeShape is what a probe ladder must reproduce with proof logging
// on: the budgets, answers and search work, not the wall clock.
type probeShape struct {
	K            int
	Result       sat.Result
	Vars         int
	Clauses      int
	Conflicts    int64
	Propagations int64
}

func shapes(ps []Probe) []probeShape {
	out := make([]probeShape, len(ps))
	for i, p := range ps {
		out[i] = probeShape{p.K, p.Result, p.Vars, p.Clauses, p.Solver.Conflicts, p.Solver.Propagations}
	}
	return out
}

// TestCertifyEveryStrategy compiles the golden corpus with Certify under
// every refutation strategy. Each proven optimum must be Certified from
// the probe that refuted K−1 — scratch or incremental, sequential or
// pooled — and for the sequential strategies the certified compile must
// walk exactly the uncertified compile's probes: certification checks
// the probe's own proof and never solves again.
func TestCertifyEveryStrategy(t *testing.T) {
	strategies := []struct {
		search  SearchStrategy
		workers int
	}{
		{LinearSearch, 0}, {BinarySearch, 0}, {DescendSearch, 0}, {ParallelSearch, 4},
	}
	for _, st := range strategies {
		for _, p := range goldenCorpus {
			prog, err := lang.Parse(p.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, proc := range prog.Procs {
				for _, g := range proc.GMAs {
					o := opts(t)
					o.Axioms = append(o.Axioms, prog.Axioms...)
					o.Search, o.Workers = st.search, st.workers
					o.Schedule.Certify = true
					c, err := CompileGMA(g, o)
					if err != nil {
						t.Fatalf("%v %s/%s certified: %v", st.search, p.name, g.Name, err)
					}
					if c.OptimalProven && !c.Certified {
						t.Errorf("%v %s/%s: optimality proven but not certified", st.search, p.name, g.Name)
					}
					if c.Certified && c.Cycles > 0 && c.Cert == nil {
						t.Errorf("%v %s/%s: certified without a certificate", st.search, p.name, g.Name)
					}
					if st.search == ParallelSearch {
						continue // speculation makes the probe ladder nondeterministic
					}
					o.Schedule.Certify = false
					plain, err := CompileGMA(g, o)
					if err != nil {
						t.Fatalf("%v %s/%s: %v", st.search, p.name, g.Name, err)
					}
					got, want := shapes(c.Probes), shapes(plain.Probes)
					if len(got) != len(want) {
						t.Errorf("%v %s/%s: certified compile made %d probes, uncertified %d",
							st.search, p.name, g.Name, len(got), len(want))
						continue
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%v %s/%s probe %d: certified %+v, uncertified %+v",
								st.search, p.name, g.Name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
