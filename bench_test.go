// Benchmarks regenerating every experiment of the paper's evaluation
// (section 8) and the DESIGN.md ablations. Each BenchmarkE* corresponds to
// a row of EXPERIMENTS.md; cmd/denali-bench prints the same data as tables.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/axioms"
	"repro/internal/brute"
	"repro/internal/egraph"
	"repro/internal/matcher"
	"repro/internal/programs"
	"repro/internal/term"
)

// reportGMA attaches the reproduction's headline metrics to the benchmark
// output so `go test -bench` regenerates the table numbers.
func reportGMA(b *testing.B, g *CompiledGMA) {
	b.Helper()
	b.ReportMetric(float64(g.Cycles), "cycles")
	b.ReportMetric(float64(g.Instructions), "instrs")
	last := g.Probes[len(g.Probes)-1]
	b.ReportMetric(float64(last.Vars), "SATvars")
	b.ReportMetric(float64(last.Clauses), "SATclauses")
}

// BenchmarkE1S4addl: Figure 2 — reg6*4+1 compiles to a single s4addq.
func BenchmarkE1S4addl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.Quickstart, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Procs[0].GMAs[0]
		if g.Cycles != 1 || !strings.Contains(g.Assembly, "s4addq") {
			b.Fatalf("cycles=%d", g.Cycles)
		}
		if i == 0 {
			reportGMA(b, g)
		}
	}
}

// BenchmarkE2Byteswap4: the 5-cycle optimum with its probe sequence.
func BenchmarkE2Byteswap4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.Byteswap4, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Procs[0].GMAs[0]
		if g.Cycles != 5 || !g.OptimalProven {
			b.Fatalf("cycles=%d optimal=%v", g.Cycles, g.OptimalProven)
		}
		if i == 0 {
			reportGMA(b, g)
		}
	}
}

// BenchmarkE3Byteswap5: Denali strictly beats the conventional baseline.
func BenchmarkE3Byteswap5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.Byteswap5, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Procs[0].GMAs[0]
		base, err := g.Baseline()
		if err != nil {
			b.Fatal(err)
		}
		if g.Cycles >= base.Cycles {
			b.Fatalf("denali %d vs baseline %d", g.Cycles, base.Cycles)
		}
		if i == 0 {
			reportGMA(b, g)
			b.ReportMetric(float64(base.Cycles), "baseline-cycles")
		}
	}
}

// BenchmarkE4Checksum: the Figure 6 program end to end; reports the loop
// body's cycles/instructions (paper: 31 instructions, 10 cycles).
func BenchmarkE4Checksum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.Checksum, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var loop *CompiledGMA
		for _, g := range res.Procs[0].GMAs {
			if strings.HasSuffix(g.Name, "_loop") {
				loop = g
			}
		}
		if loop == nil || loop.Cycles > 8 {
			b.Fatalf("loop = %+v", loop)
		}
		if i == 0 {
			reportGMA(b, loop)
			b.ReportMetric(float64(loop.Instructions)/float64(loop.Cycles), "IPC")
		}
	}
}

// BenchmarkE5BruteForce: the exhaustive-enumeration comparison; reports
// candidates screened per second and the per-length blowup.
func BenchmarkE5BruteForce(b *testing.B) {
	ops := []string{"add64", "sub64", "and64", "bis", "xor64", "sll", "srl"}
	var total int64
	for i := 0; i < b.N; i++ {
		res := brute.Search(func(in []uint64) uint64 { return in[0]*12345 + 999 }, brute.Config{
			Ops: ops, Consts: []uint64{1, 8}, NumInputs: 1, MaxLen: 3, Seed: 5,
			MaxCandidates: 200_000,
		})
		total += res.Candidates
		if i == 0 && len(res.LengthCandidates) >= 2 &&
			res.LengthCandidates[1] < 10*res.LengthCandidates[0] {
			b.Fatalf("expected exponential growth: %v", res.LengthCandidates)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "candidates/op")
}

// BenchmarkE6SumWays: saturation finds >100 computations of a 5-operand
// sum (the paper's associativity/commutativity observation).
func BenchmarkE6SumWays(b *testing.B) {
	axs, err := axioms.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	ways := 0
	for i := 0; i < b.N; i++ {
		g := egraph.New()
		goal := g.AddTerm(term.MustParse("(add64 a (add64 c2 (add64 c (add64 d e))))"))
		if _, err := matcher.Saturate(g, axs, matcher.Options{MaxNodes: 200000, MaxRounds: 30}); err != nil {
			b.Fatal(err)
		}
		ways = g.CountComputations(goal, 100000)
		if ways <= 100 {
			b.Fatalf("only %d ways", ways)
		}
	}
	b.ReportMetric(float64(ways), "ways")
}

// BenchmarkE7RowopLcp2: the additional section 8 programs.
func BenchmarkE7RowopLcp2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, src := range []string{programs.Rowop, programs.Lcp2} {
			res, err := Compile(src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			g := res.Procs[0].GMAs[0]
			base, err := g.Baseline()
			if err != nil {
				b.Fatal(err)
			}
			if g.Cycles > base.Cycles {
				b.Fatalf("%s: denali %d vs baseline %d", g.Name, g.Cycles, base.Cycles)
			}
		}
	}
}

// BenchmarkE8SelectStore: the copy loop, exercising the select-store
// clause and the constant-offset distinction.
func BenchmarkE8SelectStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.CopyLoop, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Procs[0].GMAs[0]
		if g.Cycles != 4 {
			b.Fatalf("copy loop = %d cycles", g.Cycles)
		}
		if i == 0 {
			reportGMA(b, g)
		}
	}
}

// BenchmarkE9ClusterAblation: byteswap4 with and without the cluster
// model.
func BenchmarkE9ClusterAblation(b *testing.B) {
	for _, archName := range []string{"ev6", "ev6-noclusters"} {
		b.Run(archName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Compile(programs.Byteswap4, Options{Arch: archName})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reportGMA(b, res.Procs[0].GMAs[0])
				}
			}
		})
	}
}

// BenchmarkE10ProbeSweep: linear vs binary vs descend vs parallel budget
// search.
func BenchmarkE10ProbeSweep(b *testing.B) {
	for _, mode := range []string{"linear", "binary", "descend", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			probes := 0
			for i := 0; i < b.N; i++ {
				res, err := Compile(programs.Byteswap4, Options{Strategy: mode})
				if err != nil {
					b.Fatal(err)
				}
				g := res.Procs[0].GMAs[0]
				if g.Cycles != 5 {
					b.Fatalf("%s found %d cycles", mode, g.Cycles)
				}
				probes = len(g.Probes)
			}
			b.ReportMetric(float64(probes), "probes")
		})
	}
}

// BenchmarkE11IssueWidth: the issue-width ablation on the 5-operand sum.
func BenchmarkE11IssueWidth(b *testing.B) {
	src := `
(\procdecl sum5 ((a long) (b long) (c long) (d long) (e long)) long
  (:= (\res (+ a (+ b (+ c (+ d e)))))))
`
	want := map[string]int{"ev6-single": 4, "ev6-dual": 3, "ev6": 3}
	for _, archName := range []string{"ev6-single", "ev6-dual", "ev6"} {
		b.Run(archName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Compile(src, Options{Arch: archName})
				if err != nil {
					b.Fatal(err)
				}
				g := res.Procs[0].GMAs[0]
				if g.Cycles != want[archName] {
					b.Fatalf("%s: %d cycles, want %d", archName, g.Cycles, want[archName])
				}
				if i == 0 {
					b.ReportMetric(float64(g.Cycles), "cycles")
				}
			}
		})
	}
}

// BenchmarkE12Verify: compile-and-verify across the whole program corpus
// ("the output of Denali is correct by design").
func BenchmarkE12Verify(b *testing.B) {
	srcs := []string{
		programs.Quickstart, programs.Byteswap4, programs.CopyLoop,
		programs.Lcp2, programs.SumLoop,
	}
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			res, err := Compile(src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, proc := range res.Procs {
				for _, g := range proc.GMAs {
					if err := g.Verify(10, 3); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkE13ParallelCorpus: sequential linear search vs the speculative
// parallel strategy (with parallel multi-GMA compilation) across the
// program corpus. The answers must agree; only the wall clock may differ,
// and only on a multicore host.
func BenchmarkE13ParallelCorpus(b *testing.B) {
	srcs := []string{
		programs.Quickstart, programs.Byteswap4, programs.Byteswap5,
		programs.CopyLoop, programs.Rowop, programs.Lcp2, programs.SumLoop,
	}
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"sequential", Options{}},
		{"parallel-w4", Options{Strategy: "parallel", Workers: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					res, err := Compile(src, cfg.opt)
					if err != nil {
						b.Fatal(err)
					}
					for _, proc := range res.Procs {
						for _, g := range proc.GMAs {
							if g.Cycles == 0 && g.Instructions != 0 {
								b.Fatalf("%s: inconsistent result", g.Name)
							}
						}
					}
				}
			}
		})
	}
}

// BenchmarkAblationAtMostOnce: the pruning-constraint ablation.
func BenchmarkAblationAtMostOnce(b *testing.B) {
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("disabled=%v", disable), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Compile(programs.Byteswap4, Options{DisableAtMostOnce: disable})
				if err != nil {
					b.Fatal(err)
				}
				if res.Procs[0].GMAs[0].Cycles != 5 {
					b.Fatal("wrong cycles")
				}
			}
		})
	}
}

// BenchmarkAblationSaturationBudget: matcher budgets trade completeness
// ("near-optimal") for time.
func BenchmarkAblationSaturationBudget(b *testing.B) {
	for _, nodes := range []int{200, 2000, 50000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := Compile(programs.Byteswap4, Options{MatcherMaxNodes: nodes})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Procs[0].GMAs[0].Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkSATSolver: the solver alone on a structured scheduling-like
// instance (pigeonhole), isolating the NP-complete half of the division
// of labor.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Compile(programs.Byteswap4, Options{})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Procs[0].GMAs[0]
		var conflicts int64
		for _, p := range g.Probes {
			conflicts += p.Conflicts
		}
		if i == 0 {
			b.ReportMetric(float64(conflicts), "conflicts")
			b.ReportMetric(float64(g.SolveTime.Microseconds()), "solve-µs")
		}
	}
}

// BenchmarkMatcherSaturation: the matcher alone on the byteswap goal,
// isolating the undecidable half of the division of labor.
func BenchmarkMatcherSaturation(b *testing.B) {
	axs, err := axioms.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	goal := term.MustParse(
		"(storeb (storeb (storeb (storeb 0 0 (selectb a 3)) 1 (selectb a 2)) 2 (selectb a 1)) 3 (selectb a 0))")
	for i := 0; i < b.N; i++ {
		g := egraph.New()
		g.AddTerm(goal)
		res, err := matcher.Saturate(g, axs, matcher.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Quiescent {
			b.Fatal("not quiescent")
		}
		if i == 0 {
			b.ReportMetric(float64(res.Nodes), "nodes")
			b.ReportMetric(float64(res.Instantiations), "instantiations")
		}
	}
}
