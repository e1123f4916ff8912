package matcher

import (
	"testing"

	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/lang"
	"repro/internal/programs"
	"repro/internal/term"
)

// BenchmarkSaturate measures the matching phase alone: a fresh E-graph
// holding the goal terms, saturated with the builtin axioms.
//   - byteswap4 is the paper's Figure 3.
//   - sum6 is a right-nested 6-operand sum, the kernels shape with the
//     most matching: 2,100 matches of one axiom in one round and 4,874
//     instantiations.
func BenchmarkSaturate(b *testing.B) {
	prog, err := lang.Parse(programs.Byteswap4)
	if err != nil {
		b.Fatal(err)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		goals []*term.Term
	}{
		{"byteswap4", prog.Procs[0].GMAs[0].Goals()},
		{"sum6", []*term.Term{term.MustParse("(add64 a (add64 b (add64 c (add64 d (add64 e f)))))")}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := egraph.New()
				for _, goal := range bc.goals {
					g.AddTerm(goal)
				}
				if _, err := Saturate(g, axs, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
