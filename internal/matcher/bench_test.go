package matcher

import (
	"testing"

	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/lang"
	"repro/internal/programs"
)

// BenchmarkSaturate measures the matching phase alone on the paper's
// byteswap4 (Figure 3): a fresh E-graph holding the goal terms,
// saturated with the builtin axioms.
func BenchmarkSaturate(b *testing.B) {
	prog, err := lang.Parse(programs.Byteswap4)
	if err != nil {
		b.Fatal(err)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	gm := prog.Procs[0].GMAs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := egraph.New()
		for _, goal := range gm.Goals() {
			g.AddTerm(goal)
		}
		if _, err := Saturate(g, axs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
