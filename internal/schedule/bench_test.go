package schedule

import (
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/lang"
	"repro/internal/matcher"
	"repro/internal/programs"
)

// saturated parses src, picks the GMA named name and saturates its goals
// with the builtin axioms plus the program's own.
func saturated(b *testing.B, src, name string) (*egraph.Graph, *gma.GMA) {
	b.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	axs = append(axs, prog.Axioms...)
	for _, proc := range prog.Procs {
		for _, gm := range proc.GMAs {
			if gm.Name != name {
				continue
			}
			g := egraph.New()
			for _, goal := range gm.Goals() {
				g.AddTerm(goal)
			}
			if _, err := matcher.Saturate(g, axs, matcher.Options{}); err != nil {
				b.Fatal(err)
			}
			return g, gm
		}
	}
	b.Fatalf("no GMA %q", name)
	return nil, nil
}

// BenchmarkEncode measures constraint generation alone, with no solving:
// the persistent engine's up-front window encode for byteswap5 (window 7,
// the linear search's first window) and the from-scratch problem for
// checksum_loop at its 5-cycle optimum.
func BenchmarkEncode(b *testing.B) {
	opt := Options{Desc: alpha.EV6()}
	b.Run("byteswap5-engine", func(b *testing.B) {
		g, gm := saturated(b, programs.Byteswap5, "byteswap5")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewEngine(g, gm, 7, 24, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checksum_loop-K5", func(b *testing.B) {
		g, gm := saturated(b, programs.Checksum, "checksum_loop")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewProblem(g, gm, 5, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
