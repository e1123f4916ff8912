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
	"repro/internal/sat"
)

// saturated parses src, picks the GMA named name and saturates its goals
// with the builtin axioms plus the program's own.
func saturated(tb testing.TB, src, name string) (*egraph.Graph, *gma.GMA) {
	tb.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		tb.Fatal(err)
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
				tb.Fatal(err)
			}
			return g, gm
		}
	}
	tb.Fatalf("no GMA %q", name)
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

// byteswap4Ladder probes byteswap4's budgets 0…5 on one engine with
// linear search's window, 7 cycles: five refutations, then the 5-cycle
// optimum.
func byteswap4Ladder(tb testing.TB, g *egraph.Graph, gm *gma.GMA) *Engine {
	tb.Helper()
	e, err := NewEngine(g, gm, 7, 24, Options{Desc: alpha.EV6()})
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k <= 5; k++ {
		_, st, err := e.SolveBudget(k)
		if err != nil {
			tb.Fatal(err)
		}
		if want := k == 5; (st.Result == sat.Sat) != want {
			tb.Fatalf("byteswap4 K=%d: %v", k, st.Result)
		}
	}
	return e
}

// BenchmarkEngineLadder measures byteswap4's ladder, encode included,
// on solver tables allocated afresh for every engine and on tables the
// previous engine released.
func BenchmarkEngineLadder(b *testing.B) {
	g, gm := saturated(b, programs.Byteswap4, "byteswap4")
	for _, release := range []bool{false, true} {
		name := "fresh"
		if release {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			if release {
				// Park a set, so the first timed ladder recycles too.
				byteswap4Ladder(b, g, gm).Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := byteswap4Ladder(b, g, gm)
				if release {
					e.Release()
				}
			}
		})
	}
}

// BenchmarkRefute measures the refutations behind checksum_loop's
// certified optimum, the costliest SAT work of the certified corpus:
// linear search's ladder K = 0…4 on one engine with its 7-cycle window,
// every probe refuted. Encoding and Release are outside the timer, so
// the time is the search's alone; conflicts/op reports its size.
func BenchmarkRefute(b *testing.B) {
	b.Run("checksum_loop", func(b *testing.B) {
		g, gm := saturated(b, programs.Checksum, "checksum_loop")
		var conflicts int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := NewEngine(g, gm, 7, 24, Options{Desc: alpha.EV6()})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for k := 0; k <= 4; k++ {
				_, st, err := e.SolveBudget(k)
				if err != nil {
					b.Fatal(err)
				}
				if st.Result != sat.Unsat {
					b.Fatalf("checksum_loop K=%d: %v", k, st.Result)
				}
				conflicts += st.Solver.Conflicts
			}
			b.StopTimer()
			e.Release()
			b.StartTimer()
		}
		b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	})
}
