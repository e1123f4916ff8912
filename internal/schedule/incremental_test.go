package schedule

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/matcher"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/term"
)

// buildEngine saturates the GMA's goals and constructs a persistent probe
// engine over the given window.
func buildEngine(t *testing.T, g *gma.GMA, window, maxK int, opt Options) *Engine {
	t.Helper()
	eg := egraph.New()
	for _, goal := range g.Goals() {
		eg.AddTerm(goal)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matcher.Saturate(eg, axs, matcher.Options{}); err != nil {
		t.Fatal(err)
	}
	if opt.Desc == nil {
		opt.Desc = alpha.EV6()
	}
	e, err := NewEngine(eg, g, window, maxK, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// encodeWindows returns the window tag of every encode span in tr, in
// the order the spans started.
func encodeWindows(t *testing.T, tr *obs.Trace) []string {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	var windows []string
	for _, e := range f.TraceEvents {
		if e.Name == "encode" {
			windows = append(windows, e.Args["window"])
		}
	}
	return windows
}

// engineGMAs are small programs with known phase transitions: each needs
// some budgets refuted and some satisfied within maxK cycles.
func engineGMAs() []*gma.GMA {
	return []*gma.GMA{
		simpleGMA("(add64 (add64 a b) c)", "a", "b", "c"),
		simpleGMA("(add64 a 100000)", "a"),
		simpleGMA("(mul64 (add64 a 1) 8)", "a"),
		simpleGMA("0"),
	}
}

// TestEngineMatchesProblem probes every budget 0..maxK on one persistent
// engine and cross-checks each verdict against a from-scratch Problem at
// the same K — the schedule-layer half of the incremental-equivalence
// satellite. The Certify leg repeats the ladder with proof logging on:
// every UNSAT then carries a certificate the independent checker
// accepts, and with Certify off none does.
func TestEngineMatchesProblem(t *testing.T) {
	const maxK = 5
	for _, g := range engineGMAs() {
		g := g
		t.Run(g.Values[0].String(), func(t *testing.T) {
			for _, certify := range []bool{false, true} {
				e := buildEngine(t, g, maxK, maxK, Options{Certify: certify})
				for k := 0; k <= maxK; k++ {
					sched, st, err := e.SolveBudget(k)
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					if !st.Incremental {
						t.Fatalf("k=%d: engine probe not marked Incremental", k)
					}
					if st.Reused != (k > 0) {
						t.Fatalf("k=%d: Reused = %v, want %v", k, st.Reused, k > 0)
					}
					switch {
					case st.Result == sat.Unsat && certify:
						if st.Cert == nil {
							t.Fatalf("k=%d: certified engine UNSAT carries no certificate", k)
						}
						if err := st.Cert.Check(); err != nil {
							t.Fatalf("k=%d: engine certificate rejected: %v", k, err)
						}
					case st.Cert != nil:
						t.Fatalf("k=%d: %v probe (certify=%v) carries a certificate", k, st.Result, certify)
					}
					p := build(t, g, k, Options{})
					wantSched, want, err := p.Solve()
					if err != nil {
						t.Fatalf("k=%d scratch: %v", k, err)
					}
					if st.Result != want.Result {
						t.Fatalf("k=%d: incremental=%v scratch=%v", k, st.Result, want.Result)
					}
					if st.Result == sat.Sat {
						if sched == nil || sched.K != k {
							t.Fatalf("k=%d: bad schedule %+v", k, sched)
						}
						if len(sched.Launches) != len(wantSched.Launches) {
							// Both are valid k-cycle programs; instruction counts
							// can differ only through model choice, and the small
							// fixtures here have a forced instruction count.
							t.Logf("k=%d: incremental %d launches, scratch %d", k,
								len(sched.Launches), len(wantSched.Launches))
						}
						for _, l := range sched.Launches {
							if l.Cycle < 0 || l.Cycle+l.Latency > k {
								t.Fatalf("k=%d: launch %q at cycle %d (latency %d) overflows the budget",
									k, l.Text, l.Cycle, l.Latency)
							}
						}
					}
				}
			}
		})
	}
}

// TestEngineDescendingSweep mirrors core's optimality loop: probe downward
// from maxK and confirm the SAT/UNSAT frontier is monotone and agrees with
// scratch solving at the frontier.
func TestEngineDescendingSweep(t *testing.T) {
	g := simpleGMA("(add64 (add64 a b) c)", "a", "b", "c")
	const maxK = 6
	e := buildEngine(t, g, maxK, maxK, Options{})
	// A depth-2 add chain needs exactly 2 cycles: every k ≥ 2 must be SAT
	// and every k < 2 UNSAT, regardless of probe order.
	for k := maxK; k >= 0; k-- {
		_, st, err := e.SolveBudget(k)
		if err != nil {
			t.Fatal(err)
		}
		want := sat.Sat
		if k < 2 {
			want = sat.Unsat
		}
		if st.Result != want {
			t.Fatalf("k=%d: %v, want %v", k, st.Result, want)
		}
	}
}

// TestEngineWindowGrowth starts with a window too small for the program
// and confirms the engine grows it in place: no re-encode, and the probe
// after the growth still reuses the warm solver. Both encode spans, the
// up-front one and the growth, carry the window they encoded.
func TestEngineWindowGrowth(t *testing.T) {
	g := simpleGMA("(add64 (add64 a b) c)", "a", "b", "c")
	tr := obs.New()
	e := buildEngine(t, g, 1, 8, Options{Trace: tr})
	if e.Window() != 1 {
		t.Fatalf("initial window = %d", e.Window())
	}
	_, st, err := e.SolveBudget(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != sat.Unsat {
		t.Fatalf("k=1 = %v, want UNSAT", st.Result)
	}
	sched, st, err := e.SolveBudget(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != sat.Sat || sched == nil || sched.K != 3 {
		t.Fatalf("k=3 after growth: %v %+v", st.Result, sched)
	}
	if e.Window() != 3 {
		t.Fatalf("window = %d after probing 3, want 3", e.Window())
	}
	if e.Rebuilds() != 0 {
		t.Fatalf("rebuilds = %d, want 0", e.Rebuilds())
	}
	if !st.Reused {
		t.Fatal("the probe after an in-place growth must reuse the solver")
	}
	if got := encodeWindows(t, tr); !slices.Equal(got, []string{"1", "3"}) {
		t.Fatalf("encode span windows = %q, want the up-front 1 and the grown 3", got)
	}
	// Out-of-range probes are rejected, not silently clamped.
	if _, _, err := e.SolveBudget(9); err == nil {
		t.Fatal("budget beyond maxK must error")
	}
	if _, _, err := e.SolveBudget(-1); err == nil {
		t.Fatal("negative budget must error")
	}
}

// TestEngineInterruptClear: a stale Interrupt must be clearable so pooled
// engines don't cancel the wrong probe.
func TestEngineInterruptClear(t *testing.T) {
	g := simpleGMA("(add64 (add64 a b) c)", "a", "b", "c")
	e := buildEngine(t, g, 4, 4, Options{})
	e.Interrupt()
	_, st, err := e.SolveBudget(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != sat.Unknown || !st.Solver.Cancelled {
		t.Fatalf("interrupted probe = %v (cancelled=%v), want Unknown/cancelled", st.Result, st.Solver.Cancelled)
	}
	e.ClearInterrupt()
	_, st, err = e.SolveBudget(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != sat.Sat {
		t.Fatalf("probe after ClearInterrupt = %v, want SAT", st.Result)
	}
}

// TestEngineReleaseReusesTables: an engine built after another engine
// was released fills the released solver tables instead of allocating
// its own, and a released engine cannot be used again.
func TestEngineReleaseReusesTables(t *testing.T) {
	g, gm := saturated(t, programs.Byteswap4, "byteswap4")
	sat.New() // take the tables an earlier test released, so the first ladder allocates its own
	ladder := func() (*Engine, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := byteswap4Ladder(t, g, gm)
		e.Release()
		runtime.ReadMemStats(&after)
		return e, after.TotalAlloc - before.TotalAlloc
	}
	_, first := ladder()
	e, second := ladder()
	if second*3 > first {
		t.Fatalf("a ladder on released tables allocated %d bytes, the first %d; want at most a third", second, first)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SolveBudget on a released engine did not panic")
		}
	}()
	e.SolveBudget(5)
}

// TestEngineGuardAndMemory exercises the layered encoding on a GMA with a
// guard, protected loads, and a store (constraint families 7 and 8).
func TestEngineGuardAndMemory(t *testing.T) {
	g := &gma.GMA{
		Name:         "pm",
		Guard:        term.NewVar("cond"),
		Targets:      []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:       []*term.Term{term.MustParse("(select M p)")},
		Inputs:       []string{"cond", "p"},
		MemoryVars:   []string{"M"},
		ProtectLoads: true,
	}
	const maxK = 5
	e := buildEngine(t, g, maxK, maxK, Options{})
	for k := 0; k <= maxK; k++ {
		_, st, err := e.SolveBudget(k)
		if err != nil {
			t.Fatal(err)
		}
		p := build(t, g, k, Options{})
		_, want, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st.Result != want.Result {
			t.Fatalf("k=%d: incremental=%v scratch=%v", k, st.Result, want.Result)
		}
	}
}

// TestEngineGrowthMatchesProblem grows engines in place and checks every
// answer against a scratch Problem at the same budget: on EV6 and on
// variants whose issue width is narrower than the unit count, so the
// per-cycle issue counters grow too, over GMAs with launches that only
// fit a later window (a 7-cycle multiply, a 12-cycle missed load),
// protected loads, and a load/store pair (the memory anti-dependence
// rows). Each GMA walks three ladders — one cycle per probe from a
// 1-cycle window, uneven jumps, and a descent after one jump from a
// 2-cycle window, which re-asks the old top budget once the window has
// grown past it. With Certify on, every refutation carries a
// certificate that checks, unless a larger budget was refuted earlier
// on the same engine; then it carries none.
func TestEngineGrowthMatchesProblem(t *testing.T) {
	narrow := func(w int) *arch.Description {
		d := alpha.EV6().Clone()
		d.Name = fmt.Sprintf("EV6 issue %d", w)
		d.IssueWidth = w
		return d
	}
	descs := []*arch.Description{alpha.EV6(), narrow(2), narrow(3), alpha.SingleIssue()}
	loadStore := &gma.GMA{
		Name:       "loadstore",
		Guard:      term.MustParse("(cmplt p x)"),
		Targets:    []gma.Target{{Kind: gma.Reg, Name: "r"}, {Kind: gma.Memory, Name: "M"}},
		Values:     []*term.Term{term.MustParse("(add64 (select M p) 1)"), term.MustParse("(store M p x)")},
		Inputs:     []string{"p", "x"},
		MemoryVars: []string{"M"},
	}
	missLoad := &gma.GMA{
		Name:       "miss",
		Targets:    []gma.Target{{Kind: gma.Reg, Name: "r"}},
		Values:     []*term.Term{term.MustParse("(add64 (select M p) q)")},
		Inputs:     []string{"p", "q"},
		MemoryVars: []string{"M"},
		MissAddrs:  []*term.Term{term.MustParse("p")},
	}
	protected := &gma.GMA{
		Name:         "pm",
		Guard:        term.NewVar("cond"),
		Targets:      []gma.Target{{Kind: gma.Reg, Name: "res"}},
		Values:       []*term.Term{term.MustParse("(select M p)")},
		Inputs:       []string{"cond", "p"},
		MemoryVars:   []string{"M"},
		ProtectLoads: true,
	}
	gmas := append(engineGMAs(), simpleGMA("(add64 (mul64 a b) c)", "a", "b", "c"), loadStore, missLoad, protected)
	const maxK = 14
	type ladder struct {
		window int
		probes []int
	}
	ladders := []ladder{{1, nil}, {1, []int{0, 2, 5, 6, 10, 14}}, {2, []int{0, 9, 8, 7, 6, 5, 4, 3, 2, 1}}}
	for k := 0; k <= maxK; k++ {
		ladders[0].probes = append(ladders[0].probes, k)
	}
	for _, d := range descs {
		for _, g := range gmas {
			for li, l := range ladders {
				e := buildEngine(t, g, l.window, maxK, Options{Desc: d, Certify: true})
				maxRefuted := -1
				for _, k := range l.probes {
					where := fmt.Sprintf("%s/%s ladder %d k=%d", d.Name, g.Values[0], li, k)
					_, st, err := e.SolveBudget(k)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if want := max(l.window, k); e.Window() < want {
						t.Fatalf("%s: window %d, want at least %d", where, e.Window(), want)
					}
					_, want, err := build(t, g, k, Options{Desc: d}).Solve()
					if err != nil {
						t.Fatal(err)
					}
					if st.Result != want.Result {
						t.Fatalf("%s: grown engine %v, scratch %v", where, st.Result, want.Result)
					}
					if st.Result == sat.Sat {
						// selVar[k] switches off every cycle-end from k on, in
						// the grown cycles and at the old window's top alike.
						for i := k; i < len(e.p.eVar); i++ {
							if e.p.solver.Value(e.p.eVar[i]) {
								t.Fatalf("%s: cycle-end %d enabled in a %d-cycle model", where, i, k)
							}
						}
					}
					if st.Result != sat.Unsat {
						continue
					}
					switch {
					case k > maxRefuted && st.Cert == nil:
						t.Fatalf("%s: UNSAT without a certificate", where)
					case k > maxRefuted:
						if err := st.Cert.Check(); err != nil {
							t.Fatalf("%s: certificate rejected: %v", where, err)
						}
					case st.Cert != nil:
						t.Fatalf("%s: certificate despite the earlier refutation of %d", where, maxRefuted)
					}
					maxRefuted = max(maxRefuted, k)
				}
			}
		}
	}
}

// TestEngineGrowthKeepsGroupsExclusive checks the cardinality groups
// across a window extension directly: after an engine grows from one
// cycle to nine, no two launches sharing a (cycle, unit) slot, and no
// two launches of one machine term, may both be on — whether each
// existed in the first window or joined with the extension (a multiply
// launched at cycle 0, say, joins its slot's group only once its
// completion fits) — and on a machine issuing two of its four units'
// launches per cycle, no three launches of one cycle may be on.
func TestEngineGrowthKeepsGroupsExclusive(t *testing.T) {
	narrow := alpha.EV6().Clone()
	narrow.Name = "EV6 issue 2"
	narrow.IssueWidth = 2
	g := simpleGMA("(add64 (mul64 a b) (add64 c d))", "a", "b", "c", "d")
	for _, d := range []*arch.Description{alpha.EV6(), narrow} {
		e := buildEngine(t, g, 1, 12, Options{Desc: d})
		if _, _, err := e.SolveBudget(9); err != nil {
			t.Fatal(err)
		}
		p := e.p
		type launch struct{ mi, i, u, v int }
		var ls []launch
		byCycle := map[int][]launch{}
		for mi, mt := range p.terms {
			for i := 0; i+mt.latency <= p.K; i++ {
				for _, u := range mt.op.Units {
					l := launch{mi, i, int(u), p.launchVar(mi, i, u)}
					ls = append(ls, l)
					byCycle[i] = append(byCycle[i], l)
				}
			}
		}
		unsat := func(vs ...int) bool {
			assumps := make([]sat.Lit, len(vs))
			for i, v := range vs {
				assumps[i] = sat.Pos(v)
			}
			return p.solver.Solve(assumps...) == sat.Unsat
		}
		crossed := 0
		for x, a := range ls {
			for _, b := range ls[x+1:] {
				sameSlot := a.i == b.i && a.u == b.u
				if !sameSlot && a.mi != b.mi {
					continue
				}
				if (a.i+p.terms[a.mi].latency <= 1) != (b.i+p.terms[b.mi].latency <= 1) {
					crossed++
				}
				if !unsat(a.v, b.v) {
					t.Fatalf("%s: launches %+v and %+v can both be on", d.Name, a, b)
				}
			}
		}
		if crossed == 0 {
			t.Fatalf("%s: no group mixes first-window and extension launches", d.Name)
		}
		if d.IssueWidth >= len(d.Units) {
			continue
		}
		triples := 0
		for i, cyc := range byCycle {
			// A few triples per cycle, each on three distinct units and
			// terms, so only the issue width can forbid them.
			checked := 0
			for x := 0; x < len(cyc) && checked < 16; x++ {
				for y := x + 1; y < len(cyc) && checked < 16; y++ {
					for z := y + 1; z < len(cyc) && checked < 16; z++ {
						a, b, c := cyc[x], cyc[y], cyc[z]
						if a.u == b.u || b.u == c.u || a.u == c.u || a.mi == b.mi || b.mi == c.mi || a.mi == c.mi {
							continue
						}
						checked++
						if !unsat(a.v, b.v, c.v) {
							t.Fatalf("%s: three launches at cycle %d on a 2-issue machine: %+v %+v %+v", d.Name, i, a, b, c)
						}
					}
				}
			}
			triples += checked
		}
		if triples == 0 {
			t.Fatalf("%s: no launch triple to check", d.Name)
		}
	}
}
