package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/gma"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/sat"
)

// corpusGMAs collects every GMA of the example-program corpus plus a few
// hand-built ones, the shared input of the strategy-equivalence tests.
func corpusGMAs(t *testing.T) []*gma.GMA {
	t.Helper()
	var out []*gma.GMA
	for _, src := range []string{
		programs.Quickstart, programs.Byteswap4, programs.CopyLoop,
		programs.Rowop, programs.Lcp2, programs.SumLoop,
	} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, proc := range prog.Procs {
			out = append(out, proc.GMAs...)
		}
	}
	out = append(out,
		simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
			"(add64 a (add64 b (add64 c (add64 d e))))"),
		simpleGMA("free", []string{"a"}, "res", "(add64 a 0)"),
		simpleGMA("konst", nil, "res", "300"),
	)
	return out
}

// TestStrategyEquivalence: linear, binary, descend and parallel search must
// agree on Cycles and OptimalProven for the whole corpus when probes are
// unbounded (no probe can time out, so there is no tolerance to grant).
func TestStrategyEquivalence(t *testing.T) {
	for _, g := range corpusGMAs(t) {
		o := opts(t)
		lin, err := CompileGMA(g, o)
		if err != nil {
			t.Fatalf("%s: linear: %v", g.Name, err)
		}
		for _, s := range []struct {
			name string
			set  func(*Options)
		}{
			{"binary", func(o *Options) { o.Search = BinarySearch }},
			{"descend", func(o *Options) { o.Search = DescendSearch }},
			{"parallel", func(o *Options) { o.Search = ParallelSearch; o.Workers = 4 }},
		} {
			o := opts(t)
			s.set(&o)
			c, err := CompileGMA(g, o)
			if err != nil {
				t.Fatalf("%s: %s: %v", g.Name, s.name, err)
			}
			if c.Cycles != lin.Cycles {
				t.Errorf("%s: %s found %d cycles, linear %d", g.Name, s.name, c.Cycles, lin.Cycles)
			}
			if c.OptimalProven != lin.OptimalProven {
				t.Errorf("%s: %s optimal=%v, linear %v", g.Name, s.name, c.OptimalProven, lin.OptimalProven)
			}
		}
	}
}

// TestParallelTimeoutTolerance pins down the explicit tolerance granted
// under a MaxConflicts probe budget. Timeouts are NOT deterministic across
// strategies (the CNF's variable order depends on map iteration and, for
// linear, on e-graph state mutated by earlier probes), so near the budget
// boundary both searches degrade to anytime algorithms: either may fail
// where the other succeeds, and unproven cycle counts are upper bounds
// that may differ. What must still hold, because every SAT answer is a
// real schedule and every UNSAT refutation is sound:
//
//   - a failure is exactly ErrNoSchedule, never a wrong answer;
//   - a proven-optimal result is THE optimum, so it lower-bounds any
//     feasible cycle count the other strategy reports;
//   - a timed-out probe is visible as a non-cancelled Unknown that really
//     spent its conflict budget.
func TestParallelTimeoutTolerance(t *testing.T) {
	g := simpleGMA("bs4", []string{"a"}, "res",
		"(storeb (storeb (storeb (storeb 0 0 (selectb a 3)) 1 (selectb a 2)) 2 (selectb a 1)) 3 (selectb a 0))")
	for _, maxConf := range []int64{1, 5, 50} {
		o := opts(t)
		o.Schedule.MaxConflicts = maxConf
		lin, lerr := CompileGMA(g, o)
		op := opts(t)
		op.Schedule.MaxConflicts = maxConf
		op.Search = ParallelSearch
		op.Workers = 4
		par, perr := CompileGMA(g, op)
		if lerr != nil && !errors.Is(lerr, ErrNoSchedule) {
			t.Fatalf("maxConflicts=%d: linear err=%v", maxConf, lerr)
		}
		if perr != nil && !errors.Is(perr, ErrNoSchedule) {
			t.Fatalf("maxConflicts=%d: parallel err=%v", maxConf, perr)
		}
		if lerr == nil && perr == nil {
			if lin.OptimalProven && lin.Cycles > par.Cycles {
				t.Errorf("maxConflicts=%d: linear proved %d optimal but parallel found %d",
					maxConf, lin.Cycles, par.Cycles)
			}
			if par.OptimalProven && par.Cycles > lin.Cycles {
				t.Errorf("maxConflicts=%d: parallel proved %d optimal but linear found %d",
					maxConf, par.Cycles, lin.Cycles)
			}
			if lin.OptimalProven && par.OptimalProven && lin.Cycles != par.Cycles {
				t.Errorf("maxConflicts=%d: two proven optima disagree: linear %d, parallel %d",
					maxConf, lin.Cycles, par.Cycles)
			}
		}
		if perr != nil {
			continue
		}
		// A timed-out probe must be visible as a non-cancelled Unknown.
		for _, p := range par.Probes {
			if p.Result == sat.Unknown && !p.Solver.Cancelled && p.Solver.Conflicts < maxConf {
				t.Errorf("maxConflicts=%d: K=%d Unknown with only %d conflicts", maxConf, p.K, p.Solver.Conflicts)
			}
		}
	}
}

// TestParallelSearchStress drives the worker pool hard (run under -race by
// the tier-1 gate): many GMAs, Workers=8, shared trace, repeated. Every
// launched probe must complete and be counted in its compile's Probes:
// each budget once, and one detached span per probe in the trace.
func TestParallelSearchStress(t *testing.T) {
	gmas := corpusGMAs(t)
	tr := obs.New()
	probes := 0
	for round := 0; round < 3; round++ {
		for _, g := range gmas {
			o := opts(t)
			o.Search = ParallelSearch
			o.Workers = 8
			o.Trace = tr
			c, err := CompileGMA(g, o)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, g.Name, err)
			}
			if c.Schedule == nil {
				t.Fatalf("round %d %s: nil schedule", round, g.Name)
			}
			seen := map[int]bool{}
			for _, p := range c.Probes {
				if seen[p.K] {
					t.Errorf("round %d %s: budget %d counted twice", round, g.Name, p.K)
				}
				seen[p.K] = true
			}
			probes += len(c.Probes)
		}
	}
	if probes == 0 {
		t.Fatal("no speculative probes recorded")
	}
	if spans := spanArgs(t, tr, "probe K="); len(spans) != probes {
		t.Errorf("probe spans=%d counted probes=%d: every launched probe should complete and be counted",
			len(spans), probes)
	}
}

// TestParallelObs: the compile must count every speculative probe, and
// the trace must show one detached span per probe tagged with
// cancelled-vs-completed.
func TestParallelObs(t *testing.T) {
	tr := obs.New()
	o := opts(t)
	o.Search = ParallelSearch
	o.Workers = 6
	o.Trace = tr
	g := simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
		"(add64 a (add64 b (add64 c (add64 d e))))")
	c, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Probes) < 4 {
		t.Errorf("probes = %d, want >= 4 (budgets 0..3 at least)", len(c.Probes))
	}
	// With 6 workers and a 3-cycle optimum, budgets 4 and 5 were launched
	// speculatively and must be accounted as cancelled or superseded.
	cancelled, superseded := 0, 0
	for _, p := range c.Probes {
		if p.Solver.Cancelled {
			cancelled++
		} else if p.Result == sat.Sat && p.K > c.Cycles {
			superseded++
		}
	}
	if cancelled+superseded == 0 {
		t.Error("no speculation accounting: expected cancelled or superseded probes")
	}
	spans := spanArgs(t, tr, "probe K=")
	if len(spans) != len(c.Probes) {
		t.Errorf("%d probe spans for %d probes", len(spans), len(c.Probes))
	}
	tagged := 0
	for _, args := range spans {
		if args["cancelled"] == "true" {
			tagged++
		}
	}
	if tagged != cancelled {
		t.Errorf("%d probe spans tagged cancelled, %d probes cancelled", tagged, cancelled)
	}
}

// spanArgs returns the tags of every span in tr's Chrome export whose
// name starts with prefix, in start order.
func spanArgs(t *testing.T, tr *obs.Trace, prefix string) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && strings.HasPrefix(e.Name, prefix) {
			spans = append(spans, e.Args)
		}
	}
	return spans
}

// TestParallelNoSchedule: an unreachable bound must yield ErrNoSchedule,
// same as the sequential strategies.
func TestParallelNoSchedule(t *testing.T) {
	g := simpleGMA("mul", []string{"a", "b"}, "res", "(mul64 a b)")
	o := opts(t)
	o.Search = ParallelSearch
	o.Workers = 4
	o.MaxCycles = 2 // mulq latency is 7
	_, err := CompileGMA(g, o)
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
}
