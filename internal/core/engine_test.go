package core

import (
	"testing"
)

// TestAdaptiveScratch pins the adaptive probe-mode pick: tiny goals run
// from-scratch probes (the persistent engine's window encode costs more
// than the clause reuse it buys on a two-probe sweep) and large goals
// keep the incremental engine, under the sequential ladder and the
// parallel speculator alike.
func TestAdaptiveScratch(t *testing.T) {
	small := simpleGMA("double", []string{"reg7"}, "res", "(mul64 2 reg7)")
	large := simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
		"(add64 a (add64 b (add64 c (add64 d e))))")
	if !PrefersScratch(small) {
		t.Error("PrefersScratch(double) = false, want true")
	}
	if PrefersScratch(large) {
		t.Error("PrefersScratch(sum5) = true, want false")
	}
	parallel := func(o *Options) { o.Search = ParallelSearch; o.Workers = 2 }
	cases := []struct {
		name            string
		configure       func(*Options)
		gma             string
		wantIncremental bool
	}{
		{"small-default-scratch", func(o *Options) {}, "small", false},
		{"large-default-incremental", func(o *Options) {}, "large", true},
		{"small-parallel-scratch", parallel, "small", false},
		{"large-parallel-incremental", parallel, "large", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := small
			if tc.gma == "large" {
				g = large
			}
			o := opts(t)
			tc.configure(&o)
			c, err := CompileGMA(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Probes) == 0 {
				t.Fatal("no probes recorded")
			}
			for _, p := range c.Probes {
				if p.Incremental != tc.wantIncremental {
					t.Fatalf("probe K=%d incremental=%v, want %v\n%s",
						p.K, p.Incremental, tc.wantIncremental, c.ProbeSummary())
				}
			}
		})
	}
}

// TestPortfolioGolden is the portfolio acceptance bar: racing the
// stochastic engine against the SAT descend sweep must stay answer- and
// proof-equivalent to descend alone on the whole corpus — same cycle
// count, same OptimalProven verdict, certification intact — whichever
// racer happens to win each GMA.
func TestPortfolioGolden(t *testing.T) {
	for _, g := range corpusGMAs(t) {
		od := opts(t)
		od.Search = DescendSearch
		od.Schedule.Certify = true
		desc, err := CompileGMA(g, od)
		if err != nil {
			t.Fatalf("%s: descend: %v", g.Name, err)
		}
		op := opts(t)
		op.Search = PortfolioSearch
		op.Seed = 7
		op.Schedule.Certify = true
		port, err := CompileGMA(g, op)
		if err != nil {
			t.Fatalf("%s: portfolio: %v", g.Name, err)
		}
		if port.Cycles != desc.Cycles {
			t.Errorf("%s: portfolio %d cycles, descend %d", g.Name, port.Cycles, desc.Cycles)
		}
		if port.OptimalProven != desc.OptimalProven {
			t.Errorf("%s: portfolio optimal=%v, descend %v", g.Name, port.OptimalProven, desc.OptimalProven)
		}
		if desc.Certified && !port.Certified {
			t.Errorf("%s: descend certified but portfolio did not", g.Name)
		}
		switch port.Engine {
		case "sat", "stochastic":
		default:
			t.Errorf("%s: portfolio engine label = %q, want sat or stochastic", g.Name, port.Engine)
		}
		if port.Schedule == nil {
			t.Errorf("%s: portfolio returned no schedule", g.Name)
		}
	}
}

// TestPortfolioDeterministic: with a pinned seed the portfolio's answer
// (cycles and optimality, not wall-clock or win attribution) must be
// stable across runs.
func TestPortfolioDeterministic(t *testing.T) {
	g := simpleGMA("bs4", []string{"a"}, "res",
		"(storeb (storeb (storeb (storeb 0 0 (selectb a 3)) 1 (selectb a 2)) 2 (selectb a 1)) 3 (selectb a 0))")
	var cycles []int
	for i := 0; i < 2; i++ {
		o := opts(t)
		o.Search = PortfolioSearch
		o.Seed = 42
		c, err := CompileGMA(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !c.OptimalProven {
			t.Errorf("run %d: portfolio did not prove optimality", i)
		}
		cycles = append(cycles, c.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("same seed, different answers: %v", cycles)
	}
}

// TestStochasticEngine: the pure stochastic strategy returns a verified
// feasible schedule without claiming optimality, records its engine
// label, and falls back to the SAT sweep on memory shapes it cannot
// search.
func TestStochasticEngine(t *testing.T) {
	g := simpleGMA("s4", []string{"reg6"}, "res", "(add64 (mul64 reg6 4) 1)")
	o := opts(t)
	o.Search = StochasticSearch
	o.Seed = 1
	c, err := CompileGMA(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "stochastic" {
		t.Errorf("engine = %q, want stochastic", c.Engine)
	}
	if c.OptimalProven {
		t.Error("stochastic search claimed OptimalProven")
	}
	if c.Schedule == nil || c.Cycles < 1 {
		t.Fatalf("no usable schedule (cycles=%d)", c.Cycles)
	}
	if c.Stochastic == nil || c.Stochastic.Verified == 0 {
		t.Error("no stochastic verification statistics recorded")
	}

	// Memory shape: falls back to the proving SAT sweep.
	mem := corpusGMAs(t)
	found := false
	for _, g := range mem {
		if g.Name != "copyloop_loop" {
			continue
		}
		found = true
		o := opts(t)
		o.Search = StochasticSearch
		c, err := CompileGMA(g, o)
		if err != nil {
			t.Fatalf("fallback: %v", err)
		}
		if c.Engine != "sat" {
			t.Errorf("memory GMA engine = %q, want sat fallback", c.Engine)
		}
		if !c.OptimalProven {
			t.Error("fallback sweep should prove optimality")
		}
	}
	if !found {
		t.Fatal("copyloop_loop not in corpus")
	}
}
