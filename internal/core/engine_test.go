package core

import (
	"testing"

	"repro/internal/gma"
	"repro/internal/obs"
)

// TestEveryProbeOnEngine: every SAT strategy answers every budget on the
// persistent schedule.Engine — a tiny goal (double's 3-node term) as much
// as a large one — with the same optimum, and under Certify the K−1
// refutation is an engine snapshot (the probed selector as its assumed
// unit) that checks. For double that is the K=0 refutation.
func TestEveryProbeOnEngine(t *testing.T) {
	gmas := []struct {
		g      *gma.GMA
		cycles int
	}{
		{simpleGMA("double", []string{"reg7"}, "res", "(mul64 2 reg7)"), 1},
		{simpleGMA("sum5", []string{"a", "b", "c", "d", "e"}, "res",
			"(add64 a (add64 b (add64 c (add64 d e))))"), 3},
	}
	strategies := []struct {
		search  SearchStrategy
		workers int
	}{
		{LinearSearch, 0}, {BinarySearch, 0}, {DescendSearch, 0}, {ParallelSearch, 2},
	}
	for _, tc := range gmas {
		for _, st := range strategies {
			t.Run(tc.g.Name+"-"+st.search.String(), func(t *testing.T) {
				for _, certify := range []bool{false, true} {
					o := opts(t)
					o.Search, o.Workers = st.search, st.workers
					o.Schedule.Certify = certify
					c, err := CompileGMA(tc.g, o)
					if err != nil {
						t.Fatal(err)
					}
					if c.Cycles != tc.cycles || !c.OptimalProven {
						t.Fatalf("certify=%v: %d cycles (optimal=%v), want %d proven\n%s",
							certify, c.Cycles, c.OptimalProven, tc.cycles, c.ProbeSummary())
					}
					if len(c.Probes) == 0 {
						t.Fatal("no probes recorded")
					}
					for _, p := range c.Probes {
						if !p.Incremental {
							t.Fatalf("certify=%v: probe K=%d not on the engine\n%s", certify, p.K, c.ProbeSummary())
						}
					}
					if !certify {
						continue
					}
					if !c.Certified || c.Cert == nil {
						t.Fatalf("certified=%v cert=%v, want a checked K=%d certificate", c.Certified, c.Cert != nil, tc.cycles-1)
					}
					if len(c.Cert.Assumed) != 1 || !c.Cert.Closed {
						t.Errorf("K=%d certificate has %d assumed units (closed=%v), want an engine snapshot with the selector unit",
							tc.cycles-1, len(c.Cert.Assumed), c.Cert.Closed)
					}
					if err := c.Cert.Check(); err != nil {
						t.Errorf("K=%d certificate: %v", tc.cycles-1, err)
					}
				}
			})
		}
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
		o.Trace = obs.New()
		c, err := CompileGMA(g, o)
		if err != nil {
			t.Fatalf("fallback: %v", err)
		}
		if c.Engine != "sat" {
			t.Errorf("memory GMA engine = %q, want sat fallback", c.Engine)
		}
		if root := spanArgs(t, o.Trace, "compile"); len(root) != 1 || root[0]["fallback"] == nil {
			t.Errorf("compile span does not record the fallback reason: %v", root)
		}
		if !c.OptimalProven {
			t.Error("fallback sweep should prove optimality")
		}
	}
	if !found {
		t.Fatal("copyloop_loop not in corpus")
	}
}
