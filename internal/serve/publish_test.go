package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/compilecache"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/programs"
)

// recordCounters derives, independently of publish, the value every
// record-derived /metrics counter and histogram count must hold after the
// ring's reports were filed: sums over the fresh GMA rows, keyed like
// Prometheus samples.
func recordCounters(reps []flight.Report) map[string]float64 {
	want := map[string]float64{}
	add := func(key string, v float64) { want[key] += v }
	for _, rep := range reps {
		strategy := fmt.Sprintf("{strategy=%q}", rep.Strategy)
		for _, g := range rep.GMAs {
			if g.CacheHit || g.Coalesced {
				continue
			}
			if g.Error != "" {
				add("denali_compile_errors_total", 1)
			} else {
				add("denali_compiles_total"+strategy, 1)
				add("denali_cycles_found_count", 1)
			}
			if g.Panic {
				continue
			}
			add("denali_compile_seconds_count"+strategy, 1)
			if g.EGraphNodes > 0 {
				add("denali_match_seconds_count", 1)
				add("denali_egraph_nodes_count", 1)
			}
			cancelled, wasted := 0, 0
			for _, p := range g.Probes {
				result := fmt.Sprintf("{result=%q}", p.Result)
				add("denali_sat_probes_total"+result, 1)
				add("denali_sat_conflicts_total", float64(p.Conflicts))
				add("denali_sat_decisions_total", float64(p.Decisions))
				add("denali_sat_propagations_total", float64(p.Propagations))
				add("denali_sat_restarts_total", float64(p.Restarts))
				add("denali_sat_learned_total", float64(p.Learned))
				add("denali_sat_solve_seconds_count"+result, 1)
				add("denali_sat_conflicts_count", 1)
				add("denali_probe_conflicts_count"+result, 1)
				if p.Reused {
					add("denali_probe_incremental_reused_total", 1)
				}
				if p.Cancelled {
					cancelled++
				}
				if p.Cancelled || (p.Result == "SAT" && p.K > g.Cycles) {
					wasted++
				}
			}
			// Speculation counters start a series only once something was
			// cancelled or wasted, as the search itself counted them.
			if rep.Strategy == "parallel" {
				add("denali_parallel_probes_launched_total", float64(len(g.Probes)))
				if cancelled > 0 {
					add("denali_parallel_probes_cancelled_total", float64(cancelled))
				}
				if wasted > 0 {
					add("denali_probe_waste_total"+strategy, float64(wasted))
				}
			}
			if g.CertifyResult != "" {
				add(fmt.Sprintf("denali_certify_total{result=%q}", g.CertifyResult), 1)
			}
			if g.CertifyResult == "ok" || g.CertifyResult == "failed" {
				add("denali_certify_seconds_count", 1)
				add("denali_certify_proof_steps_count", 1)
			}
			if g.StokeSteps > 0 {
				add("denali_stoke_steps_total", float64(g.StokeSteps))
				add("denali_stoke_verified_total", float64(g.StokeVerified))
				add("denali_stoke_rejects_total", float64(g.StokeRejects))
			}
		}
	}
	return want
}

// recordFamilies are the metric families publish derives from the
// record, the ones recordCounters accounts for.
var recordFamilies = []string{
	"denali_compiles_total", "denali_compile_errors_total",
	"denali_compile_seconds_count", "denali_match_seconds_count",
	"denali_egraph_nodes_count", "denali_cycles_found_count",
	"denali_sat_probes_total", "denali_sat_conflicts_total",
	"denali_sat_decisions_total", "denali_sat_propagations_total",
	"denali_sat_restarts_total", "denali_sat_learned_total",
	"denali_sat_solve_seconds_count", "denali_sat_conflicts_count",
	"denali_probe_conflicts_count", "denali_probe_incremental_reused_total",
	"denali_parallel_probes_launched_total", "denali_parallel_probes_cancelled_total",
	"denali_probe_waste_total", "denali_certify_total",
	"denali_certify_seconds_count", "denali_certify_proof_steps_count",
	"denali_stoke_steps_total", "denali_stoke_verified_total", "denali_stoke_rejects_total",
}

// recordSamples keeps the scraped samples of the record-derived families.
func recordSamples(samples map[string]float64) map[string]float64 {
	got := map[string]float64{}
	for key, v := range samples {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		for _, f := range recordFamilies {
			if name == f {
				got[key] = v
			}
		}
	}
	return got
}

// TestServeMetricsFromRecords: over a mixed request stream (certify,
// verify, parallel, stochastic, a compile with no schedule, a cache hit)
// every record-derived /metrics series equals the sum over the fresh GMA
// rows of the filed reports, the verify counters count the verified
// trials, and the cache hit adds nothing.
func TestServeMetricsFromRecords(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Options: repro.Options{Arch: "ev6"},
		Cache:   compilecache.New(compilecache.Config{MaxEntries: 64}),
	})
	yes := true
	seed := uint64(7)
	mix := []struct {
		req  CompileRequest
		code int
	}{
		{CompileRequest{Source: programs.Quickstart, Certify: &yes, Verify: 4}, http.StatusOK},
		{CompileRequest{Source: programs.Byteswap4, Certify: &yes}, http.StatusOK},
		{CompileRequest{Source: programs.Byteswap4, Strategy: "parallel", Workers: 1, Verify: 4}, http.StatusOK},
		{CompileRequest{Source: programs.Quickstart, Strategy: "stochastic", Seed: &seed}, http.StatusOK},
		{CompileRequest{Source: programs.Byteswap4, Strategy: "binary", MaxCycles: 2}, http.StatusUnprocessableEntity},
	}
	var trials, simCycles, simInstrs float64
	for _, m := range mix {
		resp, raw := postCompile(t, ts.URL, m.req)
		if resp.StatusCode != m.code {
			t.Fatalf("%+v: status %d, want %d: %s", m.req, resp.StatusCode, m.code, raw)
		}
		if m.code != http.StatusOK || m.req.Verify == 0 {
			continue
		}
		var out CompileResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		for _, p := range out.Procs {
			for _, g := range p.GMAs {
				n := float64(m.req.Verify)
				trials += n
				simCycles += n * float64(g.Cycles)
				simInstrs += n * float64(g.Instructions)
			}
		}
	}

	want := recordCounters(s.ring.Last(0))
	got := recordSamples(scrapeMetrics(t, ts.URL))
	for _, key := range []string{
		`denali_compile_errors_total`, `denali_certify_total{result="ok"}`,
		`denali_parallel_probes_launched_total`, `denali_stoke_steps_total`,
		`denali_probe_incremental_reused_total`,
	} {
		if want[key] == 0 {
			t.Errorf("the request mix exercised no %s", key)
		}
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("%s = %v, want %v from the filed records", key, got[key], v)
		}
	}
	for key, v := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s = %v, but no filed record accounts for it", key, v)
		}
	}
	samples := scrapeMetrics(t, ts.URL)
	for key, v := range map[string]float64{
		"denali_verify_trials_total":    trials,
		"denali_sim_cycles_total":       simCycles,
		"denali_sim_instructions_total": simInstrs,
	} {
		if samples[key] != v {
			t.Errorf("%s = %v, want %v", key, samples[key], v)
		}
	}

	// A cache hit replays the origin's record and adds nothing.
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Byteswap4, Certify: &yes})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Denali-Cache") != "hit" {
		t.Fatalf("repeat compile: status %d, cache %q: %s", resp.StatusCode, resp.Header.Get("X-Denali-Cache"), raw)
	}
	after := recordSamples(scrapeMetrics(t, ts.URL))
	for key, v := range got {
		if after[key] != v {
			t.Errorf("cache hit moved %s: %v -> %v", key, v, after[key])
		}
	}
	if len(after) != len(got) {
		t.Errorf("cache hit created series: %d -> %d", len(got), len(after))
	}
}

// TestPublishPanicAndCachedRows: a panicking compile counts once as an
// error and never as a finished compile; cache-hit and coalesced rows
// replay an origin compile and publish nothing.
func TestPublishPanicAndCachedRows(t *testing.T) {
	s := New(Config{})
	origin := flight.GMAReport{
		Name: "g", Cycles: 3, EGraphNodes: 9, CompileMillis: 2,
		Probes: []flight.ProbeRow{{K: 2, Result: "UNSAT", Conflicts: 4}, {K: 3, Result: "SAT"}},
	}
	hit, coalesced := origin, origin
	hit.CacheHit, coalesced.Coalesced = true, true
	s.publish(flight.Report{Strategy: "linear", GMAs: []flight.GMAReport{
		{Name: "boom", Error: "internal panic compiling boom: nil axiom", Panic: true},
		hit, coalesced,
	}})
	reg := s.Registry()
	if n := reg.CounterValue(obs.MCompileErrors); n != 1 {
		t.Errorf("%s = %v after one panic, want 1", obs.MCompileErrors, n)
	}
	if n := reg.CounterValue(obs.MCompiles, obs.T("strategy", "linear")); n != 0 {
		t.Errorf("%s = %v, want 0: neither a panic nor a replay is a compile", obs.MCompiles, n)
	}
	if h := reg.Histogram(obs.MCompileSeconds, obs.T("strategy", "linear")); h.Count != 0 {
		t.Errorf("%s observed %d compiles, want 0", obs.MCompileSeconds, h.Count)
	}
	for _, result := range []string{"SAT", "UNSAT"} {
		if n := reg.CounterValue(obs.MProbes, obs.T("result", result)); n != 0 {
			t.Errorf("%s{result=%s} = %v from replayed rows, want 0", obs.MProbes, result, n)
		}
	}

	// The same row compiled fresh counts in full.
	s.publish(flight.Report{Strategy: "linear", GMAs: []flight.GMAReport{origin}})
	if n := reg.CounterValue(obs.MCompiles, obs.T("strategy", "linear")); n != 1 {
		t.Errorf("%s = %v after one fresh compile, want 1", obs.MCompiles, n)
	}
	if n := reg.CounterValue(obs.MSolverConflicts); n != 4 {
		t.Errorf("%s = %v, want 4", obs.MSolverConflicts, n)
	}
}

// TestServeTimeoutFiledOnce: a request that times out is filed once, by
// the compile that finishes late: the warehouse counts one report and one
// timeout, and /debug/requests/{id} serves the full report marked as a
// timeout, which shadows the ring-only marker.
func TestServeTimeoutFiledOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Options:        repro.Options{Arch: "ev6"},
		RequestTimeout: time.Nanosecond,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(programs.Byteswap4))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "late-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.History().Totals().GMAs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the late compile never filed its report")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tot := s.History().Totals(); tot.Reports != 1 || tot.Timeouts != 1 || tot.GMAs != 1 {
		t.Errorf("warehouse totals %+v, want 1 report, 1 timeout, 1 GMA", tot)
	}
	var rep flight.Report
	if r := getJSON(t, ts.URL+"/debug/requests/late-1", &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/late-1: status %d", r.StatusCode)
	}
	if !rep.Timeout || rep.Error == "" || len(rep.GMAs) != 1 || rep.GMAs[0].Cycles != 5 {
		t.Errorf("report for the timed-out request: %+v", rep)
	}
}
