package history

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
)

// mkReport builds a one-GMA flight report for tests.
func mkReport(id, fp, name string, incremental bool, solveMS, wallMS float64, cycles int) flight.Report {
	return flight.Report{
		ID:         id,
		Arch:       "ev6",
		Strategy:   "linear",
		WallMillis: wallMS,
		GMAs: []flight.GMAReport{{
			Name:        name,
			Fingerprint: fp,
			SolveMillis: solveMS,
			Cycles:      cycles,
			Probes: []flight.ProbeRow{
				{K: cycles, Result: "sat", Conflicts: 3, Incremental: incremental},
				{K: cycles - 1, Result: "unsat", Conflicts: 7, Incremental: incremental},
			},
			OptimalProven: true,
		}},
	}
}

func TestIngestAggregates(t *testing.T) {
	w := New(Config{})
	for i := 0; i < 5; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "double", false, 0.5, 1.0, 2))
	}
	w.Ingest(mkReport("r-inc", "fp1", "double", true, 0.2, 0.8, 2))

	if got := w.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (scratch + incremental keys)", got)
	}
	tot := w.Totals()
	if tot.Reports != 6 || tot.GMAs != 6 {
		t.Fatalf("totals = %+v, want 6 reports / 6 gmas", tot)
	}

	both := aggregates(w, "fp1")
	if len(both) != 2 {
		t.Fatalf("snapshot holds %d aggregates for fp1, want 2", len(both))
	}
	// Sorted most-compiled first: the scratch key has 5 compiles.
	if both[0].Incremental || !both[1].Incremental {
		t.Fatalf("snapshot order wrong: %v then %v", both[0].Key, both[1].Key)
	}
	a := both[0]
	if a.Compiles != 5 || a.Name != "double" || a.TopCycles() != 2 {
		t.Fatalf("scratch aggregate = %+v", a)
	}
	if a.Conflicts != 5*10 {
		t.Fatalf("conflicts = %d, want 50", a.Conflicts)
	}
	if a.MaxProbeConflicts != 7 {
		t.Fatalf("max probe conflicts = %d, want 7", a.MaxProbeConflicts)
	}
	if a.Solve.Count != 5 || a.Solve.Max != 0.5 {
		t.Fatalf("solve digest = %+v", a.Solve)
	}
	if a.Optimal != 5 {
		t.Fatalf("optimal = %d, want 5", a.Optimal)
	}
}

// aggregates returns the snapshot's aggregates for one fingerprint, in
// snapshot order (most-compiled first).
func aggregates(w *Warehouse, fp string) []*Aggregate {
	var out []*Aggregate
	for _, a := range w.Snapshot().Keys {
		if a.Fingerprint == fp {
			out = append(out, a)
		}
	}
	return out
}

func TestIngestFailuresAndCacheOutcomes(t *testing.T) {
	w := New(Config{})
	// Request-level failure: no GMAs, parse error.
	w.Ingest(flight.Report{ID: "bad", Error: "parse: boom"})
	// Request-level timeout.
	w.Ingest(flight.Report{ID: "slow", Error: "deadline", Timeout: true})
	// Panic.
	w.Ingest(flight.Report{ID: "pan", Error: "runtime error", Panic: true})
	// A cache hit replays the origin's probes; solver work must not be
	// double counted.
	hit := mkReport("h", "fp2", "inc4", false, 0.4, 0.1, 3)
	hit.GMAs[0].CacheHit = true
	w.Ingest(hit)
	// A per-GMA error.
	bad := mkReport("e", "fp2", "inc4", false, 0.4, 0.1, 3)
	bad.GMAs[0].Error = "unsat at max budget"
	w.Ingest(bad)

	tot := w.Totals()
	if tot.Reports != 5 {
		t.Fatalf("reports = %d, want 5", tot.Reports)
	}
	if tot.Errors != 4 || tot.Panics != 1 || tot.Timeouts != 1 {
		t.Fatalf("failure totals = %+v", tot)
	}
	if tot.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", tot.CacheHits)
	}

	as := aggregates(w, "fp2")
	if len(as) != 1 {
		t.Fatalf("snapshot holds %d aggregates for fp2", len(as))
	}
	a := as[0]
	if a.CacheHits != 1 || a.Errors != 1 || a.Compiles != 0 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.Solve.Count != 0 {
		t.Fatalf("cache hit leaked into solve digest: %+v", a.Solve)
	}
	if a.CacheHitRatio() != 1 {
		t.Fatalf("cache hit ratio = %v, want 1 (1 hit / 1 successful)", a.CacheHitRatio())
	}
	if a.ErrorRate() != 0.5 {
		t.Fatalf("error rate = %v, want 0.5", a.ErrorRate())
	}
}

func TestConcurrentIngest(t *testing.T) {
	w := New(Config{})
	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fp := fmt.Sprintf("fp-%d", i%8)
				w.Ingest(mkReport(fmt.Sprintf("r-%d-%d", g, i), fp, "gma", g%2 == 0, 0.1, 0.2, 1))
				w.RecordRequest(true, 0.2)
				_ = w.Snapshot()
				_ = w.SLOStatus()
			}
		}(g)
	}
	wg.Wait()
	tot := w.Totals()
	if tot.Reports != goroutines*perG {
		t.Fatalf("reports = %d, want %d", tot.Reports, goroutines*perG)
	}
	snap := w.Snapshot()
	var compiles uint64
	for _, a := range snap.Keys {
		compiles += a.Compiles
	}
	if compiles != goroutines*perG {
		t.Fatalf("sum of compiles = %d, want %d", compiles, goroutines*perG)
	}
	if st := w.SLOStatus(); st.Requests != goroutines*perG {
		t.Fatalf("slo requests = %d, want %d", st.Requests, goroutines*perG)
	}
}

func TestDigestQuantiles(t *testing.T) {
	var d Digest
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i)) // 1..100 ms
	}
	if d.Count != 100 || d.Min != 1 || d.Max != 100 {
		t.Fatalf("digest = %+v", d)
	}
	p50 := d.Quantile(0.5)
	if p50 < 25 || p50 > 75 {
		t.Fatalf("p50 = %v, want near 50", p50)
	}
	p95 := d.Quantile(0.95)
	if p95 < 75 || p95 > 100 {
		t.Fatalf("p95 = %v, want near 95", p95)
	}
	if got := d.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want clamped to max", got)
	}

	var e Digest
	e.Observe(0.001) // below the lowest bound: first bucket
	if e.Quantile(0.5) > 0.01 {
		t.Fatalf("tiny observation p50 = %v, want clamped to max 0.001", e.Quantile(0.5))
	}

	var m Digest
	m.Merge(d)
	m.Merge(e)
	if m.Count != 101 || m.Min != 0.001 || m.Max != 100 {
		t.Fatalf("merged = count %d min %v max %v", m.Count, m.Min, m.Max)
	}
}

// TestSnapshotKeyAxes: an empty arch folds into the canonical "ev6" key,
// while a different strategy keeps a key of its own.
func TestSnapshotKeyAxes(t *testing.T) {
	w := New(Config{})
	r := mkReport("r1", "fpX", "g", false, 0.1, 0.2, 1)
	r.Arch = "" // normalized to ev6
	w.Ingest(r)
	r2 := mkReport("r2", "fpX", "g", false, 0.1, 0.2, 1)
	r2.Strategy = "parallel"
	w.Ingest(r2)

	as := aggregates(w, "fpX")
	if len(as) != 2 {
		t.Fatalf("snapshot holds %d aggregates for fpX, want 2", len(as))
	}
	strategies := map[string]bool{}
	for _, a := range as {
		if a.Arch != "ev6" {
			t.Errorf("key %v: arch not normalized to ev6", a.Key)
		}
		strategies[a.Strategy] = true
	}
	if !strategies["linear"] || !strategies["parallel"] {
		t.Fatalf("strategies = %v, want linear and parallel", strategies)
	}
	if got := len(aggregates(w, "nope")); got != 0 {
		t.Fatalf("unknown fingerprint has %d aggregates", got)
	}
}

func TestSLOTracker(t *testing.T) {
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	tr := NewSLOTracker(SLOConfig{Availability: 0.999, LatencyP95MS: 100, Window: time.Hour})

	// 998 fast successes, 1 failure, 1 slow request.
	for i := 0; i < 998; i++ {
		tr.Record(true, 10, base)
	}
	tr.Record(false, 10, base)
	tr.Record(true, 500, base)

	st := tr.Status(base)
	if st.Requests != 1000 || st.Failures != 1 || st.SlowRequests != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Availability != 0.999 {
		t.Fatalf("availability = %v", st.Availability)
	}
	// Failure rate 0.001 against a 0.001 budget: burning exactly at rate 1.
	if st.AvailabilityBurn < 0.99 || st.AvailabilityBurn > 1.01 {
		t.Fatalf("availability burn = %v, want ~1", st.AvailabilityBurn)
	}
	// Slow fraction 0.001 against the 5% a p95 objective allows: 0.02.
	if st.LatencyBurn < 0.01 || st.LatencyBurn > 0.03 {
		t.Fatalf("latency burn = %v, want ~0.02", st.LatencyBurn)
	}

	// The whole window ages out after an hour.
	later := tr.Status(base.Add(2 * time.Hour))
	if later.Requests != 0 || later.Availability != 1 || later.AvailabilityBurn != 0 {
		t.Fatalf("aged status = %+v", later)
	}
}

func TestSLOEmptyWindow(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{})
	st := tr.Status(time.Now())
	if st.Availability != 1 || st.AvailabilityBurn != 0 || st.Requests != 0 {
		t.Fatalf("empty window status = %+v", st)
	}
	if st.AvailabilityObjective != DefaultAvailabilityObjective {
		t.Fatalf("objective = %v", st.AvailabilityObjective)
	}
}

// TestSnapshotEncodeDuringIngest: a snapshot owns its maps. /debug/history
// encodes Snapshot() after the warehouse lock is released, so a map the
// snapshot shared with the live aggregate (Engines once was) would be read
// by the encoder while Ingest writes it; -race reports that.
func TestSnapshotEncodeDuringIngest(t *testing.T) {
	w := New(Config{})
	ingest := func(i int) {
		r := mkReport(fmt.Sprintf("r-%d", i), "fp", "gma", true, 0.1, 0.2, 1+i%3)
		r.GMAs[0].Engine = []string{"sat", "stochastic"}[i%2]
		w.Ingest(r)
	}
	ingest(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 200; i++ {
			ingest(i)
		}
	}()
	for encoding := true; encoding; {
		select {
		case <-done:
			encoding = false
		default:
		}
		if _, err := json.Marshal(w.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	snap := w.Snapshot()
	if len(snap.Keys) != 1 {
		t.Fatalf("%d keys, want 1", len(snap.Keys))
	}
	if e := snap.Keys[0].Engines; e["sat"]+e["stochastic"] != 201 {
		t.Fatalf("engines = %v, want 201 compiles counted", e)
	}
}
