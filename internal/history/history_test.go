package history

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/flight"
	"repro/internal/programs"
)

// mkReport builds a one-GMA flight report for tests.
func mkReport(id, fp, name string, solveMS, wallMS float64, cycles int) flight.Report {
	return flight.Report{
		ID:       id,
		Arch:     "ev6",
		Strategy: "linear",
		GMAs: []flight.GMAReport{{
			Name:          name,
			Fingerprint:   fp,
			CompileMillis: wallMS,
			SolveMillis:   solveMS,
			Cycles:        cycles,
			Probes: []flight.ProbeRow{
				{K: cycles, Result: "sat", Conflicts: 3},
				{K: cycles - 1, Result: "unsat", Conflicts: 7},
			},
			OptimalProven: true,
		}},
	}
}

func TestIngestAggregates(t *testing.T) {
	w := New(Config{})
	for i := 0; i < 5; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "double", 0.5, 1.0, 2))
	}
	w.Ingest(mkReport("r-5", "fp1", "double", 0.2, 0.8, 2))

	if got := w.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (one key per fingerprint, arch and strategy)", got)
	}
	tot := w.Totals()
	if tot.Reports != 6 || tot.GMAs != 6 {
		t.Fatalf("totals = %+v, want 6 reports / 6 gmas", tot)
	}

	as := aggregates(w, "fp1")
	if len(as) != 1 {
		t.Fatalf("snapshot holds %d aggregates for fp1, want 1", len(as))
	}
	a := as[0]
	if a.Compiles != 6 || a.Name != "double" || a.TopCycles() != 2 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.Conflicts != 6*10 {
		t.Fatalf("conflicts = %d, want 60", a.Conflicts)
	}
	// Every report's K=1 probe took 7 conflicts: the top three are the
	// first three reports' (earlier first among equals), K=2's 3 never
	// get in.
	wantTop := []ProbeRef{
		{RequestID: "r-0", K: 1, Result: "unsat", Conflicts: 7},
		{RequestID: "r-1", K: 1, Result: "unsat", Conflicts: 7},
		{RequestID: "r-2", K: 1, Result: "unsat", Conflicts: 7},
	}
	if !slices.Equal(a.TopConflicts, wantTop) {
		t.Fatalf("top conflicts = %+v, want %+v", a.TopConflicts, wantTop)
	}
	if h := a.ProbeHist; len(h) != 2 || h[2] != (ProbeCell{Sat: 6}) || h[1] != (ProbeCell{Unsat: 6}) {
		t.Fatalf("probe histogram = %+v, want K=2 sat 6 and K=1 unsat 6", h)
	}
	if a.Solve.Count != 6 || a.Solve.Min != 0.2 || a.Solve.Max != 0.5 {
		t.Fatalf("solve digest = %+v", a.Solve)
	}
	if a.Optimal != 6 {
		t.Fatalf("optimal = %d, want 6", a.Optimal)
	}
}

// TestFailedCompileSharesItsGMAsKey: a GMA that compiled and a compile of
// it that failed before its first probe land on one aggregate. Byteswap4
// compiles once with default budgets and once with a matcher node budget
// too small to find its machine computation.
func TestFailedCompileSharesItsGMAsKey(t *testing.T) {
	w := New(Config{})
	for _, maxNodes := range []int{0, 1} {
		fr := flight.NewRecorder(fmt.Sprintf("bs4-nodes-%d", maxNodes))
		_, err := repro.Compile(programs.Byteswap4, repro.Options{MatcherMaxNodes: maxNodes, Flight: fr})
		if (err != nil) != (maxNodes == 1) {
			t.Fatalf("matcher nodes %d: err = %v", maxNodes, err)
		}
		rep := fr.Report(0)
		if len(rep.GMAs) != 1 || (maxNodes == 1) != (len(rep.GMAs[0].Probes) == 0) {
			t.Fatalf("matcher nodes %d: want one GMA record, probed only when it compiled: %+v", maxNodes, rep.GMAs)
		}
		w.Ingest(rep)
	}
	snap := w.Snapshot()
	if len(snap.Keys) != 1 {
		for _, a := range snap.Keys {
			t.Logf("key %s: compiles=%d errors=%d", a.Key, a.Compiles, a.Errors)
		}
		t.Fatalf("%d aggregates for one GMA, want 1", len(snap.Keys))
	}
	if a := snap.Keys[0]; a.Compiles != 1 || a.Errors != 1 || a.ErrorRate() != 0.5 {
		t.Fatalf("aggregate: compiles=%d errors=%d error rate %v, want 1, 1 and 0.5", a.Compiles, a.Errors, a.ErrorRate())
	}
}

// TestWallDigestIsPerGMA: each GMA's wall digest observes that GMA's own
// compile time, not the whole request's. Quickstart compiles two GMAs in
// one request, so a request-wide wall would land in both digests.
func TestWallDigestIsPerGMA(t *testing.T) {
	fr := flight.NewRecorder("quickstart")
	t0 := time.Now()
	if _, err := repro.Compile(programs.Quickstart, repro.Options{Flight: fr}); err != nil {
		t.Fatal(err)
	}
	rep := fr.Report(time.Since(t0))
	if len(rep.GMAs) != 2 {
		t.Fatalf("quickstart filed %d GMA records, want 2", len(rep.GMAs))
	}
	w := New(Config{})
	w.Ingest(rep)
	if n := w.Len(); n != len(rep.GMAs) {
		t.Fatalf("%d aggregates, want one per GMA (%d)", n, len(rep.GMAs))
	}
	for _, g := range rep.GMAs {
		as := aggregates(w, g.Fingerprint)
		if len(as) != 1 {
			t.Fatalf("%s: %d aggregates, want 1", g.Name, len(as))
		}
		if wall := as[0].Wall; wall.Count != 1 || wall.Sum != g.CompileMillis {
			t.Errorf("%s: wall_ms count %d sum %v, want 1 and its compile_ms %v (request wall %v)",
				g.Name, wall.Count, wall.Sum, g.CompileMillis, rep.WallMillis)
		}
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
	hit := mkReport("h", "fp2", "inc4", 0.4, 0.1, 3)
	hit.GMAs[0].CacheHit = true
	w.Ingest(hit)
	// A per-GMA error.
	bad := mkReport("e", "fp2", "inc4", 0.4, 0.1, 3)
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
				w.Ingest(mkReport(fmt.Sprintf("r-%d-%d", g, i), fp, "gma", 0.1, 0.2, 1))
				_ = w.Snapshot()
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
}

// TestSnapshotKeyAxes: an empty arch folds into the canonical "ev6" key,
// while a different strategy keeps a key of its own.
func TestSnapshotKeyAxes(t *testing.T) {
	w := New(Config{})
	r := mkReport("r1", "fpX", "g", 0.1, 0.2, 1)
	r.Arch = "" // normalized to ev6
	w.Ingest(r)
	r2 := mkReport("r2", "fpX", "g", 0.1, 0.2, 1)
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

// TestSnapshotEncodeDuringIngest: a snapshot owns its maps. /debug/history
// encodes Snapshot() after the warehouse lock is released, so a map the
// snapshot shared with the live aggregate (Engines once was) would be read
// by the encoder while Ingest writes it; -race reports that.
func TestSnapshotEncodeDuringIngest(t *testing.T) {
	w := New(Config{})
	ingest := func(i int) {
		r := mkReport(fmt.Sprintf("r-%d", i), "fp", "gma", 0.1, 0.2, 1+i%3)
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

// TestWriteText: the text view `denali report` prints. One GMA compiled
// under two strategies gets a block per key, and the key with the lower
// mean solve time is marked fastest; a cache hit is counted apart from
// the compiles.
func TestWriteText(t *testing.T) {
	w := New(Config{})
	w.Ingest(mkReport("r1", "fp1", "qs", 10, 12, 3))
	fast := mkReport("r2", "fp1", "qs", 2, 3, 3)
	fast.Strategy = "binary"
	fast.GMAs[0].EncodeMillis = 4
	w.Ingest(fast)
	hit := mkReport("r3", "fp1", "qs", 10, 12, 3)
	hit.GMAs[0].CacheHit = true
	w.Ingest(hit)
	var b strings.Builder
	if err := w.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"3 reports, 0 errors, 1 distinct GMAs, 2 keys, 1 cache hits, 0 coalesced\n",
		"\nqs  [fp1]  ev6  linear  goal-size=0  compiles=1  cache-hits=1\n  cycles=3   x2\n",
		"\nqs  [fp1]  ev6  binary  goal-size=0  compiles=1\n  cycles=3   x1\n  100% optimal  0 certified  2 probes  10 conflicts  <- fastest\n",
		"  encode     4.000 ms mean      4.000 p50      4.000 p95      4.000 max\n",
		"  K=2   sat=0    unsat=1    unknown=0\n  K=3   sat=1    unsat=0    unknown=0\n",
		"  top-conflicts K=2   unsat          7 conflicts  (request r2)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "<- fastest") != 1 {
		t.Errorf("want one fastest mark:\n%s", out)
	}
}
