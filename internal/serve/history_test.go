package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/compilecache"
	"repro/internal/history"
	"repro/internal/programs"
)

// TestServeHistoryMatchesFlightRing is the acceptance check: after a
// burst of concurrent compiles (run under -race in the tier-1 gate),
// /debug/history reflects exactly the compiles this process served,
// cross-checked GMA-for-GMA against the flight ring.
func TestServeHistoryMatchesFlightRing(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2}, MaxConcurrent: 4})

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compile: %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()

	var snap history.Snapshot
	if r := getJSON(t, ts.URL+"/debug/history", &snap); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/history status %d", r.StatusCode)
	}
	if snap.Schema != history.SnapshotSchema {
		t.Fatalf("snapshot schema = %q", snap.Schema)
	}
	if snap.Totals.Reports != n {
		t.Fatalf("warehouse reports = %d, want %d", snap.Totals.Reports, n)
	}

	// Cross-check against the ring: same number of per-GMA records, and
	// every ring fingerprint appears in the warehouse under the same
	// strategy with a matching compile count.
	rings := s.ring.Last(n * 2)
	if len(rings) != n {
		t.Fatalf("ring holds %d reports, want %d", len(rings), n)
	}
	ringPerFP := map[string]int{}
	var ringGMAs uint64
	for _, rep := range rings {
		for _, g := range rep.GMAs {
			ringPerFP[g.Fingerprint]++
			ringGMAs++
		}
	}
	if snap.Totals.GMAs != ringGMAs {
		t.Fatalf("warehouse GMAs = %d, ring GMAs = %d", snap.Totals.GMAs, ringGMAs)
	}
	housePerFP := map[string]uint64{}
	for _, a := range snap.Keys {
		if a.Strategy != "linear" || a.Arch != "ev6" {
			t.Fatalf("unexpected key %+v", a.Key)
		}
		if _, dup := housePerFP[a.Fingerprint]; dup {
			t.Fatalf("fingerprint %s has two keys under one arch and strategy", a.Fingerprint)
		}
		housePerFP[a.Fingerprint] += a.Compiles + a.CacheHits + a.Coalesced
	}
	for fp, want := range ringPerFP {
		if got := housePerFP[fp]; got != uint64(want) {
			t.Fatalf("fingerprint %s: warehouse has %d observations, ring has %d", fp, got, want)
		}
	}

	// The per-fingerprint endpoint answers by prefix and agrees with the
	// full snapshot.
	for fp := range ringPerFP {
		var one historyByFingerprintJSON
		if r := getJSON(t, ts.URL+"/debug/history/"+fp[:8], &one); r.StatusCode != http.StatusOK {
			t.Fatalf("/debug/history/%s status %d", fp[:8], r.StatusCode)
		}
		if one.Count == 0 {
			t.Fatalf("no aggregates for prefix %s", fp[:8])
		}
		for _, a := range one.Keys {
			if !strings.HasPrefix(a.Fingerprint, fp[:8]) {
				t.Fatalf("prefix lookup returned foreign key %+v", a.Key)
			}
		}
	}
	if r := getJSON(t, ts.URL+"/debug/history/ffffffffnope", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint status %d, want 404", r.StatusCode)
	}

	// The in-process warehouse's own Snapshot sees the same aggregates as
	// the endpoint.
	live := map[string]uint64{}
	for _, a := range s.History().Snapshot().Keys {
		if a.Arch == "ev6" {
			live[a.Fingerprint] += a.Compiles + a.CacheHits + a.Coalesced
		}
	}
	for fp, want := range ringPerFP {
		if got := live[fp]; got != uint64(want) {
			t.Fatalf("Snapshot sees %d observations of %s, want %d", got, fp, want)
		}
	}
}

// TestServeHistoryDigestBounds: /debug/history serves the digests'
// bucket bounds, so a JSON client can place every count without the Go
// package: a single compile's wall_ms sum lies inside the bucket that
// holds its one observation.
func TestServeHistoryDigestBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	if resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Byteswap4}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Bounds []float64 `json:"digest_bounds_ms"`
		Keys   []struct {
			Wall struct {
				Count  uint64   `json:"count"`
				Sum    float64  `json:"sum"`
				Counts []uint64 `json:"counts"`
			} `json:"wall_ms"`
		} `json:"keys"`
	}
	if r := getJSON(t, ts.URL+"/debug/history", &body); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/history status %d", r.StatusCode)
	}
	if len(body.Bounds) == 0 || !slices.IsSorted(body.Bounds) {
		t.Fatalf("digest_bounds_ms = %v, want ascending bounds", body.Bounds)
	}
	if len(body.Keys) != 1 {
		t.Fatalf("%d keys after one byteswap4 compile, want 1", len(body.Keys))
	}
	wall := body.Keys[0].Wall
	if wall.Count != 1 || len(wall.Counts) != len(body.Bounds)+1 {
		t.Fatalf("wall_ms: count %d, %d count slots for %d bounds", wall.Count, len(wall.Counts), len(body.Bounds))
	}
	i := slices.Index(wall.Counts, 1)
	if i < 0 {
		t.Fatalf("wall_ms counts %v hold no observation", wall.Counts)
	}
	lo, hi := 0.0, math.Inf(1)
	if i > 0 {
		lo = body.Bounds[i-1]
	}
	if i < len(body.Bounds) {
		hi = body.Bounds[i]
	}
	if wall.Sum <= lo || wall.Sum > hi {
		t.Fatalf("wall_ms sum %v outside its bucket (%v, %v]", wall.Sum, lo, hi)
	}
}

// TestServeNoSLOEndpoint: availability and latency live on /metrics
// (denali_http_requests_total, denali_http_request_seconds); there is no
// /debug/slo view and no denali_slo_* family.
func TestServeNoSLOEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	if r := getJSON(t, ts.URL+"/debug/slo", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slo status %d, want 404", r.StatusCode)
	}
	for k := range scrapeMetrics(t, ts.URL) {
		if strings.HasPrefix(k, "denali_slo_") {
			t.Fatalf("/metrics still exports %s", k)
		}
	}
}

// TestServeAccessLogCacheOutcome: the access log's cache field must
// match the X-Denali-Cache response header on every compile.
func TestServeAccessLogCacheOutcome(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Options:   repro.Options{Arch: "ev6"},
		AccessLog: &buf,
		Cache:     compilecache.New(compilecache.Config{MaxEntries: 64}),
	})

	wantByID := map[string]string{}
	for i, want := range []string{"miss", "hit", "bypass"} {
		id := fmt.Sprintf("cache-line-%d", i)
		req := CompileRequest{Source: programs.Quickstart}
		if want == "bypass" {
			req.Cache = new(bool)
		}
		body, _ := json.Marshal(req)
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
		hreq.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %s: status %d", id, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Denali-Cache"); h != want {
			t.Fatalf("compile %s: header = %q, want %q", id, h, want)
		}
		wantByID[id] = want
	}

	seen := 0
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var al accessLine
		if err := json.Unmarshal([]byte(l), &al); err != nil {
			t.Fatalf("access line %q: %v", l, err)
		}
		if want, ok := wantByID[al.ID]; ok {
			if al.Cache != want {
				t.Fatalf("access line %s: cache = %q, header said %q", al.ID, al.Cache, want)
			}
			seen++
		}
	}
	if seen != len(wantByID) {
		t.Fatalf("saw %d of %d compile access lines", seen, len(wantByID))
	}
}

// TestServeHistoryCountsFailures: request-level failures land in the
// warehouse totals with their outcome class.
func TestServeHistoryCountsFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	resp, _ := postCompile(t, ts.URL, CompileRequest{Source: "reg r1; r9999 = broken("})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken program status %d", resp.StatusCode)
	}
	// A transport-level reject (empty source) files a failure report too.
	r2, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(`{"source":""}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source status %d", r2.StatusCode)
	}
	tot := s.History().Totals()
	if tot.Errors < 2 {
		t.Fatalf("warehouse errors = %d, want >= 2 (%+v)", tot.Errors, tot)
	}
	if tot.Timeouts != 0 || tot.Panics != 0 {
		t.Fatalf("misclassified failures: %+v", tot)
	}
}
