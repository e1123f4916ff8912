package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/programs"
)

// fleetSource is a five-GMA program assembled from the example corpus —
// enough units that a batch is still mid-flight when the chaos test
// drains a worker.
var fleetSource = programs.Quickstart + programs.Lcp2 + programs.CopyLoop + programs.Rowop

// fleet is one in-process router plus its workers, each a full Server
// behind an httptest listener.
type fleet struct {
	router   *Server
	routerTS *httptest.Server
	workers  []*Server
	members  []string
}

// newFleet spins up n workers and a router over them. mutate adjusts the
// router config before construction (the workers always run the same
// base options as the router, so routing keys agree with worker caches).
// wrap, when non-nil, wraps every worker's HTTP handler.
func newFleet(t *testing.T, n int, mutate func(*Config), wrap func(http.Handler) http.Handler) *fleet {
	t.Helper()
	opt := repro.Options{Arch: "ev6", Workers: 1}
	f := &fleet{}
	for i := 0; i < n; i++ {
		w := New(Config{Options: opt, MaxConcurrent: 2})
		h := w.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(w.Close)
		f.workers = append(f.workers, w)
		f.members = append(f.members, strings.TrimPrefix(ts.URL, "http://"))
	}
	rcfg := Config{
		Options: opt,
		// Reactive membership only, unless the test opts into probing:
		// a huge interval makes every ring change attributable to a
		// failed forward, which is what the chaos test asserts on.
		Route:              append([]string{}, f.members...),
		RouteProbeInterval: time.Hour,
	}
	if mutate != nil {
		mutate(&rcfg)
	}
	f.router = New(rcfg)
	f.routerTS = httptest.NewServer(f.router.Handler())
	t.Cleanup(f.routerTS.Close)
	t.Cleanup(f.router.Close)
	return f
}

// workerFor maps a member address back to its Server.
func (f *fleet) workerFor(t *testing.T, member string) *Server {
	t.Helper()
	for i, m := range f.members {
		if m == member {
			return f.workers[i]
		}
	}
	t.Fatalf("no worker for member %q (have %v)", member, f.members)
	return nil
}

// normalizeGMA strips the timing fields — the only parts of a compiled
// GMA that may differ between two compiles of the same unit — and
// returns the canonical JSON of the rest. Everything else (assembly
// text, probe ladder, certification verdicts) must be byte-identical.
func normalizeGMA(t *testing.T, g GMAJSON) string {
	t.Helper()
	g.MatchMillis, g.SolveMillis, g.CertifyMillis = 0, 0, 0
	for i := range g.Probes {
		g.Probes[i].Millis = 0
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// gmaMapOf flattens a /compile response into proc/name → normalized GMA.
func gmaMapOf(t *testing.T, resp CompileResponse) map[string]string {
	t.Helper()
	m := map[string]string{}
	for _, p := range resp.Procs {
		for _, g := range p.GMAs {
			m[p.Name+"/"+g.Name] = normalizeGMA(t, g)
		}
	}
	return m
}

// postBatch streams a /compile/batch request, invoking onLine for every
// NDJSON line as it arrives, and returns the per-GMA lines, the summary
// line, and the response (for header/trailer assertions; body is fully
// read on return).
func postBatch(t *testing.T, url string, req CompileRequest, onLine func(int, batchLine)) ([]batchLine, batchLine, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/compile/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := bufio.NewReader(resp.Body).ReadString(0)
		t.Fatalf("/compile/batch status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var units []batchLine
	var summary batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			summary = line
			continue
		}
		if onLine != nil {
			onLine(len(units), line)
		}
		units = append(units, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !summary.Done {
		t.Fatal("batch stream ended without a done:true summary line")
	}
	return units, summary, resp
}

// TestFleetChaosDrainMidBatch is the chaos acceptance test: one router,
// three workers, a five-GMA batch serialized to one unit at a time.
// After the first result line arrives, the worker owning the LAST GMA's
// key is drained (the SIGTERM-equivalent readiness flip). The router
// must route around it — the batch completes with zero errors, at least
// one retry is recorded, no unit after the drain reports the drained
// worker, and every compiled GMA is byte-identical to a single-node
// compile of the same program modulo request IDs and timings.
func TestFleetChaosDrainMidBatch(t *testing.T) {
	// Every worker compile after the first waits until the drain has
	// landed. The client can read line 0 later than the router finishes
	// unit 1 and dispatches unit 2 (a loaded host deschedules it for
	// longer than a tiny unit's round trip), so without the gate "units
	// after the first two launch after the drain" would be a race.
	drained := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(drained) }) }
	var compiles atomic.Int32
	gate := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/compile" && compiles.Add(1) > 1 {
				<-drained
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newFleet(t, 3, func(cfg *Config) { cfg.BatchConcurrency = 1 }, gate)
	t.Cleanup(release) // runs before the workers close, even if the test fails early

	// Single-node ground truth: the same program through a standalone
	// server's /compile.
	_, solo := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 1}, MaxConcurrent: 2})
	resp, raw := postCompile(t, solo.URL, CompileRequest{Source: fleetSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node compile: status %d: %s", resp.StatusCode, raw)
	}
	var truth CompileResponse
	if err := json.Unmarshal(raw, &truth); err != nil {
		t.Fatal(err)
	}
	want := gmaMapOf(t, truth)

	// The drain victim: the worker owning the last GMA's routing key,
	// so the batch is guaranteed to dispatch to it after the drain.
	opt, err := f.router.options(&CompileRequest{Source: fleetSource}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := repro.Keys(fleetSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("program has %d GMAs, single-node compiled %d", len(keys), len(want))
	}
	victim := newHashRing(f.members).owner(keys[len(keys)-1].Key)

	units, summary, _ := postBatch(t, f.routerTS.URL, CompileRequest{Source: fleetSource},
		func(i int, line batchLine) {
			if i == 0 {
				f.workerFor(t, victim).Drain()
				release()
			}
			// Unit 1 (serialized after unit 0) may already be in flight on
			// the victim when the drain lands; every later unit launches
			// strictly after it, so none may be answered by the victim.
			if i >= 2 && line.Worker == victim {
				t.Errorf("unit %s answered by drained worker %s", line.Name, victim)
			}
		})

	if summary.Errors != 0 || summary.GMAs != len(keys) {
		t.Fatalf("summary = %+v, want %d GMAs and 0 errors", summary, len(keys))
	}
	got := map[string]string{}
	for _, line := range units {
		if line.Error != "" {
			t.Fatalf("unit %s/%s failed: %s", line.Proc, line.Name, line.Error)
		}
		if line.GMA == nil {
			t.Fatalf("unit %s/%s has no GMA", line.Proc, line.Name)
		}
		got[line.Proc+"/"+line.Name] = normalizeGMA(t, *line.GMA)
	}
	if len(got) != len(want) {
		t.Fatalf("batch answered %d GMAs, single-node %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("GMA %s differs from single-node compile:\n fleet: %s\n solo:  %s", k, got[k], w)
		}
	}

	// The acceptance criterion: the drain was actually routed around.
	metrics := scrapeMetrics(t, f.routerTS.URL)
	if metrics["denali_router_retries_total"] <= 0 {
		t.Errorf("denali_router_retries_total = %v, want > 0", metrics["denali_router_retries_total"])
	}
	if metrics[`denali_router_members{state="down"}`] != 1 {
		t.Errorf("down members = %v, want 1 (the drained worker)",
			metrics[`denali_router_members{state="down"}`])
	}
}

// TestBatchGoldenEqualsDirect is the batch conformance test: golden
// corpus programs through POST /compile/batch — both on a single-node
// server and through a routed fleet — answer exactly what a direct
// repro.Compile answers, byte for byte including certification fields,
// modulo timings.
func TestBatchGoldenEqualsDirect(t *testing.T) {
	corpus := []struct {
		name string
		src  string
	}{
		{"quickstart", programs.Quickstart},
		{"lcp2", programs.Lcp2},
		{"copyloop", programs.CopyLoop},
		{"rowop", programs.Rowop},
	}
	certify := true
	opt := repro.Options{Arch: "ev6", Workers: 1, Certify: certify}

	// Direct ground truth, once per program.
	want := map[string]map[string]string{}
	for _, p := range corpus {
		res, err := repro.Compile(p.src, opt)
		if err != nil {
			t.Fatalf("%s: direct compile: %v", p.name, err)
		}
		m := map[string]string{}
		for _, proc := range res.Procs {
			for _, g := range proc.GMAs {
				gj := gmaJSON(g, 0)
				if certify && gj.OptimalProven && !gj.Certified {
					t.Fatalf("%s/%s: optimality proven but not certified", p.name, g.Name)
				}
				m[proc.Name+"/"+g.Name] = normalizeGMA(t, gj)
			}
		}
		want[p.name] = m
	}

	check := func(t *testing.T, url string) {
		for _, p := range corpus {
			units, summary, _ := postBatch(t, url, CompileRequest{Source: p.src, Certify: &certify}, nil)
			if summary.Errors != 0 {
				t.Fatalf("%s: %d units failed", p.name, summary.Errors)
			}
			got := map[string]string{}
			for _, line := range units {
				if line.GMA == nil {
					t.Fatalf("%s/%s: no GMA in line", p.name, line.Name)
				}
				got[line.Proc+"/"+line.Name] = normalizeGMA(t, *line.GMA)
			}
			if len(got) != len(want[p.name]) {
				t.Fatalf("%s: batch answered %d GMAs, direct %d", p.name, len(got), len(want[p.name]))
			}
			for k, w := range want[p.name] {
				if got[k] != w {
					t.Errorf("%s: GMA %s differs from direct compile:\n batch:  %s\n direct: %s",
						p.name, k, got[k], w)
				}
			}
		}
	}

	t.Run("single-node", func(t *testing.T) {
		_, ts := newTestServer(t, Config{
			Options: repro.Options{Arch: "ev6", Workers: 1, Certify: certify}, MaxConcurrent: 2})
		check(t, ts.URL)
	})
	t.Run("fleet", func(t *testing.T) {
		f := newFleet(t, 2, func(cfg *Config) {
			cfg.Options.Certify = certify
		}, nil)
		for _, w := range f.workers {
			w.cfg.Options.Certify = certify
		}
		check(t, f.routerTS.URL)
	})
}

// TestRouteForwardThreadsRequestID pins the hop bookkeeping: the
// client's request ID survives the router→worker hop unregenerated, both
// tiers file flight reports under it, the router's report and access log
// carry the upstream worker and attempt count, and the history warehouse
// counts the request as routed.
func TestRouteForwardThreadsRequestID(t *testing.T) {
	var log bytes.Buffer
	f := newFleet(t, 2, func(cfg *Config) { cfg.AccessLog = &log }, nil)

	const id = "fleet-test-42"
	body, _ := json.Marshal(CompileRequest{Source: programs.Lcp2})
	req, _ := http.NewRequest(http.MethodPost, f.routerTS.URL+"/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed compile status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Errorf("X-Request-ID = %q, want %q", got, id)
	}
	upstream := resp.Header.Get(upstreamHeader)
	if upstream == "" {
		t.Fatal("response lacks X-Denali-Upstream")
	}
	if got := resp.Header.Get(attemptsHeader); got != "1" {
		t.Errorf("X-Denali-Attempts = %q, want \"1\"", got)
	}
	var cr CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.RequestID != id {
		t.Errorf("body request_id = %q, want %q (worker must not regenerate)", cr.RequestID, id)
	}

	// Both tiers filed a report under the one ID.
	worker := f.workerFor(t, upstream)
	if _, ok := worker.ring.Get(id); !ok {
		t.Errorf("worker %s has no flight report for %q", upstream, id)
	}
	rrep, ok := f.router.ring.Get(id)
	if !ok {
		t.Fatalf("router has no flight report for %q", id)
	}
	if rrep.Upstream != upstream || rrep.Attempts != 1 {
		t.Errorf("router report upstream=%q attempts=%d, want %q/1", rrep.Upstream, rrep.Attempts, upstream)
	}

	if line := log.String(); !strings.Contains(line, `"upstream":"`+upstream+`"`) ||
		!strings.Contains(line, `"attempts":1`) {
		t.Errorf("router access log lacks upstream/attempts: %s", line)
	}
	if tot := f.router.History().Snapshot().Totals; tot.Routed < 1 {
		t.Errorf("history Totals.Routed = %d, want ≥ 1", tot.Routed)
	}
}

// TestRouterRetriesDeadMember covers the connection-failure leg of the
// retry taxonomy: one configured member never listens, and every key it
// owns must be retried onto the live replica. 40 distinct programs make
// it statistically certain (1 - 2^-40) that some keys route to the dead
// member first.
func TestRouterRetriesDeadMember(t *testing.T) {
	// A listener that is immediately closed: connection refused, fast.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	w := New(Config{Options: repro.Options{Arch: "ev6", Workers: 1}, MaxConcurrent: 2})
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	t.Cleanup(w.Close)

	r := New(Config{
		Options:            repro.Options{Arch: "ev6", Workers: 1},
		Route:              []string{deadAddr, strings.TrimPrefix(wts.URL, "http://")},
		RouteProbeInterval: time.Hour,
		RouteBackoff:       time.Millisecond,
	})
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)
	t.Cleanup(r.Close)

	sawRetry := false
	for i := 0; i < 40; i++ {
		// Distinct constants give every request a distinct routing key.
		src := fmt.Sprintf("(\\procdecl p ((a long)) long (:= (\\res (+ a %d))))", i+1)
		resp, raw := postCompile(t, rts.URL, CompileRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if resp.Header.Get(attemptsHeader) != "1" {
			sawRetry = true
		}
		if got := resp.Header.Get(upstreamHeader); got != strings.TrimPrefix(wts.URL, "http://") {
			t.Fatalf("request %d answered by %q, want the live worker", i, got)
		}
	}
	if !sawRetry {
		t.Error("no request needed a retry — dead member never owned a key (astronomically unlikely)")
	}
	if m := scrapeMetrics(t, rts.URL); m["denali_router_retries_total"] <= 0 {
		t.Errorf("denali_router_retries_total = %v, want > 0", m["denali_router_retries_total"])
	}
}

// TestRouterBackpressurePropagates covers the saturation leg: a worker
// 503 that is NOT a drain must reach the client unretried, Retry-After
// intact — the router never queues on the fleet's behalf.
func TestRouterBackpressurePropagates(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set(rejectHeader, "busy")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"server busy: concurrency limit reached"}`)
	}))
	t.Cleanup(busy.Close)

	r := New(Config{
		Options:            repro.Options{Arch: "ev6", Workers: 1},
		Route:              []string{strings.TrimPrefix(busy.URL, "http://")},
		RouteProbeInterval: time.Hour,
	})
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)
	t.Cleanup(r.Close)

	resp, _ := postCompile(t, rts.URL, CompileRequest{Source: programs.Lcp2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the worker's \"7\"", got)
	}
	if got := resp.Header.Get(attemptsHeader); got != "1" {
		t.Errorf("X-Denali-Attempts = %q, want \"1\" (saturation must not be retried)", got)
	}
	m := scrapeMetrics(t, rts.URL)
	if m["denali_router_backpressure_total"] != 1 {
		t.Errorf("denali_router_backpressure_total = %v, want 1", m["denali_router_backpressure_total"])
	}
	if m["denali_router_retries_total"] != 0 {
		t.Errorf("denali_router_retries_total = %v, want 0", m["denali_router_retries_total"])
	}
}

// TestRouterProbeMembership covers the probe-driven membership cycle: a
// drained worker leaves the ring within a probe interval and rejoins
// after Resume, with the member gauges tracking both transitions.
func TestRouterProbeMembership(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) { cfg.RouteProbeInterval = 20 * time.Millisecond }, nil)

	waitDown := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if m := scrapeMetrics(t, f.routerTS.URL); m[`denali_router_members{state="down"}`] == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("down-member gauge never reached %v", want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	f.workers[0].Drain()
	waitDown(1)
	f.workers[0].Resume()
	waitDown(0)

	// With everyone back, a routed compile still works end to end.
	resp, raw := postCompile(t, f.routerTS.URL, CompileRequest{Source: programs.Lcp2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rejoin compile: status %d: %s", resp.StatusCode, raw)
	}
}
