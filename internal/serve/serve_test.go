package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/flight"
	"repro/internal/programs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string, req CompileRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// parseProm parses Prometheus text exposition into sample lines keyed by
// `name{labels}`. It fails the test on any line that is not a comment or
// a `key value` pair — the format check the acceptance criteria ask for.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		samples[line[:cut]] = v
	}
	return samples
}

func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(raw))
}

// TestServeConcurrentCompile is the acceptance test: ≥8 concurrent
// /compile requests under -race, each cross-checked against a direct
// repro.Compile of the same source, then a /metrics scrape that must
// parse as Prometheus text exposition with non-zero compile-latency
// histogram counts.
func TestServeConcurrentCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Options:       repro.Options{Arch: "ev6", Workers: 2},
		MaxConcurrent: 8,
	})

	sources := []string{
		programs.Quickstart,
		programs.Byteswap4,
		programs.Checksum,
		programs.Rowop,
	}
	// Direct ground truth, once per distinct source. Cycle counts and
	// optimality proofs are deterministic; instruction counts at a fixed
	// budget are not (any satisfying SAT model is a correct schedule), so
	// the cross-check pins cycles/optimality and leaves correctness of the
	// instructions to the server-side Verify pass each request runs.
	type truth struct {
		cycles  []int
		optimal []bool
	}
	want := map[string]truth{}
	for _, src := range sources {
		res, err := repro.Compile(src, repro.Options{Arch: "ev6"})
		if err != nil {
			t.Fatalf("direct compile: %v", err)
		}
		var tr truth
		for _, p := range res.Procs {
			for _, g := range p.GMAs {
				tr.cycles = append(tr.cycles, g.Cycles)
				tr.optimal = append(tr.optimal, g.OptimalProven)
			}
		}
		want[src] = tr
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		src := sources[c%len(sources)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postCompile(t, ts.URL, CompileRequest{Source: src, Verify: 3})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var out CompileResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				errs <- fmt.Errorf("decode: %v", err)
				return
			}
			var gotCycles []int
			var gotOptimal []bool
			for _, p := range out.Procs {
				for _, g := range p.GMAs {
					gotCycles = append(gotCycles, g.Cycles)
					gotOptimal = append(gotOptimal, g.OptimalProven)
					if g.Assembly == "" {
						errs <- fmt.Errorf("%s: empty assembly", g.Name)
					}
					if g.Instructions <= 0 {
						errs <- fmt.Errorf("%s: no instructions", g.Name)
					}
				}
			}
			tr := want[src]
			if fmt.Sprint(gotCycles) != fmt.Sprint(tr.cycles) || fmt.Sprint(gotOptimal) != fmt.Sprint(tr.optimal) {
				errs <- fmt.Errorf("served result cycles=%v optimal=%v, direct compile got cycles=%v optimal=%v",
					gotCycles, gotOptimal, tr.cycles, tr.optimal)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	samples := scrapeMetrics(t, ts.URL)
	// Every request compiled at least one GMA into the shared registry.
	if got := samples[`denali_compile_seconds_count{strategy="linear"}`]; got < clients {
		t.Errorf("compile latency histogram count = %g, want >= %d", got, clients)
	}
	if got := samples[`denali_compiles_total{strategy="linear"}`]; got < clients {
		t.Errorf("compiles_total = %g, want >= %d", got, clients)
	}
	if samples[`denali_sat_solve_seconds_count{result="SAT"}`] == 0 {
		t.Error("SAT solve latency histogram empty after serving compiles")
	}
	if samples[`denali_http_requests_total{code="200",path="/compile"}`] != clients {
		t.Errorf("http request counter = %g, want %d",
			samples[`denali_http_requests_total{code="200",path="/compile"}`], clients)
	}
	// Histogram well-formedness on the wire: +Inf bucket equals count.
	inf := samples[`denali_compile_seconds_bucket{strategy="linear",le="+Inf"}`]
	cnt := samples[`denali_compile_seconds_count{strategy="linear"}`]
	if inf != cnt {
		t.Errorf("+Inf bucket %g != count %g", inf, cnt)
	}
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

// TestBatchGoldenEqualsDirect is the served-answer conformance test: a
// batch of golden corpus programs, each posted to POST /compile on a
// single-node server with certification on, answers exactly what a
// direct repro.Compile answers, byte for byte including the assembly,
// the probe ladder and the certification fields, modulo timings.
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
	t.Run("single-node", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Options: opt, MaxConcurrent: 2})
		for _, p := range corpus {
			res, err := repro.Compile(p.src, opt)
			if err != nil {
				t.Fatalf("%s: direct compile: %v", p.name, err)
			}
			want := map[string]string{}
			for _, proc := range res.Procs {
				for _, g := range proc.GMAs {
					gj := gmaJSON(g, 0)
					if gj.OptimalProven && !gj.Certified {
						t.Fatalf("%s/%s: optimality proven but not certified", p.name, g.Name)
					}
					want[proc.Name+"/"+g.Name] = normalizeGMA(t, gj)
				}
			}

			resp, raw := postCompile(t, ts.URL, CompileRequest{Source: p.src, Certify: &certify})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", p.name, resp.StatusCode, raw)
			}
			var out CompileResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, proc := range out.Procs {
				for _, g := range proc.GMAs {
					got[proc.Name+"/"+g.Name] = normalizeGMA(t, g)
				}
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s: served %d GMAs, direct %d", p.name, len(got), len(want))
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("%s: GMA %s differs from direct compile:\n served: %s\n direct: %s", p.name, k, got[k], w)
				}
			}
		}
	})
}

func TestServeRawSourceBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	// Raw Denali source (no JSON envelope), as `curl --data-binary @f.dn`
	// would send it.
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(programs.Quickstart))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out CompileResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Procs) == 0 || len(out.Procs[0].GMAs) == 0 {
		t.Fatalf("no GMAs in response: %s", raw)
	}
}

func TestServeTraceInResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart, Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out CompileResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Trace, &chrome); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

func TestServeStrategyOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2}})
	for _, strategy := range []string{"linear", "binary", "descend", "parallel", "stochastic"} {
		resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart, Strategy: strategy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %s: status %d: %s", strategy, resp.StatusCode, raw)
		}
	}
	samples := scrapeMetrics(t, ts.URL)
	// Quickstart holds two GMAs, so each request counts two compiles.
	for _, strategy := range []string{"linear", "binary", "descend", "parallel", "stochastic"} {
		key := fmt.Sprintf(`denali_compiles_total{strategy=%q}`, strategy)
		if samples[key] != 2 {
			t.Errorf("%s = %g, want 2", key, samples[key])
		}
	}

	// A server-wide default strategy applies to requests that name none,
	// and a request's own strategy replaces it.
	_, ts = newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2, Strategy: "descend"}})
	for _, strategy := range []string{"", "linear"} {
		resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart, Strategy: strategy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("default descend, request %q: status %d: %s", strategy, resp.StatusCode, raw)
		}
	}
	samples = scrapeMetrics(t, ts.URL)
	for _, strategy := range []string{"descend", "linear"} {
		key := fmt.Sprintf(`denali_compiles_total{strategy=%q}`, strategy)
		if samples[key] != 2 {
			t.Errorf("default descend: %s = %g, want 2", key, samples[key])
		}
	}
}

// TestServeSeedOverride: the stochastic engine is deterministic in the
// per-request seed — two requests with the same seed must answer the
// same cycle counts with the engine label set, and the seed (explicit
// or request-ID-derived) must surface in the flight report.
func TestServeSeedOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2}})
	seed := uint64(12345)
	var runs [2]CompileResponse
	for i := range runs {
		resp, raw := postCompile(t, ts.URL, CompileRequest{
			Source: programs.Quickstart, Strategy: "stochastic", Seed: &seed,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for p := range runs[0].Procs {
		for g := range runs[0].Procs[p].GMAs {
			a, b := runs[0].Procs[p].GMAs[g], runs[1].Procs[p].GMAs[g]
			if a.Cycles != b.Cycles {
				t.Errorf("%s: same seed, different cycles: %d vs %d", a.Name, a.Cycles, b.Cycles)
			}
			if a.Engine != "stochastic" {
				t.Errorf("%s: engine = %q, want stochastic", a.Name, a.Engine)
			}
			if a.OptimalProven {
				t.Errorf("%s: stochastic answer claims optimality", a.Name)
			}
		}
	}
	// The flight report records the seed actually used.
	var rep flight.Report
	if r := getJSON(t, ts.URL+"/debug/requests/"+runs[0].RequestID, &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/%s status %d", runs[0].RequestID, r.StatusCode)
	}
	if !rep.SeedSet || rep.Seed != seed {
		t.Errorf("flight report seed = %d (set=%v), want %d", rep.Seed, rep.SeedSet, seed)
	}
}

// TestServeCertifyOverride exercises the tri-state per-request certify
// field: the server default is off, a request with "certify": true must
// come back with every optimality-proven GMA marked certified (and a
// positive check time), and a request omitting the field must not.
func TestServeCertifyOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2}})

	decode := func(raw []byte) CompileResponse {
		t.Helper()
		var cr CompileResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatalf("decode response: %v\n%s", err, raw)
		}
		return cr
	}
	on := true
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Byteswap4, Certify: &on})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify=true: status %d: %s", resp.StatusCode, raw)
	}
	for _, p := range decode(raw).Procs {
		for _, g := range p.GMAs {
			if g.OptimalProven && !g.Certified {
				t.Errorf("certify=true: %s proven optimal but certified=false", g.Name)
			}
			if g.Certified && g.CertifyMillis <= 0 {
				t.Errorf("certify=true: %s certified with certify_ms=%g", g.Name, g.CertifyMillis)
			}
		}
	}

	resp, raw = postCompile(t, ts.URL, CompileRequest{Source: programs.Byteswap4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default: status %d: %s", resp.StatusCode, raw)
	}
	for _, p := range decode(raw).Procs {
		for _, g := range p.GMAs {
			if g.Certified {
				t.Errorf("default off: %s unexpectedly certified", g.Name)
			}
		}
	}

	// The server may also default certification on, with requests opting
	// out; "certify": false must win over the server default.
	_, tsOn := newTestServer(t, Config{Options: repro.Options{Arch: "ev6", Workers: 2, Certify: true}})
	off := false
	resp, raw = postCompile(t, tsOn.URL, CompileRequest{Source: programs.Byteswap4, Certify: &off})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify=false: status %d: %s", resp.StatusCode, raw)
	}
	for _, p := range decode(raw).Procs {
		for _, g := range p.GMAs {
			if g.Certified {
				t.Errorf("certify=false override: %s unexpectedly certified", g.Name)
			}
		}
	}
	resp, raw = postCompile(t, tsOn.URL, CompileRequest{Source: programs.Byteswap4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server default on: status %d: %s", resp.StatusCode, raw)
	}
	for _, p := range decode(raw).Procs {
		for _, g := range p.GMAs {
			if g.OptimalProven && !g.Certified {
				t.Errorf("server default on: %s proven optimal but certified=false", g.Name)
			}
		}
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Options:        repro.Options{Arch: "ev6"},
		MaxSourceBytes: 256,
	})
	postJSON := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}
	const tiny = `"(\\procdecl qs ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))"`
	cases := []struct {
		name string
		req  func() (*http.Response, []byte)
		code int
		// errHas, when set, must appear in the error message.
		errHas string
	}{
		{"wrong method", func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/compile")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return resp, raw
		}, http.StatusMethodNotAllowed, ""},
		{"empty source", func() (*http.Response, []byte) {
			resp, raw := postCompile(t, ts.URL, CompileRequest{})
			return resp, raw
		}, http.StatusBadRequest, ""},
		{"unknown strategy", func() (*http.Response, []byte) {
			return postCompile(t, ts.URL, CompileRequest{Source: "x", Strategy: "quantum"})
		}, http.StatusBadRequest, ""},
		{"retired strategy portfolio", func() (*http.Response, []byte) {
			return postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart, Strategy: "portfolio"})
		}, http.StatusBadRequest, `"portfolio"`},
		{"unknown arch", func() (*http.Response, []byte) {
			return postCompile(t, ts.URL, CompileRequest{Source: "x", Arch: "z80"})
		}, http.StatusBadRequest, ""},
		// A field the envelope does not define is named, never dropped: a
		// misspelled override, or the retired "only" selector.
		{"unknown field stratgy", func() (*http.Response, []byte) {
			return postJSON(`{"source": ` + tiny + `, "stratgy": "binary"}`)
		}, http.StatusBadRequest, `"stratgy"`},
		{"unknown field only", func() (*http.Response, []byte) {
			return postJSON(`{"source": ` + tiny + `, "only": "qs"}`)
		}, http.StatusBadRequest, `"only"`},
		{"data after the object", func() (*http.Response, []byte) {
			return postJSON(`{"source": ` + tiny + `} {}`)
		}, http.StatusBadRequest, ""},
		{"source too large", func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(strings.Repeat("(", 300)))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return resp, raw
		}, http.StatusRequestEntityTooLarge, ""},
		{"invalid program", func() (*http.Response, []byte) {
			return postCompile(t, ts.URL, CompileRequest{Source: "this is not denali"})
		}, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		resp, raw := tc.req()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, raw)
			continue
		}
		if tc.code != http.StatusMethodNotAllowed {
			var e errorJSON
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" || !strings.Contains(e.Error, tc.errHas) {
				t.Errorf("%s: want JSON error body naming %s, got %s", tc.name, tc.errHas, raw)
			}
		}
	}
}

func TestServeLimiterBusy(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Options:       repro.Options{Arch: "ev6"},
		MaxConcurrent: 1,
		QueueTimeout:  20 * time.Millisecond,
	})
	// Occupy the single limiter slot so the request cannot be admitted.
	s.limiter <- struct{}{}
	defer func() { <-s.limiter }()
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	// A QueueTimeout under a second rounds up to the one-second floor.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("busy 503 Retry-After = %q, want \"1\"", got)
	}
	// A request whose options can never resolve is a 400 at once, not a
	// busy 503 whose Retry-After invites the client to send it again.
	for name, body := range map[string]string{
		"strategy": `{"source": "x", "strategy": "bogus"}`,
		"arch":     `{"source": "x", "arch": "z80"}`,
		"cache":    `{"source": "x", "cache": "sometimes"}`,
	} {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" {
			t.Errorf("bad %s while saturated: status %d, Retry-After %q; want 400 and none: %s",
				name, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
		}
	}
	samples := scrapeMetrics(t, ts.URL)
	if samples[`denali_compile_rejected_total{reason="busy"}`] != 1 {
		t.Errorf("busy rejection not counted: %v", samples[`denali_compile_rejected_total{reason="busy"}`])
	}
}

func TestServeRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Options:        repro.Options{Arch: "ev6"},
		RequestTimeout: 1 * time.Nanosecond,
	})
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Byteswap4})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	samples := scrapeMetrics(t, ts.URL)
	if samples[`denali_compile_rejected_total{reason="timeout"}`] != 1 {
		t.Errorf("timeout not counted: %v", samples[`denali_compile_rejected_total{reason="timeout"}`])
	}
}

func TestServeHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz status %d", resp.StatusCode)
	}
	// During drain, readiness flips 503 and /compile refuses new work
	// while /healthz stays 200 (the process is alive, just not accepting).
	s.ready.Store(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", resp.StatusCode)
	}
	cresp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/compile during drain: status %d, want 503 (%s)", cresp.StatusCode, raw)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain: status %d, want 200", resp.StatusCode)
	}
}

func TestServePanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	// Wire a panicking handler through the same instrument middleware the
	// real routes use, on a throwaway mux bound to the live server's
	// metrics, and prove the process answers 500 and keeps serving.
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", s.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts2 := httptest.NewServer(mux)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	// The main server still works after the recovered panic.
	cresp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
	if cresp.StatusCode != http.StatusOK {
		t.Errorf("server died after panic: %d %s", cresp.StatusCode, raw)
	}
	samples := scrapeMetrics(t, ts.URL)
	if samples["denali_http_panics_total"] != 1 {
		t.Errorf("panic counter = %g, want 1", samples["denali_http_panics_total"])
	}
}

func TestServePprofMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("goroutine")) {
		t.Errorf("pprof index: status %d body %.80s", resp.StatusCode, raw)
	}
}

// TestServeInflightCountsRequests: the in-flight gauge counts HTTP
// requests, not held compile slots. With both slots held and nothing
// else running, the scrape is the one request in flight.
func TestServeInflightCountsRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}, MaxConcurrent: 2})
	s.limiter <- struct{}{}
	s.limiter <- struct{}{}
	defer func() { <-s.limiter; <-s.limiter }()
	if got := scrapeMetrics(t, ts.URL)["denali_http_inflight_requests"]; got != 1 {
		t.Errorf("denali_http_inflight_requests = %g with both slots held, want 1 (the scrape)", got)
	}
}

func TestServeProcessGaugesRefreshOnScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	samples := scrapeMetrics(t, ts.URL)
	if samples["denali_process_goroutines"] <= 0 {
		t.Errorf("goroutine gauge = %g, want > 0", samples["denali_process_goroutines"])
	}
	if samples["denali_process_heap_alloc_bytes"] <= 0 {
		t.Errorf("heap gauge = %g, want > 0", samples["denali_process_heap_alloc_bytes"])
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp
}

// TestServeRequestIDEcho is the flight-recorder acceptance test: a
// compile posted with X-Request-ID must echo the ID in the response
// header and body, and /debug/requests/{id} must return a report whose
// cycle counts agree with the response.
func TestServeRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})

	body, _ := json.Marshal(CompileRequest{Source: programs.Quickstart})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "abc" {
		t.Errorf("response header X-Request-ID = %q, want abc", got)
	}
	var out CompileResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "abc" {
		t.Errorf("body request_id = %q, want abc", out.RequestID)
	}
	wantCycles := 0
	for _, p := range out.Procs {
		for _, g := range p.GMAs {
			wantCycles += g.Cycles
		}
	}

	var rep flight.Report
	if r := getJSON(t, ts.URL+"/debug/requests/abc", &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/abc status %d", r.StatusCode)
	}
	if rep.ID != "abc" {
		t.Errorf("report id = %q", rep.ID)
	}
	if rep.Error != "" || rep.Panic {
		t.Errorf("report unexpectedly failed: error=%q panic=%v", rep.Error, rep.Panic)
	}
	if rep.Strategy != "linear" {
		t.Errorf("report strategy = %q, want linear", rep.Strategy)
	}
	if rep.SourceBytes != len(programs.Quickstart) {
		t.Errorf("report source_bytes = %d, want %d", rep.SourceBytes, len(programs.Quickstart))
	}
	if rep.Version == "" {
		t.Error("report version empty")
	}
	if rep.WallMillis <= 0 {
		t.Errorf("report wall_ms = %g", rep.WallMillis)
	}
	gotCycles := 0
	for _, g := range rep.GMAs {
		gotCycles += g.Cycles
		if g.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", g.Name)
		}
		if len(g.Probes) == 0 {
			t.Errorf("%s: no probe ladder in report", g.Name)
		}
		if g.EGraphNodes <= 0 || g.EGraphClasses <= 0 {
			t.Errorf("%s: e-graph stats missing: %d nodes %d classes",
				g.Name, g.EGraphNodes, g.EGraphClasses)
		}
	}
	if len(rep.GMAs) == 0 || gotCycles != wantCycles {
		t.Errorf("report cycles = %d over %d GMAs, response total = %d",
			gotCycles, len(rep.GMAs), wantCycles)
	}
}

func TestServeRequestIDGeneratedAndSanitized(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})

	// No header: the server mints an ID and reports it back.
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out CompileResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID == "" || out.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("generated id: body %q, header %q", out.RequestID, resp.Header.Get("X-Request-ID"))
	}

	// A hostile header is sanitized before it reaches logs or reports.
	body, _ := json.Marshal(CompileRequest{Source: programs.Quickstart})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "evil id!")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hresp.StatusCode, hraw)
	}
	if got := hresp.Header.Get("X-Request-ID"); got != "evil_id_" {
		t.Errorf("sanitized id = %q, want evil_id_", got)
	}
	var rep flight.Report
	if r := getJSON(t, ts.URL+"/debug/requests/evil_id_", &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/evil_id_ status %d", r.StatusCode)
	}
	if rep.ID != "evil_id_" {
		t.Errorf("report id = %q", rep.ID)
	}
}

func TestServeDebugRequestsIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}, FlightRing: 4})

	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(CompileRequest{Source: programs.Quickstart})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", fmt.Sprintf("req-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, resp.StatusCode)
		}
	}

	var idx requestsIndexJSON
	if r := getJSON(t, ts.URL+"/debug/requests", &idx); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status %d", r.StatusCode)
	}
	if idx.Count != 3 || len(idx.Reports) != 3 {
		t.Fatalf("count = %d, reports = %d, want 3", idx.Count, len(idx.Reports))
	}
	// Newest first.
	for i, want := range []string{"req-2", "req-1", "req-0"} {
		if idx.Reports[i].ID != want {
			t.Errorf("reports[%d].ID = %q, want %q", i, idx.Reports[i].ID, want)
		}
	}

	var last requestsIndexJSON
	if r := getJSON(t, ts.URL+"/debug/requests?n=1", &last); r.StatusCode != http.StatusOK {
		t.Fatalf("?n=1 status %d", r.StatusCode)
	}
	if last.Count != 1 || last.Reports[0].ID != "req-2" {
		t.Errorf("?n=1 = %+v, want just req-2", last.Reports)
	}

	if r := getJSON(t, ts.URL+"/debug/requests?n=bogus", nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("?n=bogus status %d, want 400", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/debug/requests/nosuch", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", r.StatusCode)
	}
}

// TestServeErrorReportCaptured: a rejected compile still files a flight
// report so failed requests are debuggable after the fact.
func TestServeErrorReportCaptured(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	body, _ := json.Marshal(CompileRequest{Source: "this is not denali"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "broken-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var e errorJSON
	if err := json.Unmarshal(raw, &e); err != nil || e.RequestID != "broken-1" {
		t.Errorf("error body should carry request_id: %s", raw)
	}
	var rep flight.Report
	if r := getJSON(t, ts.URL+"/debug/requests/broken-1", &rep); r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/broken-1 status %d", r.StatusCode)
	}
	if rep.Error == "" {
		t.Error("failed compile produced a report without an error")
	}
}

func TestServeAccessLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}, AccessLog: &buf})

	body, _ := json.Marshal(CompileRequest{Source: programs.Quickstart})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "log-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var line accessLine
	found := false
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var al accessLine
		if err := json.Unmarshal([]byte(l), &al); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", l, err)
		}
		if al.ID == "log-me" {
			line, found = al, true
		}
	}
	if !found {
		t.Fatalf("no access line for log-me in:\n%s", buf.String())
	}
	if line.Method != "POST" || line.Path != "/compile" || line.Status != 200 {
		t.Errorf("access line = %+v", line)
	}
	if line.Strategy != "linear" || line.Cycles <= 0 {
		t.Errorf("compile outcome missing from access line: %+v", line)
	}
	if line.Millis < 0 {
		t.Errorf("negative duration: %+v", line)
	}
}

func TestServeVersionAndBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: repro.Options{Arch: "ev6"}})
	var v versionJSON
	if r := getJSON(t, ts.URL+"/version", &v); r.StatusCode != http.StatusOK {
		t.Fatalf("/version status %d", r.StatusCode)
	}
	if v.Version == "" || !strings.HasPrefix(v.Go, "go") {
		t.Errorf("version = %+v", v)
	}

	samples := scrapeMetrics(t, ts.URL)
	foundBuild := false
	for k, val := range samples {
		if strings.HasPrefix(k, "denali_build_info{") {
			foundBuild = true
			if val != 1 {
				t.Errorf("%s = %g, want 1", k, val)
			}
			if !strings.Contains(k, `version=`) || !strings.Contains(k, `goversion=`) {
				t.Errorf("build info labels missing: %s", k)
			}
		}
	}
	if !foundBuild {
		t.Error("denali_build_info not exported")
	}
	if up, ok := samples["denali_process_uptime_seconds"]; !ok || up < 0 {
		t.Errorf("denali_process_uptime_seconds = %g (present=%v)", up, ok)
	}
}
