package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/obs"
	"repro/internal/programs"
)

// cacheServer returns a test server with a compile cache of the given
// size (entries) attached, plus its registry for counter assertions.
func cacheServer(t *testing.T, maxEntries int) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewCompilerRegistry()
	cfg := Config{
		Registry: reg,
		Cache:    compilecache.New(compilecache.Config{MaxEntries: maxEntries}),
	}
	_, ts := newTestServer(t, cfg)
	return ts.URL, reg
}

// TestServeCacheHeaderHitMiss: the first compile of a source is a miss,
// the second an identical hit, and the X-Denali-Cache header reports
// each — the response body stays equal modulo request_id and timings.
func TestServeCacheHeaderHitMiss(t *testing.T) {
	url, reg := cacheServer(t, 64)

	resp1, raw1 := postCompile(t, url, CompileRequest{Source: programs.Quickstart})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d: %s", resp1.StatusCode, raw1)
	}
	if h := resp1.Header.Get("X-Denali-Cache"); h != "miss" {
		t.Fatalf("first compile header = %q, want miss", h)
	}
	resp2, raw2 := postCompile(t, url, CompileRequest{Source: programs.Quickstart})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second compile: %d: %s", resp2.StatusCode, raw2)
	}
	if h := resp2.Header.Get("X-Denali-Cache"); h != "hit" {
		t.Fatalf("second compile header = %q, want hit", h)
	}
	if got, want := normalizeResponse(t, raw2), normalizeResponse(t, raw1); got != want {
		t.Fatalf("cached response diverges from fresh:\nfresh: %s\ncached: %s", want, got)
	}
	// Each request keeps its own request ID.
	if id1, id2 := resp1.Header.Get("X-Request-ID"), resp2.Header.Get("X-Request-ID"); id1 == id2 {
		t.Fatalf("cached response reused the origin's request ID %q", id1)
	}
	if v := reg.CounterValue(obs.MCacheHits); v < 1 {
		t.Errorf("hit counter = %v, want >= 1", v)
	}
}

// normalizeResponse blanks the per-request fields (request_id) and every
// timing (all "_ms"-suffixed numbers, at any nesting depth), so cached
// and fresh responses can be compared for byte-equality of the result.
func normalizeResponse(t *testing.T, raw []byte) string {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal response: %v", err)
	}
	var scrub func(any)
	scrub = func(node any) {
		switch n := node.(type) {
		case map[string]any:
			for k, child := range n {
				if k == "request_id" {
					n[k] = ""
					continue
				}
				if k == "ms" || len(k) > 3 && k[len(k)-3:] == "_ms" {
					n[k] = 0.0
					continue
				}
				scrub(child)
			}
		case []any:
			for _, child := range n {
				scrub(child)
			}
		}
	}
	scrub(any(v))
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestServeCacheTriState: the three answers to the "cache" request
// field. true uses the cache (a hit once primed), false compiles without
// it (bypass) and leaves the stored entry serving, and anything that is
// not a bool, such as "refresh", is a 400.
func TestServeCacheTriState(t *testing.T) {
	url, _ := cacheServer(t, 64)
	post := func(cache string) *http.Response {
		t.Helper()
		src, _ := json.Marshal(programs.Quickstart)
		resp, err := http.Post(url+"/compile", "application/json",
			strings.NewReader(`{"source": `+string(src)+`, "cache": `+cache+`}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// Prime the cache.
	if resp, raw := postCompile(t, url, CompileRequest{Source: programs.Quickstart}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d: %s", resp.StatusCode, raw)
	}
	for _, tc := range []struct{ cache, want string }{
		{"true", "hit"},
		{"false", "bypass"},
		{"true", "hit"}, // the bypass neither evicted nor replaced the entry
	} {
		resp := post(tc.cache)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf(`"cache": %s: status %d`, tc.cache, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Denali-Cache"); h != tc.want {
			t.Errorf(`"cache": %s: header = %q, want %s`, tc.cache, h, tc.want)
		}
	}
	for _, bad := range []string{`"refresh"`, `"off"`, `1`} {
		if resp := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf(`"cache": %s: status = %d, want 400`, bad, resp.StatusCode)
		}
	}
}

// TestServeCacheBypassHeader: a caching server labels every answer it
// gives without its cache "bypass" — a request with "cache": false and
// stochastic requests alike — and neither touches the cache.
func TestServeCacheBypassHeader(t *testing.T) {
	url, reg := cacheServer(t, 64)
	reqs := []CompileRequest{
		{Source: programs.Quickstart, Cache: new(bool)},
		{Source: programs.Quickstart, Strategy: "stochastic"},
		{Source: programs.Quickstart, Strategy: "stochastic"},
	}
	for i, req := range reqs {
		resp, raw := postCompile(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, raw)
		}
		if h := resp.Header.Get("X-Denali-Cache"); h != "bypass" {
			t.Errorf("request %d (strategy %q): header = %q, want bypass", i, req.Strategy, h)
		}
	}
	if hits, misses := reg.CounterValue(obs.MCacheHits), reg.CounterValue(obs.MCacheMisses); hits != 0 || misses != 0 {
		t.Errorf("uncached requests touched the cache: %v hits, %v misses", hits, misses)
	}
}

// TestServeNoCacheNoHeader: without a configured cache the header must
// be absent entirely — not "bypass" — so clients can feature-detect.
func TestServeNoCacheNoHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postCompile(t, ts.URL, CompileRequest{Source: programs.Quickstart})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, raw)
	}
	if h, ok := resp.Header["X-Denali-Cache"]; ok {
		t.Fatalf("header present without a cache: %v", h)
	}
}

// TestServeCacheVerifyOnHit: a hit still honors the "verify" option —
// the cached schedule is executable, remapped onto the request's GMA.
func TestServeCacheVerifyOnHit(t *testing.T) {
	url, _ := cacheServer(t, 64)
	postCompile(t, url, CompileRequest{Source: programs.Quickstart})
	resp, raw := postCompile(t, url, CompileRequest{Source: programs.Quickstart, Verify: 16})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify-on-hit: %d: %s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get("X-Denali-Cache"); h != "hit" {
		t.Fatalf("header = %q, want hit", h)
	}
}

// TestServeCacheAlphaRenameHits: an alpha-renamed variant of a cached
// program is a hit, its verified schedule remapped to the new names.
func TestServeCacheAlphaRenameHits(t *testing.T) {
	url, _ := cacheServer(t, 64)
	src := `(\procdecl scale ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))`
	renamed := regexp.MustCompile(`reg6`).ReplaceAllString(src, "banana")
	if resp, raw := postCompile(t, url, CompileRequest{Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d: %s", resp.StatusCode, raw)
	}
	resp, raw := postCompile(t, url, CompileRequest{Source: renamed, Verify: 16})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renamed: %d: %s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get("X-Denali-Cache"); h != "hit" {
		t.Fatalf("alpha-renamed variant: header = %q, want hit", h)
	}
}

// TestServeCacheEviction: a tiny cache evicts; alternating two programs
// through a 1-entry cache never hits.
func TestServeCacheEviction(t *testing.T) {
	url, reg := cacheServer(t, 1)
	a := CompileRequest{Source: `(\procdecl a ((x long)) long (:= (\res (+ x 1))))`}
	b := CompileRequest{Source: `(\procdecl b ((x long)) long (:= (\res (+ x 2))))`}
	for i := 0; i < 2; i++ {
		for _, req := range []CompileRequest{a, b} {
			resp, raw := postCompile(t, url, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compile: %d: %s", resp.StatusCode, raw)
			}
			if h := resp.Header.Get("X-Denali-Cache"); h != "miss" {
				t.Fatalf("1-entry cache with alternating programs: header = %q, want miss", h)
			}
		}
	}
	if v := reg.CounterValue(obs.MCacheEvictions); v < 3 {
		t.Errorf("eviction counter = %v, want >= 3", v)
	}
	if v := reg.GaugeValue(obs.MCacheEntries); v != 1 {
		t.Errorf("entries gauge = %v, want 1", v)
	}
}

// TestServeCacheStampede: concurrent identical requests against one
// server compile once — the rest hit or coalesce, never a second miss.
func TestServeCacheStampede(t *testing.T) {
	url, reg := cacheServer(t, 64)
	const n = 8
	headers := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postCompile(t, url, CompileRequest{Source: programs.Byteswap4})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compile %d: %d: %s", i, resp.StatusCode, raw)
				return
			}
			headers[i] = resp.Header.Get("X-Denali-Cache")
		}()
	}
	wg.Wait()
	counts := map[string]int{}
	for _, h := range headers {
		counts[h]++
	}
	if counts["miss"] != 1 {
		t.Fatalf("want exactly 1 miss, got %v", counts)
	}
	if counts["miss"]+counts["hit"]+counts["coalesced"] != n {
		t.Fatalf("unexpected outcomes: %v", counts)
	}
	if v := reg.CounterValue(obs.MCacheMisses); v != 1 {
		t.Errorf("miss counter = %v, want 1", v)
	}
}

// TestServeCacheFlightReport: a hit's flight report row carries
// cache_hit and the origin request's ID, under the requester's own ID.
func TestServeCacheFlightReport(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Cache: compilecache.New(compilecache.Config{MaxEntries: 8}),
	})
	req1, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", jsonBody(t, CompileRequest{Source: programs.Quickstart}))
	req1.Header.Set("X-Request-ID", "origin-req")
	resp1, err := http.DefaultClient.Do(req1)
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", jsonBody(t, CompileRequest{Source: programs.Quickstart}))
	req2.Header.Set("X-Request-ID", "hit-req")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()

	resp, err := http.Get(ts.URL + "/debug/requests/hit-req")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep struct {
		ID   string `json:"id"`
		GMAs []struct {
			Name        string `json:"name"`
			CacheHit    bool   `json:"cache_hit"`
			CacheOrigin string `json:"cache_origin"`
			Cycles      int    `json:"cycles"`
		} `json:"gmas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "hit-req" || len(rep.GMAs) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	for _, g := range rep.GMAs {
		if !g.CacheHit {
			t.Errorf("%s: cache_hit not set", g.Name)
		}
		if g.CacheOrigin != "origin-req" {
			t.Errorf("%s: cache_origin = %q, want origin-req", g.Name, g.CacheOrigin)
		}
		if g.Cycles <= 0 {
			t.Errorf("%s: replayed report lost cycles", g.Name)
		}
	}
}

func jsonBody(t *testing.T, req CompileRequest) io.Reader {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}
