// Package serve turns the Denali compiler into a long-running HTTP
// service — the first entry point built for the process-level telemetry
// layer rather than for one-shot CLI runs. The service exposes:
//
//	POST /compile        Denali source in (JSON), compiled program out:
//	                     per-GMA cycles/instructions/assembly/probe stats,
//	                     optionally the request's Chrome trace JSON
//	GET  /metrics        Prometheus text exposition (v0.0.4) of the shared
//	                     *obs.Registry plus process gauges
//	GET  /healthz        liveness: 200 while the process runs
//	GET  /readyz         readiness: 200 while accepting work, 503 during
//	                     graceful drain
//	GET  /version        build identity (version + Go version) as JSON
//	GET  /debug/requests        the last N flight reports, newest first
//	GET  /debug/requests/{id}   the full flight report for one request
//	GET  /debug/history         the compile-history warehouse snapshot:
//	                            per-key aggregates (fingerprint × arch ×
//	                            strategy) of every compile this process
//	                            served
//	GET  /debug/history/{fp}    the aggregates for one GMA fingerprint
//	                            (prefix match)
//	GET  /debug/pprof/   the standard net/http/pprof handlers
//
// Every request carries a request ID: accepted from an X-Request-ID
// header (sanitized — it is untrusted input), generated otherwise, echoed
// in the X-Request-ID response header and the response body, and threaded
// through the whole pipeline (trace spans, DIMACS provenance, the flight
// report). Each /compile leaves a flight.Report in an in-process ring, so
// "what happened to request X?" is answerable after the response is gone;
// Config.AccessLog additionally emits one JSON line per request.
//
// With Config.Cache set, each /compile consults the in-memory compile
// cache, and the X-Denali-Cache response header says how it answered:
// hit, miss, coalesced (joined an identical compile in flight), or
// bypass (answered without the cache: the request sent "cache": false,
// or asked for the stochastic strategy, which the cache never answers).
//
// Every /compile request is panic-isolated, bounded by a per-request
// timeout, and admitted through a concurrency limiter sized from
// Options.Workers so a burst cannot oversubscribe the SAT workers.
// Shutdown is graceful: the listener stops accepting, /readyz flips to
// 503 (so load balancers drain), and in-flight compilations get
// DrainTimeout to finish.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/history"
	"repro/internal/obs"
)

// HTTP-layer metric names, alongside the denali_* pipeline families.
const (
	mHTTPRequests  = "denali_http_requests_total"
	mHTTPSeconds   = "denali_http_request_seconds"
	mHTTPInflight  = "denali_http_inflight_requests"
	mHTTPPanics    = "denali_http_panics_total"
	mRejected      = "denali_compile_rejected_total"
	mUptimeSeconds = "denali_process_uptime_seconds"
	mGoroutines    = "denali_process_goroutines"
	mHeapBytes     = "denali_process_heap_alloc_bytes"
	mNumGC         = "denali_process_gc_cycles_total"
)

// Config configures the service.
type Config struct {
	// Addr is the listen address (e.g. ":8473", "127.0.0.1:0").
	Addr string
	// Options are the base compile options applied to every request;
	// requests may override arch/strategy/budget knobs but cannot raise
	// Workers above the configured value (MaxConcurrent when Workers is
	// unset).
	Options repro.Options
	// MaxConcurrent bounds concurrently executing /compile requests.
	// <= 0 derives the bound from Options.Workers (or GOMAXPROCS).
	MaxConcurrent int
	// QueueTimeout bounds how long an admitted request may wait for a
	// limiter slot before being rejected 503 (default 5s).
	QueueTimeout time.Duration
	// RequestTimeout bounds one compilation (default 60s). The HTTP
	// response is a 504 when exceeded; the abandoned compilation keeps
	// its worker slot until it finishes, which the limiter accounts for.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 15s).
	DrainTimeout time.Duration
	// Registry receives every metric the service and the pipeline
	// publish. Nil allocates a fresh NewCompilerRegistry.
	Registry *obs.Registry
	// MaxSourceBytes bounds the request body (default 1 MiB).
	MaxSourceBytes int64
	// FlightRing bounds the in-process flight-report ring behind
	// /debug/requests. <= 0 uses flight.DefaultRingSize.
	FlightRing int
	// AccessLog, when non-nil, receives one JSON line per HTTP request:
	// request ID, method, path, status, latency, and (for compiles) the
	// strategy and total cycles. Nil disables access logging.
	AccessLog io.Writer
	// Cache, when non-nil, answers repeated identical compiles from the
	// in-memory compile cache and deduplicates concurrent ones (see
	// internal/compilecache). Every successful compile then carries an
	// X-Denali-Cache header (hit/miss/coalesced/bypass); a request opts
	// out with "cache": false. New attaches the cache to the server's
	// registry.
	Cache *compilecache.Cache
}

// Server is one compile service instance.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	limiter chan struct{}
	// inflight counts the HTTP requests instrument is serving right now.
	inflight atomic.Int64
	ready    atomic.Bool
	addr     atomic.Value // string, set once the listener is bound
	// ring keeps the last N flight reports for /debug/requests; hist
	// accumulates them into the per-key warehouse behind /debug/history.
	ring *flight.Ring
	hist *history.Warehouse
	// accessMu serializes access-log lines so concurrent requests cannot
	// interleave bytes within a line.
	accessMu sync.Mutex
}

// New builds a Server from the config, filling defaults.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewCompilerRegistry()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = cfg.Options.Workers
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.FlightRing <= 0 {
		cfg.FlightRing = flight.DefaultRingSize
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		limiter: make(chan struct{}, cfg.MaxConcurrent),
		ring:    flight.NewRing(cfg.FlightRing),
		hist:    history.New(history.Config{}),
	}
	// The cache is usually built at flag-parse time, before a registry
	// exists; attach it to the server's registry so denali_cache_*
	// metrics land on /metrics. Nil-safe on both sides.
	cfg.Cache.SetRegistry(s.reg)
	s.reg.DeclareCounter(mHTTPRequests, "HTTP requests by path and status code.")
	s.reg.DeclareHistogram(mHTTPSeconds, "HTTP request latency by path.", obs.DefSecondsBuckets)
	s.reg.DeclareGauge(mHTTPInflight, "HTTP requests currently being served.")
	s.reg.DeclareCounter(mHTTPPanics, "Handler panics recovered (each answered 500).")
	s.reg.DeclareCounter(mRejected, "Compile requests rejected before running, by reason.")
	s.reg.DeclareGauge(mUptimeSeconds, "Seconds since the registry was constructed.")
	s.reg.DeclareGauge(mGoroutines, "Current goroutine count.")
	s.reg.DeclareGauge(mHeapBytes, "Heap bytes currently allocated.")
	s.reg.DeclareGauge(mNumGC, "Completed GC cycles.")
	// Callers supplying their own (non-compiler) registry still get the
	// build-identity gauge; declaring twice only refreshes help text.
	s.reg.DeclareGauge(obs.MBuildInfo, "Build identity: constant 1, labeled by version and goversion.")
	s.reg.Set(obs.MBuildInfo, 1,
		obs.T("version", buildinfo.Version()), obs.T("goversion", buildinfo.GoVersion()))
	s.ready.Store(true)
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// History returns the server's compile-history warehouse.
func (s *Server) History() *history.Warehouse { return s.hist }

// file lands one finished flight report with its three consumers: the
// ring (for /debug/requests), the warehouse (for /debug/history) and the
// compile metrics on /metrics.
func (s *Server) file(rep flight.Report) {
	s.ring.Add(rep)
	s.hist.Ingest(rep)
	s.publish(rep)
}

// publish derives every compile series from the fresh GMA rows of one
// filed report. Cache-hit and coalesced rows replay an origin compile's
// record, so they add nothing, as in history.
func (s *Server) publish(rep flight.Report) {
	strategy := obs.T("strategy", rep.Strategy)
	for _, g := range rep.GMAs {
		if g.CacheHit || g.Coalesced {
			continue
		}
		if g.Error != "" {
			s.reg.Add(obs.MCompileErrors, 1)
		} else {
			s.reg.Add(obs.MCompiles, 1, strategy)
			s.reg.Observe(obs.MCyclesFound, float64(g.Cycles))
		}
		if g.Panic {
			continue // a panicking compile never finished: only the error counts
		}
		s.reg.Observe(obs.MCompileSeconds, g.CompileMillis/1e3, strategy)
		if g.EGraphNodes > 0 { // saturation finished
			s.reg.Observe(obs.MMatchSeconds, g.MatchMillis/1e3)
			s.reg.Observe(obs.MEGraphNodes, float64(g.EGraphNodes))
		}
		cancelled, superseded := 0, 0
		for _, p := range g.Probes {
			result := obs.T("result", p.Result)
			s.reg.Add(obs.MProbes, 1, result)
			s.reg.Add(obs.MSolverConflicts, float64(p.Conflicts))
			s.reg.Add(obs.MSolverDecisions, float64(p.Decisions))
			s.reg.Add(obs.MSolverPropagations, float64(p.Propagations))
			s.reg.Add(obs.MSolverRestarts, float64(p.Restarts))
			s.reg.Add(obs.MSolverLearned, float64(p.Learned))
			s.reg.Observe(obs.MSolveSeconds, p.Millis/1e3, result)
			s.reg.Observe(obs.MSolveConflicts, float64(p.Conflicts))
			s.reg.Observe(obs.MProbeConflicts, float64(p.Conflicts), result)
			if p.Reused {
				s.reg.Add(obs.MProbeIncrementalReused, 1)
			}
			if p.Cancelled {
				cancelled++
			} else if p.Result == "SAT" && p.K > g.Cycles {
				superseded++
			}
		}
		if rep.Strategy == core.ParallelSearch.String() {
			s.reg.Add(obs.MProbesLaunched, float64(len(g.Probes)))
			if cancelled > 0 {
				s.reg.Add(obs.MProbesCancelled, float64(cancelled))
			}
			if cancelled+superseded > 0 {
				s.reg.Add(obs.MProbeWaste, float64(cancelled+superseded), strategy)
			}
		}
		if g.CertifyResult != "" {
			if g.CertifyResult != "missing" {
				s.reg.Observe(obs.MCertifySeconds, g.CertifyMillis/1e3)
				s.reg.Observe(obs.MCertifySteps, float64(g.CertSteps))
			}
			s.reg.Add(obs.MCertifyChecks, 1, obs.T("result", g.CertifyResult))
		}
		if g.StokeSteps > 0 {
			s.reg.Add(obs.MStokeSteps, float64(g.StokeSteps))
			s.reg.Add(obs.MStokeVerified, float64(g.StokeVerified))
			s.reg.Add(obs.MStokeRejects, float64(g.StokeRejects))
		}
	}
}

// verify runs every compiled GMA of res against the reference semantics
// on n random inputs, counting the trials and the simulated work of each
// GMA that passes. It returns the first failure.
func (s *Server) verify(res *repro.Result, n int) error {
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			if err := g.Verify(n, 1); err != nil {
				return fmt.Errorf("verification of %s failed: %w", g.Name, err)
			}
			s.reg.Add(obs.MVerifyTrials, float64(n))
			s.reg.Add(obs.MSimCycles, float64(n*g.Cycles))
			s.reg.Add(obs.MSimInstrs, float64(n*g.Instructions))
		}
	}
	return nil
}

// Addr returns the bound listen address once ListenAndServe has bound it
// ("" before), so Addr:"127.0.0.1:0" callers can discover the port.
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Handler returns the full route table, for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.instrument("/compile", s.handleCompile))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	mux.HandleFunc("/readyz", s.instrument("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	}))
	mux.HandleFunc("/version", s.instrument("/version", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, versionJSON{Version: buildinfo.Version(), Go: buildinfo.GoVersion()})
	}))
	mux.HandleFunc("/debug/requests", s.instrument("/debug/requests", s.handleRequests))
	mux.HandleFunc("/debug/requests/", s.instrument("/debug/requests/", s.handleRequestByID))
	mux.HandleFunc("/debug/history", s.instrument("/debug/history", s.handleHistory))
	mux.HandleFunc("/debug/history/", s.instrument("/debug/history/", s.handleHistoryByFingerprint))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// drains gracefully. It returns nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr().String())
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: stop admitting (readyz goes 503), let in-flight work finish.
	s.ready.Store(false)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// reqInfo rides the request context from instrument (which mints the
// request ID) into the handler, and carries the compile outcome back out
// for the access log.
type reqInfo struct {
	id       string
	strategy string
	cycles   int
	cache    string
}

type ctxKey struct{}

// requestInfo returns the context's reqInfo, minting a fresh one for
// handlers invoked outside instrument (direct Handler() tests).
func requestInfo(r *http.Request) *reqInfo {
	if info, ok := r.Context().Value(ctxKey{}).(*reqInfo); ok {
		return info
	}
	return &reqInfo{id: flight.NewID()}
}

// accessLine is one JSON access-log record.
type accessLine struct {
	Time     string  `json:"time"`
	ID       string  `json:"id"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Millis   float64 `json:"ms"`
	Strategy string  `json:"strategy,omitempty"`
	Cycles   int     `json:"cycles,omitempty"`
	// Cache mirrors the response's X-Denali-Cache header
	// (hit|miss|coalesced|bypass); empty when no cache is configured.
	Cache string `json:"cache,omitempty"`
}

func (s *Server) logAccess(r *http.Request, info *reqInfo, code int, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(accessLine{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		ID:     info.id,
		Method: r.Method,
		Path:   r.URL.Path,
		Status: code,
		Millis: float64(d.Microseconds()) / 1e3,
		// Zero for everything but successful compiles (omitted by JSON).
		Strategy: info.strategy,
		Cycles:   info.cycles,
		Cache:    info.cache,
	})
	if err != nil {
		return
	}
	s.accessMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.accessMu.Unlock()
}

// instrument wraps a handler with the request-ID front door, panic
// isolation, the HTTP metrics (in-flight count, per-path latency
// histogram, per-path/code counter) and the access log. The request ID is
// taken from X-Request-ID when present — sanitized, since it is untrusted
// input headed for logs and DIMACS provenance — or generated, and always
// echoed in the X-Request-ID response header. A recovered panic answers
// 500 without taking the process down — one bad request must not kill the
// service for everyone else.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: flight.SanitizeID(r.Header.Get("X-Request-ID"))}
		w.Header().Set("X-Request-ID", info.id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, info))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		defer func() {
			if rec := recover(); rec != nil {
				s.reg.Add(mHTTPPanics, 1)
				// Headers may already be gone; best effort.
				http.Error(sw, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
			s.reg.Observe(mHTTPSeconds, time.Since(t0).Seconds(), obs.T("path", path))
			s.reg.Add(mHTTPRequests, 1, obs.T("path", path), obs.T("code", fmt.Sprintf("%d", sw.code)))
			s.logAccess(r, info, sw.code, time.Since(t0))
		}()
		h(sw, r)
	}
}

// CompileRequest is the POST /compile body. Only Source is required;
// everything else overrides the server's base options for this request.
// A field not listed here is a 400 that names it, so a misspelled
// override is never silently ignored.
type CompileRequest struct {
	// Source is the program in the Denali input language (Figure 6).
	Source string `json:"source"`
	// Arch overrides the machine model (ev6, ev6-noclusters, ...).
	Arch string `json:"arch,omitempty"`
	// Strategy overrides the budget search: linear, binary, descend,
	// parallel, stochastic.
	Strategy string `json:"strategy,omitempty"`
	// Seed fixes the random seed of the stochastic engine for this
	// request, making its search reproducible. Absent (null), the seed is
	// derived from the request ID — so replaying a request by ID replays
	// its search exactly. Ignored by the SAT-only strategies.
	Seed *uint64 `json:"seed,omitempty"`
	// Workers overrides repro.Options.Workers for this request: how many
	// of its GMAs compile at once and, under the parallel strategy, how
	// many SAT probes per GMA are in flight. It is capped at the server's
	// configured Options.Workers (or MaxConcurrent when unset), which is
	// also the default. A request with "trace" compiles its GMAs one at a
	// time.
	Workers int `json:"workers,omitempty"`
	// MaxCycles / MaxConflicts override the search bounds.
	MaxCycles    int   `json:"max_cycles,omitempty"`
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// Verify runs each schedule against the reference semantics on this
	// many random inputs before responding.
	Verify int `json:"verify,omitempty"`
	// Certify overrides the server's proof-logging default for this
	// request: when enabled the K−1 refutation behind every optimality
	// claim is re-checked as a DRAT proof and each GMA's "certified" field
	// reports the result. Absent (null) keeps the server's setting.
	Certify *bool `json:"certify,omitempty"`
	// Trace returns the request's pipeline trace as Chrome trace_event
	// JSON in the response (load in chrome://tracing or Perfetto).
	Trace bool `json:"trace,omitempty"`
	// Cache, set to false, compiles this request without the server's
	// compile cache: nothing is read from it or stored in it. Absent or
	// true uses the cache when the server has one. The response reports
	// what happened in the X-Denali-Cache header — the body stays
	// byte-identical between cached and fresh answers (modulo request_id
	// and timings), which the conformance tests rely on.
	Cache *bool `json:"cache,omitempty"`
}

// ProbeJSON is one SAT probe in the response.
type ProbeJSON struct {
	K         int     `json:"k"`
	Result    string  `json:"result"`
	Vars      int     `json:"vars"`
	Clauses   int     `json:"clauses"`
	Conflicts int64   `json:"conflicts"`
	Millis    float64 `json:"ms"`
	// Reused marks that the engine's solver was warm.
	Reused bool `json:"reused,omitempty"`
}

// GMAJSON is one compiled guarded multi-assignment in the response.
type GMAJSON struct {
	Name          string  `json:"name"`
	Cycles        int     `json:"cycles"`
	Instructions  int     `json:"instructions"`
	OptimalProven bool    `json:"optimal_proven"`
	Assembly      string  `json:"assembly"`
	MatchNodes    int     `json:"match_nodes"`
	MatchRounds   int     `json:"match_rounds"`
	MatchMillis   float64 `json:"match_ms"`
	SolveMillis   float64 `json:"solve_ms"`
	Verified      int     `json:"verified,omitempty"`
	Certified     bool    `json:"certified,omitempty"`
	CertifyMillis float64 `json:"certify_ms,omitempty"`
	// Engine names the search engine that produced the schedule ("sat" or
	// "stochastic"); under the stochastic strategy, "sat" marks a GMA
	// that fell back to the descend sweep.
	Engine string      `json:"engine,omitempty"`
	Probes []ProbeJSON `json:"probes,omitempty"`
}

// ProcJSON is one compiled procedure.
type ProcJSON struct {
	Name string    `json:"name"`
	GMAs []GMAJSON `json:"gmas"`
}

// CompileResponse is the POST /compile reply.
type CompileResponse struct {
	// RequestID echoes the request's ID (also in the X-Request-ID
	// header); GET /debug/requests/{id} serves the matching flight report.
	RequestID  string          `json:"request_id"`
	Procs      []ProcJSON      `json:"procs"`
	WallMillis float64         `json:"wall_ms"`
	Trace      json.RawMessage `json:"trace,omitempty"`
}

// errorJSON is the uniform error reply shape.
type errorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// versionJSON is the GET /version reply.
type versionJSON struct {
	Version string `json:"version"`
	Go      string `json:"go"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// options merges a request's overrides into the server's base options.
func (s *Server) options(req *CompileRequest) (repro.Options, error) {
	opt := s.cfg.Options
	if req.Arch != "" {
		opt.Arch = req.Arch
	}
	if _, err := repro.ArchDescription(opt.Arch); err != nil {
		return opt, err
	}
	if req.Strategy != "" {
		opt.Strategy = req.Strategy
	}
	if _, err := core.ParseStrategy(opt.Strategy); err != nil {
		return opt, err
	}
	if req.Seed != nil {
		opt.Seed = req.Seed
	}
	maxWorkers := s.cfg.Options.Workers
	if maxWorkers <= 0 {
		maxWorkers = s.cfg.MaxConcurrent
	}
	if req.Workers > 0 {
		opt.Workers = req.Workers
	}
	if opt.Workers <= 0 || opt.Workers > maxWorkers {
		opt.Workers = maxWorkers
	}
	if req.MaxCycles > 0 {
		opt.MaxCycles = req.MaxCycles
	}
	if req.MaxConflicts > 0 {
		opt.MaxConflicts = req.MaxConflicts
	}
	if req.Certify != nil {
		opt.Certify = *req.Certify
	}
	opt.Cache = s.cfg.Cache
	if req.Cache != nil && !*req.Cache {
		opt.Cache = nil
	}
	return opt, nil
}

// cacheOutcome aggregates the per-GMA cache outcomes of one program
// compiled on a caching server into the X-Denali-Cache header value,
// worst-first: a fresh compile anywhere makes the whole response a
// "miss", else coalescing wins over plain hits, so the header always
// names the most expensive path any GMA took. A program no GMA of which
// went through the cache ("cache": false, or the stochastic strategy)
// is a "bypass".
func cacheOutcome(res *repro.Result) string {
	saw := map[string]bool{}
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			saw[g.Cache] = true
		}
	}
	switch {
	case saw["miss"]:
		return "miss"
	case saw["coalesced"]:
		return "coalesced"
	case saw["hit"]:
		return "hit"
	}
	return string(compilecache.OutcomeBypass)
}

// readCompileRequest reads and decodes a compile body — either the JSON
// envelope or raw Denali source (text/plain), so `curl --data-binary
// @file.dn` works without quoting. The envelope admits only the fields
// of CompileRequest. A non-zero code (with its message) means the
// request was rejected.
func (s *Server) readCompileRequest(r *http.Request) (req CompileRequest, code int, msg string) {
	body := io.LimitReader(r.Body, s.cfg.MaxSourceBytes+1)
	raw, err := io.ReadAll(body)
	if err != nil {
		return req, http.StatusBadRequest, "read body: " + err.Error()
	}
	if int64(len(raw)) > s.cfg.MaxSourceBytes {
		s.reg.Add(mRejected, 1, obs.T("reason", "too_large"))
		return req, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes)
	}
	trimmed := strings.TrimSpace(string(raw))
	if strings.HasPrefix(trimmed, "{") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, http.StatusBadRequest, "decode request: " + err.Error()
		}
		if _, err := dec.Token(); err != io.EOF {
			return req, http.StatusBadRequest, "decode request: data after the JSON object"
		}
	} else {
		req.Source = string(raw)
	}
	if strings.TrimSpace(req.Source) == "" {
		return req, http.StatusBadRequest, "empty source"
	}
	return req, 0, ""
}

// retryAfterSeconds is the Retry-After a saturated server attaches to its
// busy 503s: the queue timeout in whole seconds, at least one.
func (s *Server) retryAfterSeconds() string {
	secs := int(s.cfg.QueueTimeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	info := requestInfo(r)
	// reject answers an error and leaves a minimal flight report in the
	// ring, so /debug/requests explains rejected requests too.
	reject := func(code int, msg string) {
		rep := flight.NewReport(info.id)
		rep.Error = msg
		s.file(rep)
		writeJSON(w, code, errorJSON{Error: msg, RequestID: info.id})
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST only", RequestID: info.id})
		return
	}
	if !s.ready.Load() {
		s.reg.Add(mRejected, 1, obs.T("reason", "draining"))
		reject(http.StatusServiceUnavailable, "server draining")
		return
	}
	req, code, msg := s.readCompileRequest(r)
	if code != 0 {
		reject(code, msg)
		return
	}
	// Resolve the options before admission: a request that can never
	// succeed is a 400 now, not a busy 503 inviting a retry after it
	// waited out the queue.
	opt, err := s.options(&req)
	if err != nil {
		reject(http.StatusBadRequest, err.Error())
		return
	}

	// Admission: a limiter slot within QueueTimeout, or 503. The limiter
	// bounds compile concurrency independently of net/http's own pool.
	admit := time.NewTimer(s.cfg.QueueTimeout)
	defer admit.Stop()
	select {
	case s.limiter <- struct{}{}:
	case <-admit.C:
		s.reg.Add(mRejected, 1, obs.T("reason", "busy"))
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		reject(http.StatusServiceUnavailable, "server busy: concurrency limit reached")
		return
	case <-r.Context().Done():
		s.reg.Add(mRejected, 1, obs.T("reason", "client_gone"))
		reject(http.StatusServiceUnavailable, "client cancelled while queued")
		return
	}

	var tr *obs.Trace
	if req.Trace {
		tr = obs.New()
		opt.Trace = tr
	}
	// Thread the request ID through the pipeline and attach the flight
	// recorder; the assembled report lands in the ring whenever the
	// compile finishes, even after the HTTP response has timed out — the
	// ring is exactly where "what happened to request X?" gets answered.
	fr := flight.NewRecorder(info.id)
	opt.RequestID = info.id
	opt.Flight = fr
	info.strategy = opt.StrategyName()
	fr.SetRequest(opt.Arch, info.strategy, opt.Workers, len(req.Source))

	type compileOut struct {
		res  *repro.Result
		wall time.Duration
		err  error
	}
	outc := make(chan compileOut, 1)
	// The worker and the deadline race to settle the request; whichever
	// takes mu first decides whether the compile finished in time. Either
	// way the worker files the request's one report.
	var mu sync.Mutex
	var finished, timedOut bool
	timeoutMsg := fmt.Sprintf("compilation exceeded %v", s.cfg.RequestTimeout)
	go func() {
		var out compileOut
		// The compile worker carries its own panic isolation: a panic here
		// is outside the handler goroutine, so the instrument() recover
		// cannot catch it.
		defer func() {
			if rec := recover(); rec != nil {
				out = compileOut{err: fmt.Errorf("internal panic: %v", rec)}
				fr.Fail(out.err.Error(), true)
			}
			mu.Lock()
			finished = true
			rep := fr.Report(out.wall)
			rep.Timeout = timedOut
			mu.Unlock()
			s.file(rep)
			outc <- out
			<-s.limiter
		}()
		t0 := time.Now()
		res, err := repro.Compile(req.Source, opt)
		out.wall = time.Since(t0)
		if err == nil && req.Verify > 0 {
			err = s.verify(res, req.Verify)
		}
		if err != nil {
			fr.Fail(err.Error(), false)
		}
		out.res, out.err = res, err
	}()

	deadline := time.NewTimer(s.cfg.RequestTimeout)
	defer deadline.Stop()
	var out compileOut
	select {
	case out = <-outc:
	case <-deadline.C:
		mu.Lock()
		timedOut = !finished
		if timedOut {
			// A compile error, if one comes, replaces this message. Until the
			// worker files the full report, a snapshot in the ring (not the
			// warehouse) explains the 504; added under mu, it is always older
			// than that report, which shadows it.
			fr.Fail(timeoutMsg, false)
			marker := fr.Report(s.cfg.RequestTimeout)
			marker.Timeout = true
			s.ring.Add(marker)
		}
		mu.Unlock()
		if !timedOut {
			out = <-outc
			break
		}
		// The compilation has no cancellation point; it keeps its limiter
		// slot until it finishes, so sustained timeouts degrade into 503s
		// rather than oversubscription.
		s.reg.Add(mRejected, 1, obs.T("reason", "timeout"))
		writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: timeoutMsg, RequestID: info.id})
		return
	}
	if out.err != nil {
		// Compilation errors are the client's program, not the server:
		// 422 keeps them distinct from transport-level 400s.
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: out.err.Error(), RequestID: info.id})
		return
	}
	if s.cfg.Cache != nil {
		info.cache = cacheOutcome(out.res)
		w.Header().Set("X-Denali-Cache", info.cache)
	}
	resp := buildResponse(out.res, out.wall, tr, req.Verify)
	resp.RequestID = info.id
	for _, p := range resp.Procs {
		for _, g := range p.GMAs {
			info.cycles += g.Cycles
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// gmaJSON renders one compiled GMA into the response shape.
func gmaJSON(g *repro.CompiledGMA, verified int) GMAJSON {
	gj := GMAJSON{
		Name:          g.Name,
		Cycles:        g.Cycles,
		Instructions:  g.Instructions,
		OptimalProven: g.OptimalProven,
		Assembly:      g.Assembly,
		MatchNodes:    g.Match.Nodes,
		MatchRounds:   g.Match.Rounds,
		MatchMillis:   float64(g.Match.Elapsed.Microseconds()) / 1e3,
		SolveMillis:   float64(g.SolveTime.Microseconds()) / 1e3,
		Verified:      verified,
		Certified:     g.Certified,
		CertifyMillis: float64(g.CertifyTime.Microseconds()) / 1e3,
		Engine:        g.Engine,
	}
	for _, p := range g.Probes {
		gj.Probes = append(gj.Probes, ProbeJSON{
			K: p.K, Result: p.Result, Vars: p.Vars, Clauses: p.Clauses,
			Conflicts: p.Conflicts, Millis: float64(p.Elapsed.Microseconds()) / 1e3,
			Reused: p.Reused,
		})
	}
	return gj
}

func buildResponse(res *repro.Result, wall time.Duration, tr *obs.Trace, verified int) CompileResponse {
	resp := CompileResponse{WallMillis: float64(wall.Microseconds()) / 1e3}
	for _, proc := range res.Procs {
		pj := ProcJSON{Name: proc.Name}
		for _, g := range proc.GMAs {
			pj.GMAs = append(pj.GMAs, gmaJSON(g, verified))
		}
		resp.Procs = append(resp.Procs, pj)
	}
	if tr != nil {
		var sb strings.Builder
		if err := tr.WriteChromeTrace(&sb); err == nil {
			resp.Trace = json.RawMessage(sb.String())
		}
	}
	return resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the process gauges, and the in-flight count instrument
	// keeps, at scrape time so they are always current without a
	// background ticker. The scrape itself is one of the requests in
	// flight.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Set(mUptimeSeconds, time.Since(s.reg.StartTime()).Seconds())
	s.reg.Set(mGoroutines, float64(runtime.NumGoroutine()))
	s.reg.Set(mHeapBytes, float64(ms.HeapAlloc))
	s.reg.Set(mNumGC, float64(ms.NumGC))
	s.reg.Set(mHTTPInflight, float64(s.inflight.Load()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// requestsIndexJSON is the GET /debug/requests reply: a shallow view of
// the newest reports (per-GMA ladders are one click away at the ID).
type requestsIndexJSON struct {
	Count   int             `json:"count"`
	Reports []flight.Report `json:"reports"`
}

// handleRequests serves the last-N flight reports, newest first. ?n=
// bounds the count (default 32, capped at the ring size).
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET only"})
		return
	}
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: "n must be a positive integer"})
			return
		}
		n = v
	}
	reps := s.ring.Last(n)
	if reps == nil {
		reps = []flight.Report{}
	}
	writeJSON(w, http.StatusOK, requestsIndexJSON{Count: len(reps), Reports: reps})
}

// handleHistory serves the full warehouse snapshot: every per-key
// aggregate this process has accumulated, sorted most-compiled first.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.hist.Snapshot())
}

// historyByFingerprintJSON is the GET /debug/history/{fingerprint}
// reply: every aggregate whose fingerprint starts with the given prefix
// (fingerprints are long hashes; a prefix is how humans quote them).
type historyByFingerprintJSON struct {
	Fingerprint string               `json:"fingerprint"`
	Count       int                  `json:"count"`
	Keys        []*history.Aggregate `json:"keys"`
}

func (s *Server) handleHistoryByFingerprint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET only"})
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/debug/history/")
	if fp == "" || strings.Contains(fp, "/") {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "want /debug/history/{fingerprint}"})
		return
	}
	snap := s.hist.Snapshot()
	out := historyByFingerprintJSON{Fingerprint: fp, Keys: []*history.Aggregate{}}
	for _, a := range snap.Keys {
		if strings.HasPrefix(a.Fingerprint, fp) {
			out.Keys = append(out.Keys, a)
		}
	}
	out.Count = len(out.Keys)
	if out.Count == 0 {
		writeJSON(w, http.StatusNotFound,
			errorJSON{Error: fmt.Sprintf("no history for fingerprint %q", fp)})
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRequestByID serves the full flight report for one request ID.
func (s *Server) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET only"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "want /debug/requests/{id}"})
		return
	}
	rep, ok := s.ring.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorJSON{Error: fmt.Sprintf("no report for request %q (ring keeps the last %d)", id, s.cfg.FlightRing)})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
