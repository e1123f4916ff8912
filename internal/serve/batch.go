// POST /compile/batch: one multi-GMA program in, one NDJSON line per
// compiled GMA out, streamed as results land rather than held until the
// slowest GMA finishes. The endpoint exists for the fleet: a router
// splits the program per GMA (each worker sees the whole source plus an
// Only selector, so axioms and declarations travel with every unit) and
// fans the units out across the ring — each GMA to the shard owning its
// canonical compile key, which is exactly where that GMA's cache entry
// lives. Errors are isolated per GMA: one failing unit yields an error
// line, the rest of the batch still answers. The final line (done:true)
// and the X-Denali-Cache HTTP trailer carry the worst-first cache
// aggregate across the batch. A single-node server serves the same
// endpoint by compiling the units locally under its own limiter.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro"
	"repro/internal/flight"
	"repro/internal/obs"
)

// batchLine is one NDJSON line of a /compile/batch response: either a
// per-GMA result (Proc/Name plus GMA or Error) or, with Done set, the
// final summary line.
type batchLine struct {
	Proc string `json:"proc,omitempty"`
	Name string `json:"name,omitempty"`
	// GMA is the compiled result — the same object /compile answers for
	// this GMA — or nil when Error is set.
	GMA   *GMAJSON `json:"gma,omitempty"`
	Error string   `json:"error,omitempty"`
	// Worker/Attempts record the hop in router mode: which shard answered
	// this unit and how many dispatch attempts it took.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Cache is this unit's cache outcome (hit|miss|coalesced|bypass).
	Cache string `json:"cache,omitempty"`

	// Summary fields, present only on the final line.
	Done       bool    `json:"done,omitempty"`
	RequestID  string  `json:"request_id,omitempty"`
	GMAs       int     `json:"gmas,omitempty"`
	Errors     int     `json:"errors,omitempty"`
	WallMillis float64 `json:"wall_ms,omitempty"`
}

// batchConcurrency is the per-batch fan-out bound. Router mode defaults
// to 2x the fleet size (enough to keep every shard busy with one unit
// queued behind it); worker mode defaults to the server's own compile
// limiter width.
func (s *Server) batchConcurrency() int {
	if s.cfg.BatchConcurrency > 0 {
		return s.cfg.BatchConcurrency
	}
	if s.router != nil {
		return 2 * len(s.cfg.Route)
	}
	return s.cfg.MaxConcurrent
}

// worstCache folds per-unit cache outcomes worst-first, mirroring
// cacheOutcome's ordering for whole-program responses: any fresh compile
// makes the batch a "miss"; coalescing beats plain hits.
func worstCache(saw map[string]bool) string {
	for _, o := range []string{"miss", "coalesced", "hit", "bypass"} {
		if saw[o] {
			return o
		}
	}
	return ""
}

// handleBatch serves POST /compile/batch in both modes. The response
// streams: headers commit before the first unit finishes, so per-unit
// failures are reported in-band as error lines, and the batch-level
// cache aggregate travels in the declared X-Denali-Cache trailer (and,
// for clients that ignore trailers, on the final summary line).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	info := requestInfo(r)
	t0 := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST only", RequestID: info.id})
		return
	}
	if !s.ready.Load() {
		s.sink.Add(mRejected, 1, obs.T("reason", "draining"))
		w.Header().Set(rejectHeader, "draining")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "server draining", RequestID: info.id})
		return
	}
	req, _, code, msg := s.readCompileRequest(r)
	if code != 0 {
		writeJSON(w, code, errorJSON{Error: msg, RequestID: info.id})
		return
	}
	if req.Only != "" {
		writeJSON(w, http.StatusBadRequest,
			errorJSON{Error: `"only" is not valid on /compile/batch (it fans out every GMA)`, RequestID: info.id})
		return
	}
	opt, err := s.options(&req, nil)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error(), RequestID: info.id})
		return
	}
	// The split: parse once, key every GMA. Parse/axiom errors are the
	// whole program's problem, not one unit's — reject before streaming.
	keys, err := repro.Keys(req.Source, opt)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error(), RequestID: info.id})
		return
	}
	if len(keys) == 0 {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorJSON{Error: "program has no GMAs", RequestID: info.id})
		return
	}

	// Worker-mode units share one flight recorder, so the batch files a
	// single report whose GMA rows cover every unit — the same shape a
	// whole-program /compile would file.
	var fr *flight.Recorder
	if s.router == nil {
		fr = flight.NewRecorder(info.id)
		info.strategy = opt.StrategyName()
		fr.SetRequest(opt.Arch, info.strategy, opt.Workers, len(req.Source))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	// Declared before the body so the cache aggregate can be set after
	// the last unit lands; clients that ignore trailers read the same
	// value off the summary line.
	w.Header().Set("Trailer", "X-Denali-Cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Bounded fan-out; results stream in completion order through lines.
	lines := make(chan batchLine)
	sem := make(chan struct{}, s.batchConcurrency())
	go func() {
		defer close(lines)
		var launched int
		done := make(chan struct{})
		for _, kg := range keys {
			kg := kg
			launched++
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; done <- struct{}{} }()
				if s.router != nil {
					lines <- s.batchForward(r, &req, kg, info.id)
				} else {
					lines <- s.batchCompile(r, &req, opt, fr, kg)
				}
			}()
		}
		for i := 0; i < launched; i++ {
			<-done
		}
	}()

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	saw := map[string]bool{}
	errs := 0
	for line := range lines {
		if line.Error != "" {
			errs++
		}
		if line.Cache != "" {
			saw[line.Cache] = true
		}
		if s.router != nil {
			outcome := "ok"
			if line.Error != "" {
				outcome = "error"
			}
			s.sink.Add(obs.MRouterBatchGMAs, 1, obs.T("outcome", outcome))
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	agg := worstCache(saw)
	if agg != "" {
		w.Header().Set("X-Denali-Cache", agg) // lands in the trailer
		info.cache = agg
	}
	wall := time.Since(t0)
	enc.Encode(batchLine{
		Done: true, RequestID: info.id, GMAs: len(keys), Errors: errs,
		Cache: agg, WallMillis: float64(wall.Microseconds()) / 1e3,
	})
	if flusher != nil {
		flusher.Flush()
	}

	if fr != nil {
		if errs > 0 {
			fr.Fail(fmt.Sprintf("%d of %d GMAs failed", errs, len(keys)), false)
		}
		s.file(fr.Report(wall))
	} else {
		rep := flight.NewReport(info.id)
		rep.SourceBytes = len(req.Source)
		rep.WallMillis = float64(wall.Microseconds()) / 1e3
		if errs > 0 {
			rep.Error = fmt.Sprintf("%d of %d GMAs failed", errs, len(keys))
		}
		s.file(rep)
	}
}

// batchForward runs one router-mode unit: the original request narrowed
// to a single GMA (Only), forwarded to the shard owning that GMA's
// compile key under the batch's request ID, the per-GMA object lifted
// out of the worker's whole-response shape.
func (s *Server) batchForward(r *http.Request, req *CompileRequest, kg repro.KeyedGMA, requestID string) batchLine {
	line := batchLine{Proc: kg.Proc, Name: kg.Name}
	unit := *req
	unit.Only = kg.Name
	body, err := json.Marshal(unit)
	if err != nil {
		line.Error = "encode unit: " + err.Error()
		return line
	}
	fwd, err := s.router.forward(r.Context(), "/compile", kg.Key, requestID, "application/json", body)
	line.Worker, line.Attempts = fwd.worker, fwd.attempts
	if err != nil {
		line.Error = "dispatch: " + err.Error()
		return line
	}
	defer fwd.resp.Body.Close()
	line.Cache = fwd.resp.Header.Get("X-Denali-Cache")
	payload, err := io.ReadAll(io.LimitReader(fwd.resp.Body, s.cfg.MaxSourceBytes+(1<<20)))
	if err != nil {
		line.Error = "read upstream: " + err.Error()
		return line
	}
	if fwd.resp.StatusCode != http.StatusOK {
		var e errorJSON
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			line.Error = e.Error
		} else {
			line.Error = fmt.Sprintf("upstream answered %d", fwd.resp.StatusCode)
		}
		return line
	}
	var resp CompileResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		line.Error = "decode upstream: " + err.Error()
		return line
	}
	for _, p := range resp.Procs {
		for i := range p.GMAs {
			if p.GMAs[i].Name == kg.Name {
				line.GMA = &p.GMAs[i]
				return line
			}
		}
	}
	line.Error = fmt.Sprintf("upstream response lacks GMA %q", kg.Name)
	return line
}

// batchCompile runs one worker-mode unit locally: a limiter slot within
// QueueTimeout, then the whole source compiled with Only narrowing it to
// this GMA. Panics are isolated per unit, like /compile isolates per
// request.
func (s *Server) batchCompile(r *http.Request, req *CompileRequest, opt repro.Options, fr *flight.Recorder, kg repro.KeyedGMA) (line batchLine) {
	line = batchLine{Proc: kg.Proc, Name: kg.Name}
	admit := time.NewTimer(s.cfg.QueueTimeout)
	defer admit.Stop()
	select {
	case s.limiter <- struct{}{}:
	case <-admit.C:
		s.sink.Add(mRejected, 1, obs.T("reason", "busy"))
		line.Error = "server busy: concurrency limit reached"
		return line
	case <-r.Context().Done():
		line.Error = "client cancelled while queued"
		return line
	}
	defer func() {
		<-s.limiter
		if rec := recover(); rec != nil {
			line.GMA = nil
			line.Error = fmt.Sprintf("internal panic: %v", rec)
		}
	}()
	unit := opt
	unit.Only = kg.Name
	unit.RequestID = fr.ID()
	unit.Flight = fr
	res, err := repro.Compile(req.Source, unit)
	if err != nil {
		line.Error = err.Error()
		return line
	}
	if req.Verify > 0 {
		if err := s.verify(res, req.Verify); err != nil {
			line.Error = err.Error()
			return line
		}
	}
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			gj := gmaJSON(g, req.Verify)
			line.GMA = &gj
			line.Cache = g.Cache
		}
	}
	if line.GMA == nil {
		line.Error = fmt.Sprintf("compile produced no GMA %q", kg.Name)
	}
	return line
}
