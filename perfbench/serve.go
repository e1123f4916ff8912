package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/compilecache"
	"repro/internal/serve"
)

const (
	// missShare is the share of requests that are never-seen programs.
	missShare = 0.1
	// zipfS is the Zipf exponent of corpus popularity.
	zipfS = 1.1
	// serveBatch is how many completed requests make one serve-zipf pass.
	serveBatch = 200
	// serveSetUpRuns is how many times a serve-zipf run repeats its
	// set-up (about a second each) for setup_s.
	serveSetUpRuns = 3
)

// server is an in-process compile service on a loopback listener with
// the compile cache on, plus the HTTP client that drives it.
type server struct {
	srv    *serve.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startServer binds a fresh service on 127.0.0.1 and waits until it
// accepts connections.
func startServer() (*server, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", Cache: compilecache.New(compilecache.Config{})})
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{srv: srv, cancel: cancel, done: make(chan error, 1), client: &http.Client{}}
	go func() { s.done <- srv.ListenAndServe(ctx) }()
	bound := time.Now().Add(10 * time.Second)
	for srv.Addr() == "" {
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("serve: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(bound) {
			s.stop()
			return nil, fmt.Errorf("serve: not bound after 10s")
		}
	}
	s.url = "http://" + srv.Addr() + "/compile"
	return s, nil
}

// stop shuts the service down and waits for it to exit.
func (s *server) stop() {
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
}

// answer is one served request as the client saw it. cpu is the process
// CPU time of the whole exchange, request generation included.
type answer struct {
	status int
	cache  string // X-Denali-Cache
	lat    time.Duration
	cpu    time.Duration
	done   time.Time
	resp   serve.CompileResponse
}

// post sends one compile request and reads the whole reply. The latency
// runs from sending the request to reading the last byte of the body.
func (s *server) post(src string, certify bool) (answer, error) {
	req := serve.CompileRequest{Source: src}
	if certify {
		req.Certify = &certify
	}
	body, err := json.Marshal(req)
	if err != nil {
		return answer{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{status: resp.StatusCode, cache: resp.Header.Get("X-Denali-Cache"), done: time.Now()}
	a.lat = a.done.Sub(t0)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return a, json.Unmarshal(data, &a.resp)
}

// checkServed compares every GMA of a served answer with its reference.
func checkServed(refs map[string]ref, a answer) error {
	for _, p := range a.resp.Procs {
		for _, g := range p.GMAs {
			if err := checkAnswer(refs, g.Name, g.Cycles, g.OptimalProven); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveLoad is serve-zipf ready to measure: a running service whose
// cache holds every corpus program.
type serveLoad struct {
	*server
	refs map[string]ref
}

// setUpServe binds a service and warms its cache with every corpus
// program, checking each warm answer.
func setUpServe(seed int64, rep *report) (serveLoad, error) {
	refs, err := loadRefs()
	if err != nil {
		return serveLoad{}, err
	}
	s, err := startServer()
	if err != nil {
		return serveLoad{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range serveCorpus {
		a, err := s.post(renameCorpus(rng, p.src), false)
		if err == nil {
			err = checkServed(refs, a)
		}
		if err != nil {
			err = fmt.Errorf("warming %s: %w", p.name, err)
		}
		rep.op(err)
	}
	return serveLoad{server: s, refs: refs}, nil
}

// clientStream is the closed-loop caller's seeded request stream:
// Zipf-popular alpha-renamed corpus reads and never-seen fresh programs.
type clientStream struct {
	seed  int64
	rng   *rand.Rand
	zipf  *rand.Zipf
	fresh int
}

func newClientStream(seed int64) *clientStream {
	rng := rand.New(rand.NewSource(seed + 1))
	return &clientStream{seed: seed, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(serveCorpus)-1))}
}

// next returns the next request's source and whether it is a fresh miss.
func (c *clientStream) next() (string, bool) {
	if c.rng.Float64() < missShare {
		p := freshProgram(c.seed, c.fresh)
		c.fresh++
		return p.src, true
	}
	return renameCorpus(c.rng, serveCorpus[c.zipf.Uint64()].src), false
}

// drive runs one closed-loop client against the service until the
// deadline and returns every answer, with one error (or nil) per answer.
// One client, not two, although two would model a build running 2
// parallel jobs: two saturate both cores of the 2-core reference host,
// and with one the service handles one request at a time, so the process
// CPU time of each exchange is that request's own cost.
func (l serveLoad) drive(seed int64, until time.Time, sp *spans) ([]answer, []error) {
	stream := newClientStream(seed)
	var all []answer
	var errs []error
	for time.Now().Before(until) {
		c0 := cpuTime()
		src, fresh := stream.next()
		id := -1
		if sp != nil {
			id = sp.begin("serve.request", -1, 1)
		}
		a, err := l.post(src, false)
		if sp != nil {
			sp.end(id)
		}
		a.cpu = cpuTime() - c0
		if err == nil {
			err = checkServed(l.refs, a)
		}
		if err == nil && fresh && a.cache != "miss" {
			err = fmt.Errorf("fresh program answered %q, want a cache miss", a.cache)
		}
		all = append(all, a)
		errs = append(errs, err)
	}
	return all, errs
}

func runServe(cfg config, rep *report) error {
	load, setup, err := setUp(serveSetUpRuns, func() (serveLoad, error) {
		return setUpServe(cfg.seed, rep)
	}, func(l serveLoad) { l.stop() })
	if err != nil {
		return err
	}
	defer load.stop()
	start := time.Now()
	all, errs := load.drive(cfg.seed, start.Add(cfg.dur), nil)
	for _, err := range errs {
		rep.op(err)
	}
	all = answered(all)
	if len(all) == 0 {
		return fmt.Errorf("no request completed")
	}
	var lat, cpu, batches []float64
	var batch time.Duration
	for i, a := range all {
		lat = append(lat, ms(a.lat))
		cpu = append(cpu, ms(a.cpu))
		batch += a.cpu
		if (i+1)%serveBatch == 0 {
			batches = append(batches, batch.Seconds())
			batch = 0
		}
	}
	hit, miss := byOutcome(all)
	// The answer check: one renamed request per corpus program, all hits.
	var got answers
	rng := rand.New(rand.NewSource(^cfg.seed))
	for _, p := range serveCorpus {
		a, err := load.post(renameCorpus(rng, p.src), false)
		if err == nil {
			err = checkServed(load.refs, a)
		}
		rep.op(err)
		for _, pr := range a.resp.Procs {
			for _, g := range pr.GMAs {
				got.add(g.Cycles, g.Instructions, g.OptimalProven, g.Certified)
			}
		}
	}
	rep.set("setup_s", "s", setup)
	if len(batches) == 0 {
		batches = append(batches, mean(cpu)*serveBatch/1e3)
	}
	rep.set("compile_s", "s", median(batches))
	rep.set("req_per_cpu_s", "1/s", serveBatch/median(batches))
	rep.set("req_cpu_ms_p50", "ms", median(cpu))
	rep.set("req_cpu_ms_tail", "ms", quantile(cpu, 0.99))
	rep.set("cycles_sum", "cycles", float64(got.cycles))
	rep.set("instrs_sum", "instrs", float64(got.instrs))
	rep.set("optimal_share", "share", share(got.optimal, got.gmas))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	elapsed := all[len(all)-1].done.Sub(start).Seconds()
	rep.note("%d requests from one closed-loop client, %d batches of %d, tail = p99; set-up is the median of %d",
		len(all), len(batches), serveBatch, serveSetUpRuns)
	rep.note("wall: %.6g req/s, p50 %.6g ms, p99 %.6g ms (wall time also counts time the host took the CPUs away)",
		float64(len(all))/elapsed, median(lat), quantile(lat, 0.99))
	rep.note("hit_ms_p50 %.6g ms (%d hits)", median(hit), len(hit))
	rep.note("miss_ms_p50 %.6g ms (%d misses)", median(miss), len(miss))
	return nil
}

// answered keeps the requests that got an HTTP reply.
func answered(all []answer) []answer {
	var out []answer
	for _, a := range all {
		if a.status != 0 {
			out = append(out, a)
		}
	}
	return out
}

// byOutcome splits the latencies of successful answers by the
// X-Denali-Cache outcome.
func byOutcome(all []answer) (hit, miss []float64) {
	for _, a := range all {
		if a.status != http.StatusOK {
			continue
		}
		switch a.cache {
		case "hit":
			hit = append(hit, ms(a.lat))
		case "miss":
			miss = append(miss, ms(a.lat))
		}
	}
	return hit, miss
}

// serveLayers reports the service-layer metrics of a set of answers:
// handler time (the reply's wall_ms), the HTTP remainder, rejections and
// the cache's hit ratio.
func serveLayers(rep *report, all []answer) {
	all = answered(all)
	var handler, rest []float64
	rejected := 0
	for _, a := range all {
		if a.status == http.StatusServiceUnavailable {
			rejected++
		}
		if a.status == http.StatusOK {
			handler = append(handler, a.resp.WallMillis)
			rest = append(rest, ms(a.lat)-a.resp.WallMillis)
		}
	}
	hit, miss := byOutcome(all)
	rep.set("serve.handler_ms", "ms", mean(handler))
	rep.set("serve.http_ms", "ms", mean(rest))
	rep.set("serve.rejected_share", "share", share(rejected, len(all)))
	rep.set("serve.hit_ms_p50", "ms", median(hit))
	rep.set("serve.miss_ms_p50", "ms", median(miss))
	rep.set("compilecache.hit_ratio", "share", share(len(hit), len(all)))
	rep.note("serve layers over %d requests (%d hits, %d misses)", len(all), len(hit), len(miss))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
