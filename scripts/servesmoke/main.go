// Command servesmoke is verify.sh's end-to-end check of `denali serve`:
// it builds the real binary, starts it on a random loopback port, compiles
// one program over HTTP with an X-Request-ID, asserts the ID is echoed
// and that /debug/requests/{id} serves a flight report consistent with
// the compile response, checks that the default options answer every
// probe of quickstart's tiny GMAs and of byteswap4 on the incremental
// engine, checks /version, scrapes /metrics and asserts the
// compile-latency histogram counted the request, then shuts the server
// down with SIGTERM and requires a clean exit. The compile metrics are
// derived from the filed flight reports, so the SAT probes counted on
// /metrics must equal the probe rows of the fresh GMA records in
// /debug/requests. It exercises the whole
// service path — listener bootstrap, addr-file handshake, raw-source
// POST, the flight-report ring, the shared registry, graceful drain —
// with no test harness in between.
//
// A second phase smokes the fleet: two workers plus a router started
// with -route-file (reusing each worker's -addr-file handshake), a
// routed /compile whose repeat must coalesce as a cache hit on the same
// owning shard, a /compile/batch fanned out over the ring, and a
// SIGTERM'd worker that the router must route around.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flight"
	"repro/internal/programs"
)

const source = `(\procdecl qs ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))`

// batchSource has two GMAs so /compile/batch actually fans out.
const batchSource = `
(\procdecl scale4plus1 ((reg6 long)) long
  (:= (\res (+ (* reg6 4) 1))))

(\procdecl lcp2 ((a long) (b long)) long
  (\var (t long (| a b))
    (:= (\res (& t (\neg64 t))))))
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "denali")
	build := exec.Command("go", "build", "-o", bin, "./cmd/denali")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}

	addrFile := filepath.Join(dir, "addr")
	srv := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "5s")
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start serve: %w", err)
	}
	defer srv.Process.Kill()

	addr, err := waitAddr(addrFile, 10*time.Second)
	if err != nil {
		return err
	}
	base := "http://" + addr

	const reqID = "servesmoke-1"
	creq, err := http.NewRequest(http.MethodPost, base+"/compile", strings.NewReader(source))
	if err != nil {
		return err
	}
	creq.Header.Set("Content-Type", "text/plain")
	creq.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		return fmt.Errorf("POST /compile: %w", err)
	}
	var out struct {
		RequestID string `json:"request_id"`
		Procs     []struct {
			GMAs []struct {
				Cycles        int  `json:"cycles"`
				OptimalProven bool `json:"optimal_proven"`
			} `json:"gmas"`
		} `json:"procs"`
	}
	echoed := resp.Header.Get("X-Request-ID")
	echoedCache := resp.Header.Get("X-Denali-Cache")
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /compile response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/compile answered %d", resp.StatusCode)
	}
	if echoed != reqID || out.RequestID != reqID {
		return fmt.Errorf("request id not echoed: header %q, body %q, want %q", echoed, out.RequestID, reqID)
	}
	if len(out.Procs) != 1 || len(out.Procs[0].GMAs) != 1 {
		return fmt.Errorf("unexpected response shape: %+v", out)
	}
	if g := out.Procs[0].GMAs[0]; g.Cycles != 1 || !g.OptimalProven {
		return fmt.Errorf("reg6*4+1 compiled to %d cycles (optimal=%v), want 1 proven-optimal cycle", g.Cycles, g.OptimalProven)
	}

	// The flight report for that request must be live on the debug
	// endpoint and agree with the response we just decoded.
	resp, err = http.Get(base + "/debug/requests/" + reqID)
	if err != nil {
		return fmt.Errorf("GET /debug/requests/%s: %w", reqID, err)
	}
	var rep struct {
		ID   string `json:"id"`
		GMAs []struct {
			Cycles int              `json:"cycles"`
			Probes []map[string]any `json:"probes"`
		} `json:"gmas"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode flight report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/requests/%s answered %d", reqID, resp.StatusCode)
	}
	if rep.ID != reqID || len(rep.GMAs) != 1 {
		return fmt.Errorf("flight report mismatch: id %q, %d GMAs", rep.ID, len(rep.GMAs))
	}
	if rep.GMAs[0].Cycles != out.Procs[0].GMAs[0].Cycles {
		return fmt.Errorf("flight report says %d cycles, response said %d",
			rep.GMAs[0].Cycles, out.Procs[0].GMAs[0].Cycles)
	}
	if len(rep.GMAs[0].Probes) == 0 {
		return fmt.Errorf("flight report has no probe ladder")
	}

	// The compile cache is on by default: the first request was a miss,
	// an identical re-POST must hit, and "cache": false must bypass.
	if hv := echoedCache; hv != "miss" {
		return fmt.Errorf("first compile X-Denali-Cache = %q, want \"miss\"", hv)
	}
	hv, cycles, err := compileOnce(base, "servesmoke-2", source, "text/plain")
	if err != nil {
		return err
	}
	if hv != "hit" {
		return fmt.Errorf("repeat compile X-Denali-Cache = %q, want \"hit\"", hv)
	}
	if cycles != out.Procs[0].GMAs[0].Cycles {
		return fmt.Errorf("cached compile answered %d cycles, fresh said %d", cycles, out.Procs[0].GMAs[0].Cycles)
	}
	body, err := json.Marshal(map[string]any{"source": source, "cache": false})
	if err != nil {
		return err
	}
	hv, _, err = compileOnce(base, "servesmoke-3", string(body), "application/json")
	if err != nil {
		return err
	}
	if hv != "bypass" {
		return fmt.Errorf("cache:false compile X-Denali-Cache = %q, want \"bypass\"", hv)
	}

	// Every probe runs on the persistent incremental engine, quickstart's
	// two tiny GMAs included.
	if err := probeModes(base, "servesmoke-4", programs.Quickstart); err != nil {
		return err
	}
	if err := probeModes(base, "servesmoke-5", programs.Byteswap4); err != nil {
		return err
	}

	resp, err = http.Get(base + "/version")
	if err != nil {
		return fmt.Errorf("GET /version: %w", err)
	}
	var ver struct {
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ver)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || ver.Version == "" || ver.Go == "" {
		return fmt.Errorf("/version: status %d, body %+v, err %v", resp.StatusCode, ver, err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	var metrics strings.Builder
	_, err = fmt.Fprint(&metrics, readAll(resp))
	if err != nil {
		return err
	}
	count, err := sampleSum(metrics.String(), "denali_compile_seconds_count")
	if err != nil {
		return err
	}
	if count < 1 {
		return fmt.Errorf("compile latency histogram count = %g after one compile, want >= 1", count)
	}
	probes, err := sampleSum(metrics.String(), "denali_sat_probes_total")
	if err != nil {
		return err
	}
	if rows, err := freshProbeRows(base); err != nil || probes != float64(rows) {
		return fmt.Errorf("denali_sat_probes_total = %g, fresh GMA records in /debug/requests hold %d probe rows (%v)", probes, rows, err)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := awaitExit(srv, "serve"); err != nil {
		return err
	}

	return fleetSmoke(bin, dir)
}

// fleetSmoke is the router-mode phase: two workers, one front door wired
// up via -route-file, then the routed single-compile, cache-affinity,
// batch and route-around checks.
func fleetSmoke(bin, dir string) error {
	var workers [2]*exec.Cmd
	var workerAddrs [2]string
	addrFiles := make([]string, 2)
	for i := range workers {
		addrFiles[i] = filepath.Join(dir, fmt.Sprintf("worker%d.addr", i))
		w := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFiles[i], "-drain", "5s")
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		defer w.Process.Kill()
		workers[i] = w
	}
	for i := range workers {
		addr, err := waitAddr(addrFiles[i], 10*time.Second)
		if err != nil {
			return err
		}
		workerAddrs[i] = addr
	}

	routerAddrFile := filepath.Join(dir, "router.addr")
	router := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", routerAddrFile,
		"-route-file", strings.Join(addrFiles, ","), "-route-probe", "100ms", "-drain", "5s")
	router.Stderr = os.Stderr
	if err := router.Start(); err != nil {
		return fmt.Errorf("start router: %w", err)
	}
	defer router.Process.Kill()
	base, err := waitAddr(routerAddrFile, 10*time.Second)
	if err != nil {
		return err
	}
	base = "http://" + base

	// Routed compile: the answer comes from a worker, with the hop
	// recorded in the response headers.
	first, err := routedCompile(base, "fleetsmoke-1", source)
	if err != nil {
		return err
	}
	if first.upstream != workerAddrs[0] && first.upstream != workerAddrs[1] {
		return fmt.Errorf("routed compile upstream %q is not a fleet worker (%v)", first.upstream, workerAddrs)
	}
	if first.cache != "miss" {
		return fmt.Errorf("first routed compile X-Denali-Cache = %q, want \"miss\"", first.cache)
	}

	// Cache affinity: the identical program consistently hashes to the
	// same shard, so the repeat must be a hit on the same worker.
	second, err := routedCompile(base, "fleetsmoke-2", source)
	if err != nil {
		return err
	}
	if second.upstream != first.upstream {
		return fmt.Errorf("repeat compile routed to %q, first went to %q — key affinity broken",
			second.upstream, first.upstream)
	}
	if second.cache != "hit" {
		return fmt.Errorf("repeat routed compile X-Denali-Cache = %q, want \"hit\" on the owning shard", second.cache)
	}
	if second.cycles != first.cycles {
		return fmt.Errorf("cached routed compile answered %d cycles, fresh said %d", second.cycles, first.cycles)
	}

	// Batch over the fleet: every GMA answered, none failed, summary sane.
	if err := routedBatch(base); err != nil {
		return err
	}

	// Route-around: SIGTERM the worker that owns the smoke key; once it
	// is gone the same program must still compile via the other worker.
	victim := 0
	if first.upstream == workerAddrs[1] {
		victim = 1
	}
	if err := workers[victim].Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := awaitExit(workers[victim], fmt.Sprintf("worker %d", victim)); err != nil {
		return err
	}
	third, err := routedCompile(base, "fleetsmoke-3", source)
	if err != nil {
		return fmt.Errorf("compile after worker drain: %w", err)
	}
	if third.upstream != workerAddrs[1-victim] {
		return fmt.Errorf("post-drain compile routed to %q, want the surviving worker %q",
			third.upstream, workerAddrs[1-victim])
	}
	if third.cycles != first.cycles {
		return fmt.Errorf("post-drain compile answered %d cycles, want %d", third.cycles, first.cycles)
	}

	for _, p := range []struct {
		cmd  *exec.Cmd
		name string
	}{{router, "router"}, {workers[1-victim], fmt.Sprintf("worker %d", 1-victim)}} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		if err := awaitExit(p.cmd, p.name); err != nil {
			return err
		}
	}
	return nil
}

// routedResult is what one routed /compile answered.
type routedResult struct {
	upstream string
	attempts string
	cache    string
	cycles   int
}

// routedCompile POSTs one raw-source compile through the router and
// checks the request ID and hop headers.
func routedCompile(base, reqID, src string) (routedResult, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/compile", strings.NewReader(src))
	if err != nil {
		return routedResult{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return routedResult{}, fmt.Errorf("POST /compile (%s): %w", reqID, err)
	}
	var out struct {
		RequestID string `json:"request_id"`
		Procs     []struct {
			GMAs []struct {
				Cycles int `json:"cycles"`
			} `json:"gmas"`
		} `json:"procs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		return routedResult{}, fmt.Errorf("decode routed response (%s): %w", reqID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return routedResult{}, fmt.Errorf("routed /compile (%s) answered %d", reqID, resp.StatusCode)
	}
	if out.RequestID != reqID {
		return routedResult{}, fmt.Errorf("routed request id %q, want %q (must survive the hop)", out.RequestID, reqID)
	}
	if len(out.Procs) != 1 || len(out.Procs[0].GMAs) != 1 {
		return routedResult{}, fmt.Errorf("unexpected routed response shape (%s): %+v", reqID, out)
	}
	r := routedResult{
		upstream: resp.Header.Get("X-Denali-Upstream"),
		attempts: resp.Header.Get("X-Denali-Attempts"),
		cache:    resp.Header.Get("X-Denali-Cache"),
		cycles:   out.Procs[0].GMAs[0].Cycles,
	}
	if r.upstream == "" || r.attempts == "" {
		return routedResult{}, fmt.Errorf("routed response (%s) lacks hop headers: upstream %q attempts %q",
			reqID, r.upstream, r.attempts)
	}
	return r, nil
}

// routedBatch POSTs a two-GMA /compile/batch and checks the NDJSON
// stream: one line per GMA, no errors, and a done summary that agrees.
func routedBatch(base string) error {
	body, err := json.Marshal(map[string]any{"source": batchSource})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/compile/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("POST /compile/batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/compile/batch answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return fmt.Errorf("/compile/batch Content-Type = %q, want application/x-ndjson", ct)
	}
	type line struct {
		Name   string          `json:"name"`
		GMA    json.RawMessage `json:"gma"`
		Error  string          `json:"error"`
		Worker string          `json:"worker"`
		Done   bool            `json:"done"`
		GMAs   int             `json:"gmas"`
		Errors int             `json:"errors"`
	}
	var units int
	var summary *line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad batch line %q: %w", sc.Text(), err)
		}
		if l.Done {
			summary = &l
			continue
		}
		if l.Error != "" {
			return fmt.Errorf("batch unit %s failed: %s", l.Name, l.Error)
		}
		if len(l.GMA) == 0 || l.Worker == "" {
			return fmt.Errorf("batch unit %s lacks a result or worker: %q", l.Name, sc.Text())
		}
		units++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if summary == nil {
		return fmt.Errorf("batch stream ended without a done:true summary")
	}
	if units != 2 || summary.GMAs != 2 || summary.Errors != 0 {
		return fmt.Errorf("batch answered %d units, summary %+v; want 2 units, 0 errors", units, *summary)
	}
	return nil
}

// awaitExit waits for a SIGTERM'd process to exit cleanly.
func awaitExit(cmd *exec.Cmd, name string) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s did not exit cleanly: %w", name, err)
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s did not exit within 10s of SIGTERM", name)
	}
	return nil
}

// compileOnce POSTs one compile request and returns the X-Denali-Cache
// header and the cycle count of the first GMA.
func compileOnce(base, reqID, body, contentType string) (string, int, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/compile", strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("POST /compile (%s): %w", reqID, err)
	}
	var out struct {
		Procs []struct {
			GMAs []struct {
				Cycles int `json:"cycles"`
			} `json:"gmas"`
		} `json:"procs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		return "", 0, fmt.Errorf("decode /compile response (%s): %w", reqID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("/compile (%s) answered %d", reqID, resp.StatusCode)
	}
	if len(out.Procs) != 1 || len(out.Procs[0].GMAs) != 1 {
		return "", 0, fmt.Errorf("unexpected response shape (%s): %+v", reqID, out)
	}
	return resp.Header.Get("X-Denali-Cache"), out.Procs[0].GMAs[0].Cycles, nil
}

// probeModes compiles src with the server's default options and checks
// that every probe of every GMA was answered by the incremental engine.
func probeModes(base, reqID, src string) error {
	body, err := json.Marshal(map[string]any{"source": src, "cache": false})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/compile", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("POST /compile (%s): %w", reqID, err)
	}
	var out struct {
		Procs []struct {
			GMAs []struct {
				Name   string `json:"name"`
				Probes []struct {
					K           int  `json:"k"`
					Incremental bool `json:"incremental"`
				} `json:"probes"`
			} `json:"gmas"`
		} `json:"procs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /compile response (%s): %w", reqID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/compile (%s) answered %d", reqID, resp.StatusCode)
	}
	gmas := 0
	for _, p := range out.Procs {
		for _, g := range p.GMAs {
			gmas++
			if len(g.Probes) == 0 {
				return fmt.Errorf("%s (%s): no probes in the response", g.Name, reqID)
			}
			for _, pr := range g.Probes {
				if !pr.Incremental {
					return fmt.Errorf("%s (%s): default compile probed K=%d off the incremental engine",
						g.Name, reqID, pr.K)
				}
			}
		}
	}
	if gmas == 0 {
		return fmt.Errorf("/compile (%s) answered no GMAs", reqID)
	}
	return nil
}

// waitAddr polls for the -addr-file handshake.
func waitAddr(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", fmt.Errorf("server never wrote %s", path)
}

func readAll(resp *http.Response) string {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// sampleSum sums every series of a `<name>{labels} value` family in
// Prometheus text exposition.
func sampleSum(exposition, name string) (float64, error) {
	total := 0.0
	found := false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("sample %q: %w", line, err)
		}
		total += v
		found = true
	}
	if !found {
		return 0, fmt.Errorf("no %s series in /metrics output", name)
	}
	return total, nil
}

// freshProbeRows counts the probe rows of every GMA record in
// /debug/requests that the server compiled itself: cache-hit and
// coalesced rows replay an origin compile's ladder.
func freshProbeRows(base string) (int, error) {
	resp, err := http.Get(base + "/debug/requests?n=256")
	if err != nil {
		return 0, fmt.Errorf("GET /debug/requests: %w", err)
	}
	var index struct {
		Reports []flight.Report `json:"reports"`
	}
	err = json.NewDecoder(resp.Body).Decode(&index)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("decode /debug/requests: %w", err)
	}
	rows := 0
	for _, rep := range index.Reports {
		for _, g := range rep.GMAs {
			if !g.CacheHit && !g.Coalesced {
				rows += len(g.Probes)
			}
		}
	}
	return rows, nil
}
