// Command servesmoke is verify.sh's end-to-end check of `denali serve`:
// it builds the real binary, starts it on a random loopback port, compiles
// one program over HTTP with an X-Request-ID, asserts the ID is echoed
// and that /debug/requests/{id} serves a flight report consistent with
// the compile response, re-posts it for a cache hit and a "cache": false
// bypass, requires "cache": "refresh" to answer 400, compiles quickstart
// and byteswap4 fresh, checks that /debug/history holds an aggregate for
// every GMA fingerprint in the filed flight reports and that /debug/slo
// answers 404, checks /version, scrapes /metrics and asserts the
// compile-latency histogram counted the request and the cache counted a
// hit and a miss (with no tier label, and no byte-size or store-error
// family), then shuts the server down with SIGTERM and requires a clean
// exit. The compile metrics are derived from the filed flight reports, so
// the SAT probes counted on /metrics must equal the probe rows of the
// fresh GMA records in /debug/requests. Before the server starts it
// requires `denali serve -cache-dir d` and `denali -cache-dir d file.dn`
// to be usage errors (exit 2): the compile cache lives in memory only. It
// exercises
// the whole service path — listener bootstrap, addr-file handshake,
// raw-source POST, the flight-report ring, the shared registry, graceful
// drain — with no test harness in between.
package main

import (
	"context"
	"encoding/json"
	"errors"
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

	srcFile := filepath.Join(dir, "qs.dn")
	if err := os.WriteFile(srcFile, []byte(source), 0o644); err != nil {
		return err
	}
	for _, args := range [][]string{
		{"serve", "-addr", "127.0.0.1:0", "-cache-dir", dir},
		{"-cache-dir", dir, srcFile},
	} {
		if err := usageError(bin, args...); err != nil {
			return err
		}
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
	body, err = json.Marshal(map[string]any{"source": source, "cache": "refresh"})
	if err != nil {
		return err
	}
	resp, err = http.Post(base+"/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("POST /compile (cache refresh): %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf(`"cache": "refresh" answered %d, want 400`, resp.StatusCode)
	}

	// Every filed report lands in the per-GMA history view.
	if err := compileFresh(base, "servesmoke-4", programs.Quickstart); err != nil {
		return err
	}
	if err := compileFresh(base, "servesmoke-5", programs.Byteswap4); err != nil {
		return err
	}
	if err := historyCoversReports(base); err != nil {
		return err
	}
	resp, err = http.Get(base + "/debug/slo")
	if err != nil {
		return fmt.Errorf("GET /debug/slo: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("/debug/slo answered %d, want 404", resp.StatusCode)
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
	if err := cacheMetrics(metrics.String()); err != nil {
		return err
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return awaitExit(srv, "serve")
}

// usageError runs bin with args and requires exit status 2, the flag
// package's answer to an undefined flag. A process that accepts the flags
// and keeps running (a server) is killed after 10s and reported.
func usageError(bin string, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := exec.CommandContext(ctx, bin, args...).Run()
	var exit *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() != 2 {
		return fmt.Errorf("denali %s: %v (timed out: %v), want exit status 2", strings.Join(args, " "), err, ctx.Err() != nil)
	}
	return nil
}

// cacheMetrics checks the compile cache's families on /metrics after the
// miss, hit and bypass above: a hit and a miss counted, no series
// labeled by tier, and no byte-size or store-error family at all.
func cacheMetrics(exposition string) error {
	for _, name := range []string{"denali_cache_hits_total", "denali_cache_misses_total"} {
		v, err := sampleSum(exposition, name)
		if err != nil {
			return err
		}
		if v < 1 {
			return fmt.Errorf("%s = %g after a miss and a hit, want >= 1", name, v)
		}
	}
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "denali_cache_") && strings.Contains(line, "tier=") {
			return fmt.Errorf("cache series labeled by tier: %q", line)
		}
		for _, gone := range []string{"denali_cache_bytes", "denali_cache_store_errors_total"} {
			if strings.Contains(line, gone) {
				return fmt.Errorf("/metrics still exports %s: %q", gone, line)
			}
		}
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

// compileFresh compiles src with the server's default options, bypassing
// the cache, and checks that every GMA has a probe ladder.
func compileFresh(base, reqID, src string) error {
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
				Name   string            `json:"name"`
				Probes []json.RawMessage `json:"probes"`
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

// filedReports returns the flight reports in /debug/requests.
func filedReports(base string) ([]flight.Report, error) {
	resp, err := http.Get(base + "/debug/requests?n=256")
	if err != nil {
		return nil, fmt.Errorf("GET /debug/requests: %w", err)
	}
	var index struct {
		Reports []flight.Report `json:"reports"`
	}
	err = json.NewDecoder(resp.Body).Decode(&index)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decode /debug/requests: %w", err)
	}
	return index.Reports, nil
}

// historyCoversReports checks that /debug/history holds an aggregate for
// every GMA fingerprint in the filed flight reports.
func historyCoversReports(base string) error {
	reps, err := filedReports(base)
	if err != nil {
		return err
	}
	resp, err := http.Get(base + "/debug/history")
	if err != nil {
		return fmt.Errorf("GET /debug/history: %w", err)
	}
	var snap struct {
		Keys []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"keys"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/history: status %d, decode error %v", resp.StatusCode, err)
	}
	have := map[string]bool{}
	for _, k := range snap.Keys {
		have[k.Fingerprint] = true
	}
	gmas := 0
	for _, rep := range reps {
		for _, g := range rep.GMAs {
			gmas++
			if !have[g.Fingerprint] {
				return fmt.Errorf("/debug/history has no aggregate for %s [%s] (request %s)", g.Name, g.Fingerprint, rep.ID)
			}
		}
	}
	if gmas == 0 {
		return fmt.Errorf("/debug/requests holds no GMA records")
	}
	return nil
}

// freshProbeRows counts the probe rows of every GMA record in
// /debug/requests that the server compiled itself: cache-hit and
// coalesced rows replay an origin compile's ladder.
func freshProbeRows(base string) (int, error) {
	reps, err := filedReports(base)
	if err != nil {
		return 0, err
	}
	rows := 0
	for _, rep := range reps {
		for _, g := range rep.GMAs {
			if !g.CacheHit && !g.Coalesced {
				rows += len(g.Probes)
			}
		}
	}
	return rows, nil
}
