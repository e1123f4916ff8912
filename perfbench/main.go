// Command perfbench is the repository benchmark. It generates one of
// three seeded workloads, drives the Denali compiler through its public
// Go API or an in-process compile service, checks every answer against an
// independent reference, and prints metrics: the end-to-end set by
// default, the per-layer set with --trace 1. Run it from the repository
// root:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat the
// metrics for people, with the run's environment. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
}

// workload is one named input set: an untraced run for the end-to-end
// metrics and a traced replay for the per-layer ones.
type workload struct {
	run    func(cfg config, rep *report) error
	traced func(cfg config, rep *report, sp *spans) error
}

var workloads = map[string]workload{
	"kernels":      {run: runKernels, traced: traceKernels},
	"deep-certify": {run: runDeep, traced: traceDeep},
	"serve-zipf":   {run: runServe, traced: traceServe},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, notes and operation outcomes.
type report struct {
	order     []string
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric that goes into the JSON result.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a human-readable line printed before the JSON result:
// sample counts and the metrics the JSON set leaves out.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: kernels, deep-certify or serve-zipf")
	seed := fl.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := fl.Int("seconds", 40, "how long to measure")
	trace := fl.Int("trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{workload: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	env := environment(cfg)
	rep := newReport()
	var err error
	if cfg.trace {
		sp := newSpans()
		if err = w.traced(cfg, rep, sp); err == nil {
			err = writeSpans(sp, cfg, env)
		}
	} else {
		err = w.run(cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, rep, env)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// checkCheckout fails fast outside a full checkout: the benchmark reads
// the golden corpus from the repository.
func checkCheckout() error {
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("not a repository checkout: %w", err)
	}
	return nil
}

// environment records what a result depends on besides the code.
func environment(cfg config) map[string]string {
	host, _ := os.Hostname()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	return map[string]string{
		"workload":   cfg.workload,
		"seed":       fmt.Sprint(cfg.seed),
		"seconds":    fmt.Sprint(cfg.dur.Seconds()),
		"trace":      trace,
		"host":       host,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

// commit identifies the code under test: the git HEAD when the checkout
// is a repository, and always a hash of the Go sources and module files,
// so results from an exported tree are attributable too.
func commit() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	id := "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(strings.TrimPrefix(string(head), "ref: "))
		if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			ref = strings.TrimSpace(string(sha))
		}
		if len(ref) >= 12 {
			id = "git-" + ref[:12] + " " + id
		}
	}
	return id
}

func printReport(w io.Writer, rep *report, env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "# perfbench")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, env[k])
	}
	fmt.Fprintln(w)
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-26s %14.6g share (%d failed of %d attempted)\n", "fail_share", share, rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Fprintln(w, string(out))
}

// writeSpans saves the traced run's spans as Chrome trace_event JSON
// under the build directory.
func writeSpans(sp *spans, cfg config, env map[string]string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.writeChrome(f, env); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	env["spans"] = path
	return nil
}

// median returns the middle of xs (the mean of the two middles for even
// lengths); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the CPU time the process has used so far, user plus
// system. The timed metrics use it rather than wall time: the kernel
// leaves out time the host took the VM's CPUs away (steal), which on a
// shared 2-core VM otherwise moves run times by up to a factor of three.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident memory so far, as the kernel
// records it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setUp runs a workload's set-up n times and returns the last state and
// the median CPU time of one set-up; earlier states are released with
// drop.
func setUp[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(st)
		}
		c0 := cpuTime()
		var err error
		if st, err = build(); err != nil {
			return st, 0, err
		}
		times = append(times, (cpuTime() - c0).Seconds())
	}
	return st, median(times), nil
}
