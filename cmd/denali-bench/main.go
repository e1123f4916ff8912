// Command denali-bench regenerates every experiment of the paper's
// evaluation (section 8) plus the ablations listed in DESIGN.md, printing
// one table per experiment. Absolute numbers differ from the paper's 2002
// hardware; the shapes — who wins, by what factor, how costs grow — are
// the reproduction targets recorded in EXPERIMENTS.md.
//
// Usage:
//
//	denali-bench                      run everything
//	denali-bench -run E5              run one experiment
//	denali-bench -list                list experiments
//	denali-bench -json BENCH_run.json also write one JSON row per compiled
//	                                  GMA with per-phase wall time (match,
//	                                  solve) and the full solver counters
//	denali-bench -out BENCH_3.json    also write the per-experiment perf
//	                                  trajectory: wall time, strategy,
//	                                  workers, and p50/p95/max of the
//	                                  compile/solve/match latency
//	                                  histograms each experiment filled
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/brute"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/flight"
	"repro/internal/gma"
	"repro/internal/history"
	"repro/internal/lang"
	"repro/internal/matcher"
	"repro/internal/naivegen"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/stoke"
	"repro/internal/term"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

// benchProbe is one SAT probe in a JSON row.
type benchProbe struct {
	K            int     `json:"k"`
	Result       string  `json:"result"`
	Vars         int     `json:"vars"`
	Clauses      int     `json:"clauses"`
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Propagations int64   `json:"propagations"`
	Learned      int     `json:"learned"`
	Restarts     int64   `json:"restarts"`
	Millis       float64 `json:"ms"`
}

// benchRow is one compiled GMA in the -json output: the headline numbers
// plus the per-phase wall time and solver counters. Strategy/Workers name
// the budget-search configuration; WallMillis is the wall time of the
// whole Compile call that produced the GMA (parallel compilation makes it
// smaller than the sum of the per-phase times).
type benchRow struct {
	Experiment   string       `json:"experiment"`
	GMA          string       `json:"gma"`
	Strategy     string       `json:"strategy"`
	Workers      int          `json:"workers"`
	Cycles       int          `json:"cycles"`
	Instructions int          `json:"instructions"`
	Optimal      bool         `json:"optimal"`
	MatchMillis  float64      `json:"match_ms"`
	SolveMillis  float64      `json:"solve_ms"`
	WallMillis   float64      `json:"wall_ms"`
	MatchRounds  int          `json:"match_rounds"`
	MatchNodes   int          `json:"match_nodes"`
	Probes       []benchProbe `json:"probes"`
}

// rows collects the -json output; currentExp/curStrategy/curWorkers/
// curWallMS label rows with the configuration being run. The harness runs
// experiments sequentially, but compilations inside one experiment may fan
// out, so rows is mutex-guarded.
var (
	rowsMu           sync.Mutex
	rows             []benchRow
	currentExp       string
	curStrategy      = "linear"
	curWorkers       = 1
	curWallMS        float64
	curArch          = "ev6"
	jsonPath         string
	outPath          string
	incOutPath       string
	cacheOutPath     string
	fleetOutPath     string
	portfolioOutPath string
	reportPath       string
	// flightLog appends one flight.Report per compiled GMA when
	// -report-out is set, with IDs like "E2-0003" so `denali report` can
	// trace any aggregate back to the experiment and compile that produced
	// it. reportSeq numbers reports under rowsMu.
	flightLog *flight.Log
	reportSeq int
	// warehouse ingests the same per-GMA reports into a persistent
	// compile-history warehouse when -history-dir is set, so bench runs
	// feed the regression sentinel directly.
	warehouse  *history.Warehouse
	historyDir string

	flagWorkers  int
	flagParallel bool

	// benchReg/benchSink collect each experiment's pipeline metrics; the
	// harness swaps in a fresh registry per experiment so the -out
	// trajectory attributes latency histograms to the experiment that
	// produced them.
	benchReg  *obs.Registry
	benchSink *obs.Sink
	summaries []expSummary
)

// histSummary condenses one latency histogram for the -out trajectory.
type histSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	Max   float64 `json:"max_ms"`
}

// expSummary is one experiment in the -out trajectory file.
type expSummary struct {
	Experiment string       `json:"experiment"`
	WallMillis float64      `json:"wall_ms"`
	Strategy   string       `json:"strategy"`
	Workers    int          `json:"workers"`
	Compile    *histSummary `json:"compile_seconds,omitempty"`
	Solve      *histSummary `json:"sat_solve_seconds,omitempty"`
	Match      *histSummary `json:"match_seconds,omitempty"`
	HTTP       *histSummary `json:"http_request_seconds,omitempty"`
}

// summarize merges every label series of one histogram family (the
// registry splits e.g. compile latency by strategy and solve latency by
// SAT/UNSAT) and condenses it to count/p50/p95/max in milliseconds.
func summarize(snap obs.Snapshot, name string) *histSummary {
	series := snap.Histograms[name]
	if len(series) == 0 {
		return nil
	}
	var merged obs.HistogramSnapshot
	for _, h := range series {
		if h.Count == 0 {
			continue
		}
		if merged.Count == 0 {
			merged = obs.HistogramSnapshot{
				Name:   h.Name,
				Bounds: h.Bounds,
				Counts: append([]uint64(nil), h.Counts...),
				Sum:    h.Sum, Count: h.Count, Min: h.Min, Max: h.Max,
			}
			continue
		}
		for i := range merged.Counts {
			merged.Counts[i] += h.Counts[i]
		}
		merged.Sum += h.Sum
		merged.Count += h.Count
		if h.Min < merged.Min {
			merged.Min = h.Min
		}
		if h.Max > merged.Max {
			merged.Max = h.Max
		}
	}
	if merged.Count == 0 {
		return nil
	}
	return &histSummary{
		Count: merged.Count,
		P50:   merged.Quantile(0.5) * 1e3,
		P95:   merged.Quantile(0.95) * 1e3,
		Max:   merged.Max * 1e3,
	}
}

// record appends one compiled GMA to the -json rows and, when
// -report-out / -history-dir are set, one flight report to the JSONL
// log and the history warehouse.
func record(g *repro.CompiledGMA) {
	if g == nil || (jsonPath == "" && flightLog == nil && warehouse == nil) {
		return
	}
	rowsMu.Lock()
	defer rowsMu.Unlock()
	if flightLog != nil || warehouse != nil {
		reportSeq++
		rep := flight.NewReport(fmt.Sprintf("%s-%04d", currentExp, reportSeq))
		rep.Arch = curArch
		rep.Strategy = curStrategy
		rep.Workers = curWorkers
		rep.WallMillis = curWallMS
		rep.GMAs = []flight.GMAReport{g.FlightReport()}
		if err := flightLog.Write(rep); err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench: report-out:", err)
		}
		warehouse.Ingest(rep)
	}
	if jsonPath == "" {
		return
	}
	row := benchRow{
		Experiment:   currentExp,
		GMA:          g.Name,
		Strategy:     curStrategy,
		Workers:      curWorkers,
		Cycles:       g.Cycles,
		Instructions: g.Instructions,
		Optimal:      g.OptimalProven,
		MatchMillis:  float64(g.Match.Elapsed.Microseconds()) / 1e3,
		SolveMillis:  float64(g.SolveTime.Microseconds()) / 1e3,
		WallMillis:   curWallMS,
		MatchRounds:  g.Match.Rounds,
		MatchNodes:   g.Match.Nodes,
	}
	for _, p := range g.Probes {
		row.Probes = append(row.Probes, benchProbe{
			K: p.K, Result: p.Result, Vars: p.Vars, Clauses: p.Clauses,
			Conflicts: p.Conflicts, Decisions: p.Decisions,
			Propagations: p.Propagations, Learned: p.Learned, Restarts: p.Restarts,
			Millis: float64(p.Elapsed.Microseconds()) / 1e3,
		})
	}
	rows = append(rows, row)
}

// compile applies the harness-wide -parallel/-workers flags to opt (unless
// the experiment picked its own strategy), compiles, and labels subsequent
// record calls with the configuration and the Compile wall time.
func compile(src string, opt repro.Options) (*repro.Result, time.Duration, error) {
	if flagParallel && opt.Strategy == "" {
		opt.Strategy = "parallel"
	}
	search, err := core.ParseStrategy(opt.Strategy)
	if err != nil {
		return nil, 0, err
	}
	if opt.Workers == 0 && (flagParallel || search == core.ParallelSearch) {
		opt.Workers = flagWorkers
	}
	opt.Sink = benchSink
	curStrategy, curWorkers = opt.StrategyName(), opt.Workers
	curArch = opt.Arch
	if curArch == "" {
		curArch = "ev6"
	}
	if curWorkers <= 0 {
		if search == core.ParallelSearch {
			curWorkers = runtime.GOMAXPROCS(0)
		} else {
			curWorkers = 1
		}
	}
	start := time.Now()
	res, err := repro.Compile(src, opt)
	wall := time.Since(start)
	curWallMS = float64(wall.Microseconds()) / 1e3
	return res, wall, err
}

// recordAll records every GMA of a compiled program.
func recordAll(res *repro.Result) {
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			record(g)
		}
	}
}

func main() {
	runFilter := flag.String("run", "", "run only the experiment with this id (e.g. E5)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.StringVar(&jsonPath, "json", "", "write per-GMA timing/counter rows to this JSON file")
	flag.StringVar(&outPath, "out", "", "write the per-experiment perf trajectory (wall time, strategy, workers, latency p50/p95/max) to this JSON file")
	flag.IntVar(&flagWorkers, "workers", 0, "worker bound for parallel probes and multi-GMA compilation (0 = GOMAXPROCS)")
	flag.BoolVar(&flagParallel, "parallel", false, "use the speculative parallel budget search in every experiment that does not pick its own strategy")
	flag.StringVar(&incOutPath, "inc-out", "BENCH_5.json", "write E16's per-GMA scratch-vs-incremental comparison to this JSON file (empty to skip)")
	flag.StringVar(&cacheOutPath, "cache-out", "BENCH_6.json", "write E17's cold-vs-warm compile-cache comparison to this JSON file (empty to skip)")
	flag.StringVar(&fleetOutPath, "fleet-out", "BENCH_7.json", "write E18's single-node-vs-fleet batch comparison to this JSON file (empty to skip)")
	flag.StringVar(&portfolioOutPath, "portfolio-out", "BENCH_8.json", "write E19's descend-vs-portfolio comparison to this JSON file (empty to skip)")
	flag.StringVar(&reportPath, "report-out", "", "append one flight report (JSON line) per compiled GMA to this file; summarize with `denali report`")
	flag.StringVar(&historyDir, "history-dir", "", "fold one flight report per compiled GMA into the history warehouse at this directory; diff runs with `denali report -diff`")
	flag.Parse()
	if reportPath != "" {
		var err error
		flightLog, err = flight.OpenLog(reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench:", err)
			os.Exit(1)
		}
		defer flightLog.Close()
	}
	if historyDir != "" {
		var err error
		warehouse, err = history.Open(history.Config{Dir: historyDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench:", err)
			os.Exit(1)
		}
		defer warehouse.Close()
	}

	exps := []experiment{
		{"E1", "Figure 2: reg6*4+1 compiles to a single s4addq", e1},
		{"E2", "byteswap4: 5-cycle optimum with per-probe SAT sizes (Figure 4)", e2},
		{"E3", "byteswap5: Denali beats the conventional compiler by a cycle", e3},
		{"E4", "checksum loop body: instructions/cycles/IPC (Figures 5-6)", e4},
		{"E5", "brute-force (GNU superoptimizer style) enumeration blowup vs Denali", e5},
		{"E6", "matcher finds >100 ways of computing a+b+c+d+e", e6},
		{"E7", "rowop and lcp2 vs the baseline", e7},
		{"E8", "select-store reordering in the copy loop", e8},
		{"E9", "cluster-model ablation on byteswap4", e9},
		{"E10", "probe-size sweep and linear vs binary budget search", e10},
		{"E11", "issue-width ablation (1/2/4)", e11},
		{"E12", "correct-by-design: random-input verification of all programs", e12},
		{"E13", "sequential vs speculative-parallel budget search: corpus wall clock", e13},
		{"E14", "served-mode throughput and latency under concurrent HTTP clients", e14},
		{"E15", "certified optimality: DRAT proof logging and re-check overhead", e15},
		{"E16", "scratch vs incremental budget search: conflicts, propagations, wall clock", e16},
		{"E17", "compile cache under a repeat-heavy served workload: cold vs warm throughput", e17},
		{"E18", "fleet routing: multi-GMA batch fanned across sharded workers vs single node", e18},
		{"E19", "portfolio racing: stochastic upper bounds vs the SAT descend sweep", e19},
		{"A1", "ablation: at-most-once-per-term pruning constraint", a1},
		{"A2", "ablation: matcher saturation budgets vs result quality", a2},
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	// Experiments are isolated from one another: a failure is reported and
	// the remaining experiments still run (the JSON rows of the whole run
	// are still written), with a nonzero exit at the end.
	var failed []string
	for _, e := range exps {
		if *runFilter != "" && e.id != *runFilter {
			continue
		}
		currentExp = e.id
		curStrategy, curWorkers, curWallMS = "linear", 1, 0
		benchReg = obs.NewCompilerRegistry()
		benchSink = obs.NewSink(benchReg)
		fmt.Printf("\n===== %s: %s =====\n", e.id, e.title)
		start := time.Now()
		err := e.run()
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			failed = append(failed, e.id)
			continue
		}
		fmt.Printf("[%s done in %v]\n", e.id, wall.Round(time.Millisecond))
		if outPath != "" {
			snap := benchReg.Snapshot()
			summaries = append(summaries, expSummary{
				Experiment: e.id,
				WallMillis: float64(wall.Microseconds()) / 1e3,
				Strategy:   curStrategy,
				Workers:    curWorkers,
				Compile:    summarize(snap, obs.MCompileSeconds),
				Solve:      summarize(snap, obs.MSolveSeconds),
				Match:      summarize(snap, obs.MMatchSeconds),
				HTTP:       summarize(snap, "denali_http_request_seconds"),
			})
		}
	}
	if outPath != "" {
		if err := writeTrajectory(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%d experiment summaries written to %s\n", len(summaries), outPath)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(os.Stderr, "denali-bench:", err)
				os.Exit(1)
			}
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "denali-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%d JSON rows written to %s\n", len(rows), jsonPath)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "failed experiments: %s\n", strings.Join(failed, ", "))
		os.Exit(1)
	}
}

func compileOne(src string, opt repro.Options) (*repro.CompiledGMA, error) {
	res, _, err := compile(src, opt)
	if err != nil {
		return nil, err
	}
	record(res.Procs[0].GMAs[0])
	return res.Procs[0].GMAs[0], nil
}

func findLoop(res *repro.Result) *repro.CompiledGMA {
	for _, p := range res.Procs {
		for _, g := range p.GMAs {
			if strings.HasSuffix(g.Name, "_loop") {
				return g
			}
		}
	}
	return nil
}

func e1() error {
	g, err := compileOne(programs.Quickstart, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("goal: reg6*4+1\n")
	fmt.Printf("cycles=%d instructions=%d optimal=%v\n", g.Cycles, g.Instructions, g.OptimalProven)
	fmt.Print(g.Assembly)
	base, err := g.Baseline()
	if err != nil {
		return err
	}
	fmt.Printf("conventional baseline: %d cycles, %d instructions (greedy rewrite commits to the shift and misses s4addq)\n",
		base.Cycles, base.Instructions)
	return g.Verify(100, 1)
}

func e2() error {
	g, err := compileOne(programs.Byteswap4, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("byteswap4: %d cycles, %d instructions, optimal=%v\n", g.Cycles, g.Instructions, g.OptimalProven)
	fmt.Printf("matcher: %d nodes, %d classes, %d instantiations in %v; SAT total %v\n",
		g.Match.Nodes, g.Match.Classes, g.Match.Instantiations,
		g.Match.Elapsed.Round(time.Microsecond), g.SolveTime.Round(time.Microsecond))
	fmt.Printf("%-5s %-8s %8s %9s %10s %12s\n", "K", "result", "vars", "clauses", "conflicts", "time")
	for _, p := range g.Probes {
		fmt.Printf("%-5d %-8s %8d %9d %10d %12v\n", p.K, p.Result, p.Vars, p.Clauses, p.Conflicts, p.Elapsed.Round(time.Microsecond))
	}
	fmt.Print(g.Listing)
	return g.Verify(100, 2)
}

func e3() error {
	fmt.Printf("%-12s %14s %14s %8s\n", "program", "denali cycles", "baseline", "win")
	for _, n := range []int{2, 3, 4, 5} {
		g, err := compileOne(programs.Byteswap(n), repro.Options{})
		if err != nil {
			return err
		}
		base, err := g.Baseline()
		if err != nil {
			return err
		}
		fmt.Printf("byteswap%-4d %14d %14d %+8d\n", n, g.Cycles, base.Cycles, base.Cycles-g.Cycles)
		if err := g.Verify(50, int64(n)); err != nil {
			return err
		}
	}
	return nil
}

func e4() error {
	res, _, err := compile(programs.Checksum, repro.Options{})
	if err != nil {
		return err
	}
	recordAll(res)
	fmt.Printf("%-20s %7s %7s %6s %8s\n", "GMA", "cycles", "instrs", "IPC", "optimal")
	for _, g := range res.Procs[0].GMAs {
		ipc := 0.0
		if g.Cycles > 0 {
			ipc = float64(g.Instructions) / float64(g.Cycles)
		}
		fmt.Printf("%-20s %7d %7d %6.2f %8v\n", g.Name, g.Cycles, g.Instructions, ipc, g.OptimalProven)
		if err := g.Verify(40, 4); err != nil {
			return err
		}
	}
	loop := findLoop(res)
	base, err := loop.Baseline()
	if err != nil {
		return err
	}
	fmt.Printf("loop body baseline: %d cycles (Denali wins by %d)\n", base.Cycles, base.Cycles-loop.Cycles)
	fmt.Printf("(paper: 31 instructions in 10 cycles for its larger encoding; the preserved shape is >2 IPC and a win over the compiler)\n")
	return nil
}

func e5() error {
	ops := []string{"add64", "sub64", "and64", "bis", "xor64", "sll", "srl"}
	cfg := brute.Config{Ops: ops, Consts: []uint64{1, 2, 8}, NumInputs: 1}
	fmt.Printf("search-space size per sequence length (ops=%d, consts=%d):\n", len(ops), len(cfg.Consts))
	for n := 1; n <= 6; n++ {
		fmt.Printf("  length %d: %.3g sequences\n", n, brute.SpaceSize(cfg, n))
	}
	// Concrete run: a goal brute force finds quickly vs one that explodes.
	res1 := brute.Search(func(in []uint64) uint64 { return 2 * in[0] }, brute.Config{
		Ops: ops, Consts: []uint64{1, 2, 8}, NumInputs: 1, MaxLen: 2, Seed: 1,
	})
	fmt.Printf("find 2*x: %d candidates in %v -> %d instruction(s)\n",
		res1.Candidates, res1.Elapsed.Round(time.Microsecond), len(res1.Found.Instrs))
	res2 := brute.Search(func(in []uint64) uint64 {
		a := in[0]
		return (a&255)<<24 | (a>>8&255)<<16 | (a>>16&255)<<8 | a>>24&255
	}, brute.Config{
		Ops: ops, Consts: []uint64{8, 16, 24, 255}, NumInputs: 1, MaxLen: 4, Seed: 2,
		MaxCandidates: 5_000_000,
	})
	fmt.Printf("find byteswap32 by brute force: aborted=%v after %d candidates in %v (per-length: %v)\n",
		res2.Aborted, res2.Candidates, res2.Elapsed.Round(time.Millisecond), res2.LengthCandidates)
	g, err := compileOne(programs.Byteswap4, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("Denali compiles the full 4-byte swap (9 instructions) in %v matching + %v solving\n",
		g.Match.Elapsed.Round(time.Millisecond), g.SolveTime.Round(time.Millisecond))
	return nil
}

func e6() error {
	axs, err := axioms.Builtin()
	if err != nil {
		return err
	}
	for _, n := range []int{3, 4, 5} {
		g := egraph.New()
		sum := term.NewVar("x0")
		for i := 1; i < n; i++ {
			sum = term.NewApp("add64", sum, term.NewVar(fmt.Sprintf("x%d", i)))
		}
		goal := g.AddTerm(sum)
		res, err := matcher.Saturate(g, axs, matcher.Options{MaxNodes: 200000, MaxRounds: 30})
		if err != nil {
			return err
		}
		ways := g.CountComputations(goal, 100000)
		fmt.Printf("sum of %d operands: %5d ways of computing it (%d nodes, %d classes, quiescent=%v)\n",
			n, ways, res.Nodes, res.Classes, res.Quiescent)
	}
	fmt.Println("(paper: \"more than a hundred different ways of computing a+b+c+d+e\")")
	return nil
}

func e7() error {
	fmt.Printf("%-10s %14s %14s\n", "program", "denali cycles", "baseline")
	for _, p := range []struct {
		name string
		src  string
	}{{"rowop", programs.Rowop}, {"lcp2", programs.Lcp2}} {
		g, err := compileOne(p.src, repro.Options{})
		if err != nil {
			return err
		}
		base, err := g.Baseline()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %14d %14d\n", p.name, g.Cycles, base.Cycles)
		if err := g.Verify(40, 7); err != nil {
			return err
		}
	}
	return nil
}

func e8() error {
	g, err := compileOne(programs.CopyLoop, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("copy loop: %d cycles, %d instructions\n", g.Cycles, g.Instructions)
	fmt.Print(g.Assembly)
	fmt.Println("the select-store axiom plus the p != p+8 distinction let the load and store reorder freely")
	return g.Verify(60, 8)
}

func e9() error {
	for _, a := range []string{"ev6", "ev6-noclusters"} {
		g, err := compileOne(programs.Byteswap4, repro.Options{Arch: a})
		if err != nil {
			return err
		}
		fmt.Printf("%-16s: %d cycles, %d instructions\n", a, g.Cycles, g.Instructions)
	}
	fmt.Println("(the binding constraint is the two upper-unit byte pipes; the cluster model changes placement, not the count — cf. Figure 4's \"unused instruction\")")
	return nil
}

func e10() error {
	lin, err := compileOne(programs.Byteswap4, repro.Options{})
	if err != nil {
		return err
	}
	bin, err := compileOne(programs.Byteswap4, repro.Options{Strategy: "binary"})
	if err != nil {
		return err
	}
	sum := func(g *repro.CompiledGMA) (int, time.Duration, string) {
		total := time.Duration(0)
		var ks []string
		for _, p := range g.Probes {
			total += p.Elapsed
			ks = append(ks, fmt.Sprintf("%d", p.K))
		}
		return len(g.Probes), total, strings.Join(ks, ",")
	}
	n1, t1, k1 := sum(lin)
	n2, t2, k2 := sum(bin)
	fmt.Printf("linear search: %d probes (K=%s) in %v -> %d cycles\n", n1, k1, t1.Round(time.Microsecond), lin.Cycles)
	fmt.Printf("binary search: %d probes (K=%s) in %v -> %d cycles\n", n2, k2, t2.Round(time.Microsecond), bin.Cycles)
	fmt.Println("probe sizes (vars/clauses) grow with K:")
	for _, p := range lin.Probes {
		fmt.Printf("  K=%-3d %6d vars %7d clauses (%s)\n", p.K, p.Vars, p.Clauses, p.Result)
	}
	return nil
}

func e11() error {
	fmt.Printf("%-14s %16s %16s\n", "arch", "sum5 cycles", "checksum loop")
	src := `
(\procdecl sum5 ((a long) (b long) (c long) (d long) (e long)) long
  (:= (\res (+ a (+ b (+ c (+ d e)))))))
`
	for _, a := range []string{"ev6-single", "ev6-dual", "ev6"} {
		g, err := compileOne(src, repro.Options{Arch: a})
		if err != nil {
			return err
		}
		// Narrow-issue checksum refutations are pigeonhole-hard; descend
		// from the baseline's budget with bounded probes (the paper's own
		// checksum run took four hours).
		res, _, err := compile(programs.Checksum, repro.Options{
			Arch: a, MaxCycles: 40, MaxConflicts: 20000, Strategy: "descend",
		})
		if err != nil {
			return err
		}
		recordAll(res)
		loop := findLoop(res)
		marker := ""
		if !loop.OptimalProven {
			marker = " (upper bound)"
		}
		fmt.Printf("%-14s %16d %14d%s\n", a, g.Cycles, loop.Cycles, marker)
	}
	return nil
}

func e12() error {
	cases := []struct {
		name string
		src  string
	}{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"byteswap5", programs.Byteswap5},
		{"checksum", programs.Checksum},
		{"copyloop", programs.CopyLoop},
		{"lcp2", programs.Lcp2},
		{"rowop", programs.Rowop},
		{"sumloop", programs.SumLoop},
	}
	total := 0
	for _, c := range cases {
		res, _, err := compile(c.src, repro.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		recordAll(res)
		for _, proc := range res.Procs {
			for _, g := range proc.GMAs {
				if err := g.Verify(50, 12); err != nil {
					return fmt.Errorf("%s/%s: %w", c.name, g.Name, err)
				}
				total++
			}
		}
		fmt.Printf("%-12s verified (all GMAs x 50 random inputs)\n", c.name)
	}
	fmt.Printf("%d GMAs verified against reference semantics\n", total)
	return nil
}

func e13() error {
	corpus := []struct {
		name string
		src  string
	}{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"byteswap5", programs.Byteswap5},
		{"copyloop", programs.CopyLoop},
		{"rowop", programs.Rowop},
		{"lcp2", programs.Lcp2},
		{"sumloop", programs.SumLoop},
		{"checksum", programs.Checksum},
	}
	workers := flagWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := func(opt repro.Options) (time.Duration, map[string]int, map[string]bool, error) {
		cycles := map[string]int{}
		optimal := map[string]bool{}
		total := time.Duration(0)
		for _, p := range corpus {
			res, wall, err := compile(p.src, opt)
			if err != nil {
				return 0, nil, nil, fmt.Errorf("%s: %w", p.name, err)
			}
			total += wall
			recordAll(res)
			for _, proc := range res.Procs {
				for _, g := range proc.GMAs {
					cycles[g.Name] = g.Cycles
					optimal[g.Name] = g.OptimalProven
				}
			}
		}
		return total, cycles, optimal, nil
	}
	seqT, seqC, seqO, err := run(repro.Options{})
	if err != nil {
		return fmt.Errorf("sequential: %w", err)
	}
	parT, parC, parO, err := run(repro.Options{Strategy: "parallel", Workers: workers})
	if err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	// The speedup claim only stands if the answers are the same answers.
	for name, c := range seqC {
		if parC[name] != c {
			return fmt.Errorf("%s: parallel found %d cycles, sequential %d", name, parC[name], c)
		}
		if parO[name] != seqO[name] {
			return fmt.Errorf("%s: parallel optimal=%v, sequential %v", name, parO[name], seqO[name])
		}
	}
	fmt.Printf("corpus: %d programs, %d GMAs; workers=%d\n", len(corpus), len(seqC), workers)
	fmt.Printf("sequential (linear search):  %v\n", seqT.Round(time.Millisecond))
	fmt.Printf("parallel (speculative):      %v\n", parT.Round(time.Millisecond))
	fmt.Printf("speedup: %.2fx; identical cycles and optimality verdicts on all %d GMAs\n",
		float64(seqT)/float64(parT), len(seqC))
	if runtime.NumCPU() < workers {
		fmt.Printf("note: host has %d CPU(s) for %d workers; speculative probes serialize, so their wasted work is pure overhead here — the speedup needs a multicore host\n",
			runtime.NumCPU(), workers)
	}
	return nil
}

func a1() error {
	for _, disable := range []bool{false, true} {
		start := time.Now()
		g, err := compileOne(programs.Byteswap4, repro.Options{DisableAtMostOnce: disable})
		if err != nil {
			return err
		}
		conflicts := int64(0)
		for _, p := range g.Probes {
			conflicts += p.Conflicts
		}
		fmt.Printf("at-most-once disabled=%-5v: %d cycles, %d total conflicts, %v\n",
			disable, g.Cycles, conflicts, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeTrajectory writes the -out file: one summary per experiment, in
// run order, so successive bench runs can be diffed as a perf trajectory.
func writeTrajectory(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := struct {
		Schema      string       `json:"schema"`
		GeneratedAt string       `json:"generated_at"`
		GoMaxProcs  int          `json:"gomaxprocs"`
		Experiments []expSummary `json:"experiments"`
	}{
		Schema:      "denali-bench-trajectory/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Experiments: summaries,
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// e14 measures the compile service end to end: an in-process denali serve
// instance on a loopback port, hammered by concurrent HTTP clients, with
// latency reported both from the client side and from the server's own
// /compile histogram (they must agree for the telemetry to be trusted).
func e14() error {
	const clients = 8
	const total = 24
	srv := serve.New(serve.Config{
		Addr:          "127.0.0.1:0",
		Options:       repro.Options{Workers: 2},
		MaxConcurrent: clients,
		Registry:      benchReg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	base := "http://" + srv.Addr()

	corpus := []struct{ name, src string }{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"checksum", programs.Checksum},
	}
	type result struct {
		lat time.Duration
		err error
	}
	jobs := make(chan int)
	results := make(chan result, total)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := corpus[j%len(corpus)]
				t0 := time.Now()
				resp, err := http.Post(base+"/compile", "text/plain", strings.NewReader(p.src))
				if err != nil {
					results <- result{err: err}
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results <- result{err: fmt.Errorf("%s: HTTP %d: %.120s", p.name, resp.StatusCode, body)}
					continue
				}
				results <- result{lat: time.Since(t0)}
			}
		}()
	}
	for j := 0; j < total; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	close(results)
	var lats []time.Duration
	for r := range results {
		if r.err != nil {
			return r.err
		}
		lats = append(lats, r.lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	fmt.Printf("served %d compile requests over %d concurrent clients in %v (%.1f req/s)\n",
		total, clients, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	fmt.Printf("client-side latency: p50=%v p95=%v max=%v\n",
		pct(0.5).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
		lats[len(lats)-1].Round(time.Millisecond))
	h := srv.Registry().Histogram("denali_http_request_seconds", obs.T("path", "/compile"))
	fmt.Printf("server-side /compile histogram: count=%d p50=%.1fms p95=%.1fms max=%.1fms\n",
		h.Count, h.Quantile(0.5)*1e3, h.Quantile(0.95)*1e3, h.Max*1e3)
	if h.Count != total {
		return fmt.Errorf("server histogram counted %d requests, clients sent %d", h.Count, total)
	}
	scrape, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") && strings.TrimSpace(line) != "" {
			n++
		}
	}
	fmt.Printf("/metrics scrape: %d samples\n", n)
	cancel()
	if err := <-errc; err != nil {
		return err
	}
	curStrategy, curWorkers = "linear", 2
	return nil
}

// e15 measures what certified optimality costs: the E13 corpus is
// compiled once normally and once with DRAT proof logging plus the
// independent re-check, comparing wall clock and reporting the per-GMA
// check time and proof size. The claim under test: certification is
// cheap enough to leave on (the check replays unit propagation only,
// never search).
func e15() error {
	corpus := []struct {
		name string
		src  string
	}{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"byteswap5", programs.Byteswap5},
		{"copyloop", programs.CopyLoop},
		{"rowop", programs.Rowop},
		{"lcp2", programs.Lcp2},
		{"sumloop", programs.SumLoop},
		{"checksum", programs.Checksum},
		{"missloop", programs.MissLoop},
		{"popcount", programs.Popcount},
	}
	run := func(opt repro.Options) (time.Duration, []*repro.CompiledGMA, error) {
		total := time.Duration(0)
		var gmas []*repro.CompiledGMA
		for _, p := range corpus {
			res, wall, err := compile(p.src, opt)
			if err != nil {
				return 0, nil, fmt.Errorf("%s: %w", p.name, err)
			}
			total += wall
			recordAll(res)
			for _, proc := range res.Procs {
				gmas = append(gmas, proc.GMAs...)
			}
		}
		return total, gmas, nil
	}
	baseT, baseG, err := run(repro.Options{})
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	certT, certG, err := run(repro.Options{Certify: true})
	if err != nil {
		return fmt.Errorf("certify: %w", err)
	}
	fmt.Printf("%-18s %6s %8s %8s %12s %12s\n", "gma", "cycles", "optimal", "certif.", "drat-check", "proof-bytes")
	checkTotal := time.Duration(0)
	proofBytes := 0
	for i, g := range certG {
		if g.OptimalProven && !g.Certified {
			return fmt.Errorf("%s: optimality proven but certification missing", g.Name)
		}
		if baseG[i].Cycles != g.Cycles {
			return fmt.Errorf("%s: %d cycles certified, %d without logging", g.Name, g.Cycles, baseG[i].Cycles)
		}
		var buf bytes.Buffer
		size := "-"
		if err := g.WriteProof(&buf); err == nil {
			size = fmt.Sprintf("%d", buf.Len())
			proofBytes += buf.Len()
		} else if err != repro.ErrNoCertificate {
			return err
		}
		checkTotal += g.CertifyTime
		fmt.Printf("%-18s %6d %8v %8v %12v %12s\n",
			g.Name, g.Cycles, g.OptimalProven, g.Certified,
			g.CertifyTime.Round(time.Microsecond), size)
	}
	overhead := float64(certT-baseT) / float64(baseT) * 100
	fmt.Printf("corpus wall clock: %v plain, %v certified (%+.1f%%); DRAT checks %v total, proofs %d bytes\n",
		baseT.Round(time.Millisecond), certT.Round(time.Millisecond), overhead,
		checkTotal.Round(time.Millisecond), proofBytes)
	fmt.Println("(every optimality verdict above was re-derived by the independent RUP checker, not taken from the solver)")
	return nil
}

// e16Row is one GMA's scratch-vs-incremental comparison in the -inc-out
// JSON (BENCH_5.json by default).
type e16Row struct {
	GMA                     string  `json:"gma"`
	Cycles                  int     `json:"cycles"`
	Optimal                 bool    `json:"optimal"`
	Probes                  int     `json:"probes"`
	WarmProbes              int     `json:"warm_probes"`
	ScratchConflicts        int64   `json:"scratch_conflicts"`
	IncrementalConflicts    int64   `json:"incremental_conflicts"`
	ScratchPropagations     int64   `json:"scratch_propagations"`
	IncrementalPropagations int64   `json:"incremental_propagations"`
	ScratchSolveMillis      float64 `json:"scratch_solve_ms"`
	IncrementalSolveMillis  float64 `json:"incremental_solve_ms"`
}

// e16 measures what the persistent probe engine buys. Every GMA of the
// example corpus is saturated once, then the linear budget ladder
// K = 0, 1, … is walked twice on that E-graph, straight over the schedule
// layer: once with a from-scratch Problem per budget and once on one
// persistent Engine answering each budget as an assumption. The per-GMA
// CDCL work is compared. The claim under test: on multi-probe ladders the
// engine's learned-clause reuse strictly reduces total conflicts, while
// every budget gets the same verdict either way. Running both ladders
// here, rather than through a compile option, keeps the comparison
// independent of the adaptive mode pick (core.PrefersScratch), which
// routes the smallest GMAs to scratch probes in the product. The wall
// clocks cover each ladder's encode and solve time; matching is shared.
func e16() error {
	corpus := []struct {
		name      string
		src       string
		maxCycles int
	}{
		{"quickstart", programs.Quickstart, 24},
		{"byteswap4", programs.Byteswap4, 24},
		{"byteswap5", programs.Byteswap5, 24},
		{"copyloop", programs.CopyLoop, 24},
		{"rowop", programs.Rowop, 24},
		{"rowop4", programs.Rowop4, 64},
		{"lcp2", programs.Lcp2, 24},
		{"sumloop", programs.SumLoop, 24},
		{"checksum", programs.Checksum, 24},
		{"missloop", programs.MissLoop, 24},
		{"popcount", programs.Popcount, 24},
	}
	builtin, err := axioms.Builtin()
	if err != nil {
		return err
	}
	sopt := schedule.Options{Desc: alpha.EV6(), Sink: benchSink}
	// ladderRun is one side's walk of the linear ladder.
	type ladderRun struct {
		cycles           int
		optimal          bool
		probes, warm     int
		conflicts, props int64
		solve, wall      time.Duration
		verdicts         []sat.Result
	}
	// ladder walks K = 0, 1, … until SAT. solve answers budget k and
	// reports the time spent solving; encoding (a fresh Problem, or the
	// Engine's first window) counts toward the side's wall clock but not
	// its solve time, matching how core accounts probes.
	ladder := func(maxCycles int, solve func(k int) (schedule.Stat, time.Duration, error)) (ladderRun, error) {
		r := ladderRun{cycles: -1, optimal: true}
		start := time.Now()
		for k := 0; k <= maxCycles && r.cycles < 0; k++ {
			stat, elapsed, err := solve(k)
			if err != nil {
				return r, err
			}
			r.probes++
			r.solve += elapsed
			r.conflicts += stat.Solver.Conflicts
			r.props += stat.Solver.Propagations
			if stat.Reused {
				r.warm++
			}
			r.verdicts = append(r.verdicts, stat.Result)
			switch stat.Result {
			case sat.Sat:
				r.cycles = k
			case sat.Unknown:
				r.optimal = false
			}
		}
		r.wall = time.Since(start)
		if r.cycles < 0 {
			return r, core.ErrNoSchedule
		}
		return r, nil
	}
	var scratchT, incT time.Duration
	fmt.Printf("%-18s %6s %6s %12s %12s %14s %14s %10s %10s\n",
		"gma", "cycles", "probes", "scr-confl", "inc-confl", "scr-props", "inc-props", "scr-ms", "inc-ms")
	var out []e16Row
	wins, multi := 0, 0
	for _, p := range corpus {
		prog, err := lang.Parse(p.src)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		axs := append(append([]*axioms.Axiom{}, builtin...), prog.Axioms...)
		for _, proc := range prog.Procs {
			for _, g := range proc.GMAs {
				graph, err := saturate(g, axs)
				if err != nil {
					return fmt.Errorf("%s: %w", g.Name, err)
				}
				scr, err := ladder(p.maxCycles, func(k int) (schedule.Stat, time.Duration, error) {
					prob, err := schedule.NewProblem(graph, g, k, sopt)
					if err != nil {
						return schedule.Stat{}, 0, err
					}
					t0 := time.Now()
					_, stat, err := prob.Solve()
					return stat, time.Since(t0), err
				})
				if err != nil {
					return fmt.Errorf("%s scratch: %w", g.Name, err)
				}
				// The engine encodes its own clone: Problem setup adds input
				// and constant terms to the graph it encodes.
				engGraph := graph.Clone()
				var eng *schedule.Engine
				inc, err := ladder(p.maxCycles, func(k int) (schedule.Stat, time.Duration, error) {
					if eng == nil {
						var err error
						if eng, err = schedule.NewEngine(engGraph, g, min(7, p.maxCycles), p.maxCycles, sopt); err != nil {
							return schedule.Stat{}, 0, err
						}
					}
					t0 := time.Now()
					_, stat, err := eng.SolveBudget(k)
					return stat, time.Since(t0), err
				})
				if err != nil {
					return fmt.Errorf("%s incremental: %w", g.Name, err)
				}
				scratchT += scr.wall
				incT += inc.wall
				if scr.cycles != inc.cycles || scr.optimal != inc.optimal {
					return fmt.Errorf("%s: scratch (%d cycles, optimal=%v) and incremental (%d, %v) disagree",
						g.Name, scr.cycles, scr.optimal, inc.cycles, inc.optimal)
				}
				for k, v := range scr.verdicts {
					if inc.verdicts[k] != v {
						return fmt.Errorf("%s K=%d: scratch %v, incremental %v", g.Name, k, v, inc.verdicts[k])
					}
				}
				row := e16Row{
					GMA: g.Name, Cycles: inc.cycles, Optimal: inc.optimal,
					Probes: inc.probes, WarmProbes: inc.warm,
					ScratchConflicts: scr.conflicts, IncrementalConflicts: inc.conflicts,
					ScratchPropagations: scr.props, IncrementalPropagations: inc.props,
					ScratchSolveMillis:     float64(scr.solve.Microseconds()) / 1e3,
					IncrementalSolveMillis: float64(inc.solve.Microseconds()) / 1e3,
				}
				out = append(out, row)
				if inc.probes >= 2 {
					multi++
					if inc.conflicts < scr.conflicts {
						wins++
					}
				}
				fmt.Printf("%-18s %6d %6d %12d %12d %14d %14d %10.1f %10.1f\n",
					g.Name, inc.cycles, inc.probes, scr.conflicts, inc.conflicts, scr.props, inc.props,
					row.ScratchSolveMillis, row.IncrementalSolveMillis)
			}
		}
	}
	fmt.Printf("corpus wall clock: %v scratch, %v incremental; conflicts strictly reduced on %d/%d multi-probe compiles\n",
		scratchT.Round(time.Millisecond), incT.Round(time.Millisecond), wins, multi)
	fmt.Println("(identical verdicts at every budget on both sides — incrementality changes the work, never the answer)")
	if incOutPath != "" {
		doc := struct {
			Schema      string   `json:"schema"`
			GeneratedAt string   `json:"generated_at"`
			GoMaxProcs  int      `json:"gomaxprocs"`
			ScratchMS   float64  `json:"scratch_wall_ms"`
			IncMS       float64  `json:"incremental_wall_ms"`
			MultiProbe  int      `json:"multi_probe_gmas"`
			Wins        int      `json:"conflict_wins"`
			Rows        []e16Row `json:"gmas"`
		}{
			Schema:      "denali-bench-incremental/v1",
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			ScratchMS:   float64(scratchT.Microseconds()) / 1e3,
			IncMS:       float64(incT.Microseconds()) / 1e3,
			MultiProbe:  multi,
			Wins:        wins,
			Rows:        out,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(incOutPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("per-GMA comparison written to %s\n", incOutPath)
	}
	if wins*2 < multi {
		return fmt.Errorf("incremental search reduced conflicts on only %d of %d multi-probe compiles", wins, multi)
	}
	return nil
}

// saturate builds one GMA's E-graph as core.CompileGMA does before its
// budget search: the goals, then the programmer's assumptions, then
// matching to quiescence or the default budgets.
func saturate(g *gma.GMA, axs []*axioms.Axiom) (*egraph.Graph, error) {
	graph := egraph.New()
	for _, goal := range g.Goals() {
		graph.AddTerm(goal)
	}
	for _, as := range g.Assumes {
		a, b := graph.AddTerm(as.A), graph.AddTerm(as.B)
		var err error
		if as.Eq {
			err = graph.Merge(a, b)
		} else {
			err = graph.AssertDistinct(a, b)
		}
		if err != nil {
			return nil, err
		}
	}
	_, err := matcher.Saturate(graph, axs, matcher.Options{})
	return graph, err
}

// e17Row is one golden program in the E17 comparison: its cold (fresh
// compile) and hit (cache replay) service latency, and whether the cached
// answer was byte-identical to the fresh one.
type e17Row struct {
	Program    string  `json:"program"`
	GMAs       int     `json:"gmas"`
	ColdMillis float64 `json:"cold_ms"`
	HitMillis  float64 `json:"hit_ms"`
	Identical  bool    `json:"identical"`
}

// e17 measures what the compile cache buys on a repeat-heavy served
// workload: the golden corpus is compiled cold through an in-process
// server (all misses), then hammered with a Zipf-skewed warm mix that
// re-requests the popular programs. The claims under test: warm
// throughput is at least 5x cold, and every cached answer is
// byte-identical to the fresh compile it replays — a cache that serves
// stale or divergent code is worse than no cache.
func e17() error {
	srv := serve.New(serve.Config{
		Addr:     "127.0.0.1:0",
		Registry: benchReg,
		Cache:    compilecache.New(compilecache.Config{MaxEntries: 256}),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	base := "http://" + srv.Addr()

	corpus := []struct{ name, src string }{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"byteswap5", programs.Byteswap5},
		{"copyloop", programs.CopyLoop},
		{"rowop", programs.Rowop},
		{"lcp2", programs.Lcp2},
		{"sumloop", programs.SumLoop},
		{"checksum", programs.Checksum},
	}
	// post compiles one program over HTTP and returns the cache header,
	// the flattened GMAs, and the client-side latency.
	post := func(src string) (string, []serve.GMAJSON, time.Duration, error) {
		t0 := time.Now()
		resp, err := http.Post(base+"/compile", "text/plain", strings.NewReader(src))
		if err != nil {
			return "", nil, 0, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			return "", nil, 0, fmt.Errorf("HTTP %d: %.120s", resp.StatusCode, body)
		}
		var out serve.CompileResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return "", nil, 0, err
		}
		var gmas []serve.GMAJSON
		for _, p := range out.Procs {
			gmas = append(gmas, p.GMAs...)
		}
		return resp.Header.Get("X-Denali-Cache"), gmas, lat, nil
	}
	// identical compares the fields the cache must reproduce exactly; the
	// per-request numbers (match/solve wall time) legitimately differ.
	identical := func(a, b []serve.GMAJSON) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Cycles != b[i].Cycles ||
				a[i].Instructions != b[i].Instructions ||
				a[i].OptimalProven != b[i].OptimalProven ||
				a[i].Assembly != b[i].Assembly {
				return false
			}
		}
		return true
	}

	// Cold pass: every program once. All must miss.
	rows := make([]e17Row, len(corpus))
	cold := make([][]serve.GMAJSON, len(corpus))
	coldStart := time.Now()
	for i, p := range corpus {
		hdr, gmas, lat, err := post(p.src)
		if err != nil {
			return fmt.Errorf("cold %s: %w", p.name, err)
		}
		if hdr != "miss" {
			return fmt.Errorf("cold %s: X-Denali-Cache = %q, want \"miss\"", p.name, hdr)
		}
		cold[i] = gmas
		rows[i] = e17Row{Program: p.name, GMAs: len(gmas), ColdMillis: float64(lat.Microseconds()) / 1e3}
	}
	coldWall := time.Since(coldStart)

	// Warm pass: a Zipf-skewed mix over the now-cached corpus — the
	// served steady state, where a few hot programs dominate. Fixed seed
	// so the workload (and the numbers) are reproducible.
	const warmN = 64
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), 1.4, 1.5, uint64(len(corpus)-1))
	warmStart := time.Now()
	for i := 0; i < warmN; i++ {
		j := int(zipf.Uint64())
		hdr, gmas, _, err := post(corpus[j].src)
		if err != nil {
			return fmt.Errorf("warm %s: %w", corpus[j].name, err)
		}
		if hdr != "hit" {
			return fmt.Errorf("warm %s: X-Denali-Cache = %q, want \"hit\"", corpus[j].name, hdr)
		}
		if !identical(gmas, cold[j]) {
			return fmt.Errorf("warm %s: cached answer diverged from the fresh compile", corpus[j].name)
		}
	}
	warmWall := time.Since(warmStart)

	// Divergence sweep: one guaranteed hit per golden program (the Zipf
	// mix may skip the tail), each compared against its fresh answer.
	diverged := 0
	for i, p := range corpus {
		hdr, gmas, lat, err := post(p.src)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", p.name, err)
		}
		if hdr != "hit" {
			return fmt.Errorf("sweep %s: X-Denali-Cache = %q, want \"hit\"", p.name, hdr)
		}
		rows[i].HitMillis = float64(lat.Microseconds()) / 1e3
		rows[i].Identical = identical(gmas, cold[i])
		if !rows[i].Identical {
			diverged++
		}
	}

	hits := benchReg.CounterValue(obs.MCacheHits, obs.T("tier", "memory")) +
		benchReg.CounterValue(obs.MCacheHits, obs.T("tier", "disk"))
	misses := benchReg.CounterValue(obs.MCacheMisses)
	coldRPS := float64(len(corpus)) / coldWall.Seconds()
	warmRPS := float64(warmN) / warmWall.Seconds()
	speedup := warmRPS / coldRPS

	fmt.Printf("%-12s %5s %10s %10s %10s\n", "program", "gmas", "cold-ms", "hit-ms", "identical")
	for _, r := range rows {
		fmt.Printf("%-12s %5d %10.1f %10.1f %10v\n", r.Program, r.GMAs, r.ColdMillis, r.HitMillis, r.Identical)
	}
	fmt.Printf("cold: %d programs in %v (%.1f req/s); warm: %d requests in %v (%.1f req/s) — %.1fx\n",
		len(corpus), coldWall.Round(time.Millisecond), coldRPS,
		warmN, warmWall.Round(time.Millisecond), warmRPS, speedup)
	fmt.Printf("cache counters: %.0f hits, %.0f misses (%.0f%% hit rate); %d/%d cached answers identical to fresh\n",
		hits, misses, 100*hits/(hits+misses), len(corpus)-diverged, len(corpus))

	cancel()
	if err := <-errc; err != nil {
		return err
	}
	if cacheOutPath != "" {
		doc := struct {
			Schema       string   `json:"schema"`
			GeneratedAt  string   `json:"generated_at"`
			GoMaxProcs   int      `json:"gomaxprocs"`
			ColdMS       float64  `json:"cold_wall_ms"`
			WarmMS       float64  `json:"warm_wall_ms"`
			ColdRPS      float64  `json:"cold_req_per_sec"`
			WarmRPS      float64  `json:"warm_req_per_sec"`
			Speedup      float64  `json:"warm_over_cold"`
			WarmRequests int      `json:"warm_requests"`
			Hits         int      `json:"cache_hits"`
			Misses       int      `json:"cache_misses"`
			Diverged     int      `json:"diverged"`
			Rows         []e17Row `json:"programs"`
		}{
			Schema:      "denali-bench-cache/v1",
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			ColdMS:      float64(coldWall.Microseconds()) / 1e3,
			WarmMS:      float64(warmWall.Microseconds()) / 1e3,
			ColdRPS:     coldRPS, WarmRPS: warmRPS, Speedup: speedup,
			WarmRequests: warmN,
			Hits:         int(hits), Misses: int(misses), Diverged: diverged,
			Rows: rows,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cacheOutPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("cold-vs-warm comparison written to %s\n", cacheOutPath)
	}
	if diverged > 0 {
		return fmt.Errorf("%d of %d cached answers diverged from their fresh compiles", diverged, len(corpus))
	}
	if speedup < 5 {
		return fmt.Errorf("warm throughput only %.1fx cold, want >= 5x", speedup)
	}
	return nil
}

// e18Row is one GMA unit of the E18 fleet batch: which worker answered
// it and whether its result was byte-identical to the single-node
// compile of the same program.
type e18Row struct {
	Proc      string  `json:"proc"`
	Name      string  `json:"name"`
	Worker    string  `json:"worker"`
	Attempts  int     `json:"attempts"`
	Identical bool    `json:"identical"`
	Millis    float64 `json:"ms,omitempty"`
}

// e18 measures what the sharded fleet buys on a multi-GMA program: the
// combined six-GMA corpus is compiled whole on a single-worker node,
// then fanned out as a /compile/batch across a three-worker ring behind
// a router. The claims under test: the fleet batch beats the single
// node's sequential wall clock, every routed unit answers byte-identical
// assembly to the single-node compile (the consistent-hash split must
// not change results), and no unit needs a retry on a healthy fleet.
func e18() error {
	combined := programs.Quickstart + programs.Lcp2 + programs.CopyLoop +
		programs.Rowop + programs.Byteswap4
	opt := repro.Options{Arch: "ev6", Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One process hosts all four servers; each worker compiles with one
	// pipeline worker, so fleet parallelism comes only from the sharding.
	start := func(cfg serve.Config) (*serve.Server, chan error) {
		cfg.Addr = "127.0.0.1:0"
		s := serve.New(cfg)
		errc := make(chan error, 1)
		go func() { errc <- s.ListenAndServe(ctx) }()
		for s.Addr() == "" {
			time.Sleep(time.Millisecond)
		}
		return s, errc
	}

	solo, soloErr := start(serve.Config{Options: opt, Registry: obs.NewCompilerRegistry(), MaxConcurrent: 1})
	var members []string
	var workerErrs []chan error
	for i := 0; i < 3; i++ {
		w, errc := start(serve.Config{Options: opt, Registry: obs.NewCompilerRegistry(), MaxConcurrent: 2})
		members = append(members, w.Addr())
		workerErrs = append(workerErrs, errc)
	}
	router, routerErr := start(serve.Config{Options: opt, Registry: benchReg, Route: members})

	// Single-node baseline: the whole program through one /compile.
	singleStart := time.Now()
	resp, err := http.Post("http://"+solo.Addr()+"/compile", "text/plain", strings.NewReader(combined))
	if err != nil {
		return fmt.Errorf("single-node compile: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	singleWall := time.Since(singleStart)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("single-node compile: HTTP %d: %.120s", resp.StatusCode, body)
	}
	var single serve.CompileResponse
	if err := json.Unmarshal(body, &single); err != nil {
		return err
	}
	truth := map[string]string{}
	for _, p := range single.Procs {
		for _, g := range p.GMAs {
			truth[p.Name+"/"+g.Name] = g.Assembly
		}
	}

	// Fleet: the same program as one /compile/batch through the router.
	type line struct {
		Proc     string         `json:"proc"`
		Name     string         `json:"name"`
		Worker   string         `json:"worker"`
		Attempts int            `json:"attempts"`
		Error    string         `json:"error"`
		GMA      *serve.GMAJSON `json:"gma"`
		Done     bool           `json:"done"`
		Errors   int            `json:"errors"`
	}
	batchStart := time.Now()
	resp, err = http.Post("http://"+router.Addr()+"/compile/batch", "application/json",
		strings.NewReader(fmt.Sprintf("{\"source\":%q}", combined)))
	if err != nil {
		return fmt.Errorf("fleet batch: %w", err)
	}
	var rows []e18Row
	identicalN := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			resp.Body.Close()
			return fmt.Errorf("fleet batch line %q: %w", sc.Text(), err)
		}
		if l.Done {
			if l.Errors != 0 {
				resp.Body.Close()
				return fmt.Errorf("fleet batch reported %d failed units", l.Errors)
			}
			continue
		}
		if l.Error != "" {
			resp.Body.Close()
			return fmt.Errorf("fleet unit %s failed: %s", l.Name, l.Error)
		}
		row := e18Row{Proc: l.Proc, Name: l.Name, Worker: l.Worker, Attempts: l.Attempts}
		if l.GMA != nil {
			row.Identical = l.GMA.Assembly == truth[l.Proc+"/"+l.Name]
			row.Millis = l.GMA.SolveMillis + l.GMA.MatchMillis
		}
		if row.Identical {
			identicalN++
		}
		rows = append(rows, row)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	batchWall := time.Since(batchStart)
	if len(rows) != len(truth) {
		return fmt.Errorf("fleet batch answered %d units, single node compiled %d GMAs", len(rows), len(truth))
	}

	retries := benchReg.CounterValue(obs.MRouterRetries)
	speedup := singleWall.Seconds() / batchWall.Seconds()
	fmt.Printf("%-12s %-12s %-21s %8s %9s\n", "proc", "gma", "worker", "attempts", "identical")
	for _, r := range rows {
		fmt.Printf("%-12s %-12s %-21s %8d %9v\n", r.Proc, r.Name, r.Worker, r.Attempts, r.Identical)
	}
	fmt.Printf("single node: %d GMAs in %v; fleet batch over %d workers: %v — %.2fx; %d retries\n",
		len(truth), singleWall.Round(time.Millisecond), len(members),
		batchWall.Round(time.Millisecond), speedup, int(retries))

	cancel()
	for _, errc := range append(workerErrs, soloErr, routerErr) {
		if err := <-errc; err != nil {
			return err
		}
	}

	if fleetOutPath != "" {
		doc := struct {
			Schema      string   `json:"schema"`
			GeneratedAt string   `json:"generated_at"`
			GoMaxProcs  int      `json:"gomaxprocs"`
			Workers     int      `json:"fleet_workers"`
			GMAs        int      `json:"gmas"`
			SingleMS    float64  `json:"single_node_wall_ms"`
			FleetMS     float64  `json:"fleet_batch_wall_ms"`
			Speedup     float64  `json:"fleet_over_single"`
			Retries     int      `json:"router_retries"`
			Identical   int      `json:"identical"`
			Rows        []e18Row `json:"units"`
		}{
			Schema:      "denali-bench-fleet/v1",
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Workers:     len(members),
			GMAs:        len(truth),
			SingleMS:    float64(singleWall.Microseconds()) / 1e3,
			FleetMS:     float64(batchWall.Microseconds()) / 1e3,
			Speedup:     speedup,
			Retries:     int(retries),
			Identical:   identicalN,
			Rows:        rows,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(fleetOutPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("single-vs-fleet comparison written to %s\n", fleetOutPath)
	}

	if identicalN != len(rows) {
		return fmt.Errorf("%d of %d fleet units diverged from the single-node compile", len(rows)-identicalN, len(rows))
	}
	if retries > 0 {
		return fmt.Errorf("healthy fleet needed %d retries, want 0", int(retries))
	}
	// The wall-clock win needs real cores: all four servers share this
	// process, so on one CPU the fleet can only add routing overhead. Gate
	// the speedup claim on parallel hardware and bound the overhead
	// otherwise.
	if runtime.GOMAXPROCS(0) >= 2 {
		if speedup < 1.1 {
			return fmt.Errorf("fleet batch only %.2fx the single node, want >= 1.1x", speedup)
		}
	} else if speedup < 0.55 {
		return fmt.Errorf("fleet batch %.2fx the single node on one CPU: routing overhead above 80%%", speedup)
	}
	return nil
}

// e19Row is one GMA in the E19 descend-vs-portfolio comparison
// (BENCH_8.json). The descend_* columns replay the plain SAT sweep;
// stochastic_bound is the standalone MCMC engine's verified cycle count
// (0 when the engine declines the GMA, e.g. memory operations); the
// bounded_* columns re-run descend from that bound, isolating what the
// portfolio's racer buys independent of wall-clock interleaving; the
// portfolio_* columns run the actual race.
type e19Row struct {
	GMA                string  `json:"gma"`
	Cycles             int     `json:"cycles"`
	PortfolioCycles    int     `json:"portfolio_cycles"`
	Certified          bool    `json:"certified"`
	PortfolioCertified bool    `json:"portfolio_certified"`
	Winner             string  `json:"winner"`
	NaiveBound         int     `json:"naive_bound"`
	StochasticBound    int     `json:"stochastic_bound"`
	DescendProbes      int     `json:"descend_probes"`
	BoundedProbes      int     `json:"bounded_probes"`
	DescendConflicts   int64   `json:"descend_conflicts"`
	BoundedConflicts   int64   `json:"bounded_conflicts"`
	DescendSolveMS     float64 `json:"descend_solve_ms"`
	BoundedSolveMS     float64 `json:"bounded_solve_ms"`
	DescendWallMS      float64 `json:"descend_wall_ms"`
	PortfolioWallMS    float64 `json:"portfolio_wall_ms"`
}

// e19 measures what the portfolio's stochastic racer buys over the plain
// SAT descend sweep. Per GMA it (1) runs certified descend from the
// conventional baseline's bound, (2) runs the MCMC engine alone to get
// its verified upper bound, (3) re-runs descend from that bound — the
// deterministic stand-in for the race, since the real portfolio's probe
// ladder depends on wall-clock interleaving — and (4) runs the actual
// portfolio with certification on. The claims under test: the portfolio
// never answers more cycles than descend, certification survives the
// race, and on at least one GMA the stochastic bound strictly cuts the
// SAT probe conflicts of the sweep.
func e19() error {
	corpus := []struct{ name, src string }{
		{"quickstart", programs.Quickstart},
		{"byteswap4", programs.Byteswap4},
		{"copyloop", programs.CopyLoop},
		{"rowop", programs.Rowop},
		{"lcp2", programs.Lcp2},
		{"sumloop", programs.SumLoop},
	}
	axs, err := axioms.Builtin()
	if err != nil {
		return err
	}
	desc := alpha.EV6()
	const seed = 7
	curStrategy = "portfolio"
	sums := func(c *core.Compiled) (conflicts int64) {
		for _, p := range c.Probes {
			conflicts += p.Solver.Conflicts
		}
		return
	}
	var out []e19Row
	cuts := 0
	fmt.Printf("%-18s %6s %6s %6s %12s %12s %9s\n",
		"gma", "cycles", "naive", "stoch", "desc-confl", "bound-confl", "winner")
	for _, p := range corpus {
		prog, err := lang.Parse(p.src)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		all := append(append([]*axioms.Axiom{}, axs...), prog.Axioms...)
		base := core.Options{Desc: desc, Axioms: all, Search: core.DescendSearch, Sink: benchSink}
		base.Schedule.Certify = true
		for _, proc := range prog.Procs {
			for _, g := range proc.GMAs {
				naive := 0
				if s, nerr := naivegen.Compile(g, desc); nerr == nil {
					naive = s.K
				}
				dopt := base
				dopt.UpperBoundHint = naive
				t0 := time.Now()
				dc, err := core.CompileGMA(g, dopt)
				if err != nil {
					return fmt.Errorf("%s descend: %w", g.Name, err)
				}
				row := e19Row{
					GMA: g.Name, Cycles: dc.Cycles, Certified: dc.Certified,
					NaiveBound:       naive,
					DescendProbes:    len(dc.Probes),
					DescendConflicts: sums(dc),
					DescendSolveMS:   float64(dc.SolveTime.Microseconds()) / 1e3,
					DescendWallMS:    float64(time.Since(t0).Microseconds()) / 1e3,
				}
				// The standalone stochastic bound: the racer's contribution,
				// measured without the race's timing nondeterminism.
				if eng, serr := stoke.New(g, desc, stoke.Options{Seed: seed, Sink: benchSink}); serr == nil {
					if sres, rerr := eng.Run(); rerr == nil && sres.Schedule != nil {
						row.StochasticBound = sres.Cycles
					}
				}
				bound := naive
				if row.StochasticBound > 0 && row.StochasticBound < bound {
					bound = row.StochasticBound
				}
				bopt := base
				bopt.UpperBoundHint = bound
				bc, err := core.CompileGMA(g, bopt)
				if err != nil {
					return fmt.Errorf("%s bounded descend: %w", g.Name, err)
				}
				row.BoundedProbes = len(bc.Probes)
				row.BoundedConflicts = sums(bc)
				row.BoundedSolveMS = float64(bc.SolveTime.Microseconds()) / 1e3
				if bc.Cycles != dc.Cycles {
					return fmt.Errorf("%s: bounded descend answered %d cycles, plain descend %d",
						g.Name, bc.Cycles, dc.Cycles)
				}
				popt := base
				popt.Search = core.PortfolioSearch
				popt.UpperBoundHint = naive
				popt.Seed = seed
				t0 = time.Now()
				pc, err := core.CompileGMA(g, popt)
				if err != nil {
					return fmt.Errorf("%s portfolio: %w", g.Name, err)
				}
				row.PortfolioCycles = pc.Cycles
				row.PortfolioCertified = pc.Certified
				row.Winner = pc.Engine
				row.PortfolioWallMS = float64(time.Since(t0).Microseconds()) / 1e3
				if pc.Cycles > dc.Cycles {
					return fmt.Errorf("%s: portfolio answered %d cycles, descend %d — the race must never lose quality",
						g.Name, pc.Cycles, dc.Cycles)
				}
				if dc.Certified && !pc.Certified {
					return fmt.Errorf("%s: descend certified its optimum but the portfolio did not", g.Name)
				}
				if row.BoundedConflicts < row.DescendConflicts {
					cuts++
				}
				out = append(out, row)
				fmt.Printf("%-18s %6d %6d %6d %12d %12d %9s\n",
					g.Name, row.Cycles, row.NaiveBound, row.StochasticBound,
					row.DescendConflicts, row.BoundedConflicts, row.Winner)
			}
		}
	}
	fmt.Printf("stochastic bound cut SAT conflicts on %d/%d GMAs; portfolio cycle-equal and certification intact on all\n",
		cuts, len(out))
	if portfolioOutPath != "" {
		doc := struct {
			Schema      string   `json:"schema"`
			GeneratedAt string   `json:"generated_at"`
			GoMaxProcs  int      `json:"gomaxprocs"`
			Seed        int      `json:"seed"`
			ConflictCut int      `json:"conflict_cut_gmas"`
			Rows        []e19Row `json:"gmas"`
		}{
			Schema:      "denali-bench-portfolio/v1",
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Seed:        seed,
			ConflictCut: cuts,
			Rows:        out,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(portfolioOutPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("descend-vs-portfolio comparison written to %s\n", portfolioOutPath)
	}
	if cuts == 0 {
		return fmt.Errorf("the stochastic bound cut SAT probe conflicts on no GMA")
	}
	return nil
}

func a2() error {
	fmt.Printf("%-22s %8s %8s %9s\n", "budget", "cycles", "instrs", "optimal")
	for _, nodes := range []int{60, 200, 2000, 50000} {
		g, err := compileOne(programs.Byteswap4, repro.Options{MatcherMaxNodes: nodes})
		if err != nil {
			// With a tiny budget the goal may be uncomputable — that is
			// the point of the ablation.
			fmt.Printf("nodes<=%-15d %8s (%v)\n", nodes, "-", err)
			continue
		}
		fmt.Printf("nodes<=%-15d %8d %8d %9v\n", nodes, g.Cycles, g.Instructions, g.OptimalProven)
	}
	fmt.Println("(starved saturation loses alternatives: \"near-optimal\" rather than \"optimal\", section 6)")
	return nil
}
