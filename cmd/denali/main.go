// Command denali compiles a program in the Denali input language (the
// paper's Figure 6 syntax) into annotated Alpha EV6 assembly, printing the
// near-optimal schedule for every guarded multi-assignment together with
// the SAT-probe evidence that smaller cycle budgets are infeasible.
//
// Usage:
//
//	denali [flags] file.dn
//	denali [flags] -        (read from stdin)
//	denali serve [flags]    (run as an HTTP compile service)
//	denali report [flags] reports.jsonl   (summarize a flight-report log)
//
// Flags select the machine model, the budget search strategy, matcher
// budgets, and optional post-compile verification on random inputs.
//
// Observability flags:
//
//	-trace out.json   write a Chrome trace_event file of the whole run
//	                  (open in chrome://tracing or https://ui.perfetto.dev)
//	-metrics          print a per-phase wall-time table on stderr, then the
//	                  run's counts summed from its flight records
//	-pprof addr       serve net/http/pprof on addr (e.g. localhost:6060)
//	-report-out f     append this run's flight report (request ID, per-GMA
//	                  fingerprints, the full SAT probe ladder, outcome) as
//	                  one JSON line to f; summarize with `denali report f`
//	-request-id id    use this request ID instead of generating one
//
// The serve mode exposes POST /compile, GET /metrics (Prometheus text
// exposition), GET /healthz, GET /readyz, GET /version, the flight
// recorder under /debug/requests and /debug/pprof/, with graceful
// shutdown on SIGINT/SIGTERM; see `denali serve -h` and the README's
// "Running as a service" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "report" {
		reportMain(os.Args[2:])
		return
	}
	var (
		archName  = flag.String("arch", "ev6", "machine model: ev6, ev6-noclusters, ev6-single, ev6-dual")
		strategy  = flag.String("strategy", "linear", "budget search engine: linear, binary, descend, parallel, or stochastic")
		seed      = flag.Uint64("seed", 0, "random seed for the stochastic engine (default: derived from the request ID)")
		workers   = flag.Int("workers", 0, "GMAs of the program compiled at once (0 or 1 = one at a time, as under -trace and -metrics) and, under -strategy parallel, SAT probes in flight per GMA (0 = GOMAXPROCS)")
		maxCycles = flag.Int("max-cycles", 24, "largest cycle budget to try")
		maxRounds = flag.Int("matcher-rounds", 0, "matcher round budget (0 = default)")
		maxNodes  = flag.Int("matcher-nodes", 0, "matcher node budget (0 = default)")
		verifyN   = flag.Int("verify", 0, "verify each schedule on N random inputs")
		certify   = flag.Bool("certify", false, "record DRAT proofs and re-check the optimality refutation with the independent checker")
		proofOut  = flag.String("proof-out", "", "write each certified refutation as <path>_<gma>.drat with a companion .cnf (implies -certify)")
		probes    = flag.Bool("probes", false, "print per-probe SAT statistics")
		listing   = flag.Bool("nops", false, "print the nop-padded issue-slot listing")
		baseline  = flag.Bool("baseline", false, "also compile with the conventional baseline generator")
		quiet     = flag.Bool("q", false, "print only the summary line per GMA")
		dotPath   = flag.String("dot", "", "write each GMA's saturated E-graph as <path>_<gma>.dot")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON file of the compile pipeline")
		metrics   = flag.Bool("metrics", false, "print the per-phase wall-time table and the run's counts on stderr")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		reportOut = flag.String("report-out", "", "append this run's flight report as one JSON line to this file")
		requestID = flag.String("request-id", "", "request ID for the flight report and provenance comments (default: generated)")
		cacheDir  = flag.String("cache-dir", "", "enable the compile cache, persisted in this directory: identical compiles (same GMA, options, axioms and build) are answered from it across runs")
		cacheMax  = flag.Int("cache-max", 1024, "in-memory compile-cache entry bound (with -cache-dir)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: denali [flags] file.dn   (or - for stdin)")
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "denali: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if _, err := core.ParseStrategy(*strategy); err != nil {
		fatal(err)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var tr *obs.Trace
	if *tracePath != "" || *metrics {
		tr = obs.New()
	}
	opt := repro.Options{
		Arch:             *archName,
		Strategy:         *strategy,
		Workers:          *workers,
		MaxCycles:        *maxCycles,
		MatcherMaxRounds: *maxRounds,
		MatcherMaxNodes:  *maxNodes,
		Certify:          *certify || *proofOut != "",
		Trace:            tr,
	}
	// -seed pins the stochastic engine's randomness (flag.Visit
	// distinguishes an explicit -seed 0 from the absent default).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			s := *seed
			opt.Seed = &s
		}
	})
	if *cacheDir != "" {
		store, err := compilecache.OpenDisk(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opt.Cache = compilecache.New(compilecache.Config{MaxEntries: *cacheMax, Store: store})
	}
	// The flight recorder captures this run as one structured report —
	// request ID, per-GMA fingerprint and probe ladder, outcome — appended
	// to -report-out as a JSON line (`denali report` summarizes such logs).
	var (
		fr        *flight.Recorder
		reportLog *flight.Log
	)
	if *reportOut != "" {
		id := *requestID
		if id == "" {
			id = flight.NewID()
		}
		fr = flight.NewRecorder(flight.SanitizeID(id))
		fr.SetRequest(*archName, opt.StrategyName(), *workers, len(src))
		opt.RequestID = fr.ID()
		opt.Flight = fr
		var err error
		reportLog, err = flight.OpenLog(*reportOut)
		if err != nil {
			fatal(err)
		}
		defer reportLog.Close()
	}
	start := time.Now()
	res, err := repro.Compile(src, opt)
	if err != nil {
		// Failed runs are the reports most worth keeping: record the error
		// (plus whatever partial per-GMA records the compiler left) first.
		if fr.Enabled() {
			fr.Fail(err.Error(), false)
			reportLog.Write(fr.Report(time.Since(start)))
			reportLog.Close()
		}
		fatal(err)
	}
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			fmt.Printf("=== %s: %d cycles, %d instructions", g.Name, g.Cycles, g.Instructions)
			if g.OptimalProven {
				fmt.Print(optimalNote(g.Cycles))
			}
			if g.Certified {
				fmt.Printf(" [certified: DRAT check %v]", g.CertifyTime.Round(time.Microsecond))
			}
			fmt.Println()
			if !*quiet {
				if *listing {
					fmt.Println(g.Listing)
				} else {
					fmt.Println(g.Assembly)
				}
			}
			if *probes {
				fmt.Printf("  matcher: %d rounds, %d instantiations, %d nodes, %d classes (quiescent=%v) in %v\n",
					g.Match.Rounds, g.Match.Instantiations, g.Match.Nodes, g.Match.Classes,
					g.Match.Quiescent, g.Match.Elapsed.Round(time.Microsecond))
				for _, p := range g.Probes {
					mark := ""
					if p.Reused {
						mark = "  warm"
					}
					fmt.Printf("  K=%-3d %-7s %6d vars %7d clauses %7d conflicts %8d decisions %9d props %10v%s\n",
						p.K, p.Result, p.Vars, p.Clauses, p.Conflicts, p.Decisions, p.Propagations,
						p.Elapsed.Round(time.Microsecond), mark)
				}
			}
			if *baseline {
				b, err := g.Baseline()
				if err != nil {
					fmt.Printf("  baseline: error: %v\n", err)
				} else {
					fmt.Printf("  baseline: %d cycles, %d instructions (Denali %+d)\n",
						b.Cycles, b.Instructions, g.Cycles-b.Cycles)
				}
			}
			if *proofOut != "" {
				if err := writeProof(g, *proofOut); err != nil {
					fatal(err)
				}
			}
			if *dotPath != "" {
				file := fmt.Sprintf("%s_%s.dot", *dotPath, g.Name)
				if err := os.WriteFile(file, []byte(g.EGraphDot()), 0o644); err != nil {
					fatal(err)
				}
				fmt.Printf("  e-graph written to %s\n", file)
			}
			if *verifyN > 0 {
				if err := g.Verify(*verifyN, 1); err != nil {
					fatal(fmt.Errorf("verification of %s failed: %w", g.Name, err))
				}
				fmt.Printf("  verified on %d random inputs\n", *verifyN)
			}
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	if fr.Enabled() {
		if err := reportLog.Write(fr.Report(time.Since(start))); err != nil {
			fmt.Fprintln(os.Stderr, "denali: report-out:", err)
		} else {
			fmt.Fprintf(os.Stderr, "flight report %s appended to %s\n", fr.ID(), *reportOut)
		}
	}
	if *metrics {
		fmt.Fprint(os.Stderr, tr.MetricsTable())
		fmt.Fprint(os.Stderr, countsTable(res))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
}

// optimalNote is a proven optimum's note in the per-GMA header: the
// refuted budget one below it, or none for a 0-cycle optimum, which has
// no smaller budget to refute.
func optimalNote(cycles int) string {
	if cycles == 0 {
		return " (optimal)"
	}
	return fmt.Sprintf(" (optimal: %d-cycle budget refuted)", cycles-1)
}

// countNames are the rows of the -metrics counts block, in print order.
var countNames = []string{
	"matcher.classes", "matcher.instantiations", "matcher.nodes", "matcher.rounds", "probes",
	"sat.conflicts", "sat.decisions", "sat.learned", "sat.propagations", "sat.restarts",
}

// countsTable renders the -metrics counts block: each count summed over
// the flight records of the GMAs res compiled. A cache-hit or coalesced
// GMA replays an origin compile's record and did no work in this run, so
// it adds nothing, as on serve's /metrics.
func countsTable(res *repro.Result) string {
	n := map[string]int64{}
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			r := g.FlightReport()
			if r.CacheHit || r.Coalesced {
				continue
			}
			n["matcher.classes"] += int64(r.EGraphClasses)
			n["matcher.instantiations"] += int64(r.MatchInstantiations)
			n["matcher.nodes"] += int64(r.EGraphNodes)
			n["matcher.rounds"] += int64(r.MatchRounds)
			n["probes"] += int64(len(r.Probes))
			for _, p := range r.Probes {
				n["sat.conflicts"] += p.Conflicts
				n["sat.decisions"] += p.Decisions
				n["sat.learned"] += int64(p.Learned)
				n["sat.propagations"] += p.Propagations
				n["sat.restarts"] += p.Restarts
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %12s\n", "counter", "value")
	for _, name := range countNames {
		fmt.Fprintf(&b, "%-36s %12d\n", name, n[name])
	}
	return b.String()
}

// serveMain runs the long-lived HTTP compile service.
func serveMain(args []string) {
	fs := flag.NewFlagSet("denali serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8473", "listen address (host:port; port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		archName   = fs.String("arch", "ev6", "machine model: ev6, ev6-noclusters, ev6-single, ev6-dual, itanium")
		certify    = fs.Bool("certify", false, "default to DRAT-certifying optimality claims (requests may override with \"certify\")")
		workers    = fs.Int("workers", 0, "GMAs of one request compiled at once (and parallel-strategy probes in flight per GMA), and the ceiling for request overrides (0 = the -max-concurrent bound)")
		maxConc    = fs.Int("max-concurrent", 0, "concurrent /compile requests (0 = workers)")
		reqTimeout = fs.Duration("timeout", 60*time.Second, "per-request compile timeout")
		drain      = fs.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
		accessLog  = fs.Bool("access-log", false, "log one JSON line per HTTP request to stderr (request ID, status, latency, strategy, cycles)")
		flightRing = fs.Int("flight-ring", 0, "flight reports kept for /debug/requests (0 = default)")
		cacheMax   = fs.Int("cache-max", 1024, "in-memory compile-cache entries (0 disables the cache)")
		cacheDir   = fs.String("cache-dir", "", "persist the compile cache in this directory (entries survive restarts)")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: denali serve [flags]")
		fs.Usage()
		os.Exit(2)
	}
	cfg := serve.Config{
		Addr: *addr,
		Options: repro.Options{
			Arch:    *archName,
			Workers: *workers,
			Certify: *certify,
		},
		MaxConcurrent:  *maxConc,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drain,
		FlightRing:     *flightRing,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	// The cache is on by default for the service — repeat-heavy request
	// mixes are exactly what a long-lived compile server sees; -cache-max 0
	// turns it off, -cache-dir adds persistence across restarts.
	if *cacheMax > 0 {
		ccfg := compilecache.Config{MaxEntries: *cacheMax}
		if *cacheDir != "" {
			store, err := compilecache.OpenDisk(*cacheDir)
			if err != nil {
				fatal(err)
			}
			ccfg.Store = store
		}
		cfg.Cache = compilecache.New(ccfg)
	}
	srv := serve.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Report the bound address once the listener is up — both for humans
	// and, via -addr-file, for scripts that asked for port 0.
	go func() {
		for srv.Addr() == "" {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		fmt.Fprintf(os.Stderr, "denali: serving on http://%s (POST /compile, /metrics, /healthz, /readyz, /version, /debug/requests, /debug/history, /debug/pprof/)\n", srv.Addr())
		if *addrFile != "" {
			if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "denali: addr-file:", err)
			}
		}
	}()
	if err := srv.ListenAndServe(ctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "denali: shut down cleanly")
}

// writeProof exports one GMA's checked refutation: the DRAT derivation
// plus the refuted instance's CNF, the pair an external drat-trim needs.
// A GMA without a certificate (unproven, or a 0-cycle optimum with
// nothing to refute) is noted and skipped rather than treated as fatal.
func writeProof(g *repro.CompiledGMA, prefix string) error {
	dratFile := fmt.Sprintf("%s_%s.drat", prefix, g.Name)
	cnfFile := fmt.Sprintf("%s_%s.cnf", prefix, g.Name)
	pf, err := os.Create(dratFile)
	if err != nil {
		return err
	}
	werr := g.WriteProof(pf)
	if cerr := pf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(dratFile)
		if werr == repro.ErrNoCertificate {
			fmt.Printf("  no certificate to export (optimality %sproven, %d cycles)\n",
				map[bool]string{true: "", false: "not "}[g.OptimalProven], g.Cycles)
			return nil
		}
		return werr
	}
	cf, err := os.Create(cnfFile)
	if err != nil {
		return err
	}
	werr = g.WriteProofCNF(cf)
	if cerr := cf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("  proof written to %s (formula in %s)\n", dratFile, cnfFile)
	return nil
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "denali:", err)
	os.Exit(1)
}
