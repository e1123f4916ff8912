// Package repro is a from-scratch Go reproduction of "Denali: A
// Goal-directed Superoptimizer" (Joshi, Nelson, Randall; PLDI 2002): a
// code generator that uses matching in an E-graph plus boolean
// satisfiability search to produce near-optimal Alpha EV6 machine code
// for guarded multi-assignments, together with the comparison baselines
// the paper evaluates against.
//
// The top-level entry point compiles a program in Denali's parenthesized
// input language (Figure 6 of the paper):
//
//	res, err := repro.Compile(src, repro.Options{})
//	fmt.Println(res.Procs[0].GMAs[0].Assembly)
//
// Each guarded multi-assignment is compiled independently by the pipeline
// of the paper's Figure 1 — matcher → E-graph → constraint generator →
// SAT solver — probing increasing cycle budgets until one is satisfiable,
// so the result carries both a schedule and the refutations proving no
// shorter schedule exists under the machine model.
package repro

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/arch/alpha"
	"repro/internal/arch/itanium"
	"repro/internal/axioms"
	"repro/internal/buildinfo"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/egraph"
	"repro/internal/flight"
	"repro/internal/gma"
	"repro/internal/lang"
	"repro/internal/matcher"
	"repro/internal/naivegen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Options configures compilation.
type Options struct {
	// Arch selects the machine model: "ev6" (default), "ev6-noclusters",
	// "ev6-single", "ev6-dual", or "itanium".
	Arch string
	// Strategy selects the budget search: "linear" (the default, also
	// spelled ""), "binary", "descend", "parallel" or "stochastic"; see
	// core.SearchStrategy for what each does. Every strategy except
	// stochastic finds the same optimum, though not always the same code,
	// so the compile cache keys on the strategy. A stochastic result
	// depends on Seed, so that strategy bypasses the compile cache.
	// Unknown names are a compile error (core.ParseStrategy).
	Strategy string
	// Seed drives every random choice of the stochastic engine, making
	// the stochastic strategy reproducible. Nil (the
	// default) derives the seed from a hash of RequestID, so re-running a
	// request with the same ID replays the same search; the resolved
	// value is recorded in the flight report either way.
	Seed *uint64
	// Workers bounds the concurrency: in-flight SAT probes per GMA under
	// the parallel strategy, and concurrently compiled GMAs in Compile.
	// <= 1 means sequential compilation, and so does a Compile with a
	// Trace (see Trace); the parallel strategy with Workers <= 0 uses
	// GOMAXPROCS probes.
	Workers int
	// MaxCycles bounds the budget search (default 24).
	MaxCycles int
	// MatcherMaxRounds and MatcherMaxNodes bound E-graph saturation.
	MatcherMaxRounds int
	MatcherMaxNodes  int
	// DisableAtMostOnce drops the at-most-one-launch-per-term pruning
	// constraint (ablation).
	DisableAtMostOnce bool
	// MaxConflicts bounds each SAT probe (0 = unbounded).
	MaxConflicts int64
	// Certify records a DRAT proof during every SAT probe and re-checks
	// the K−1 refutation with the independent checker in internal/drat
	// before OptimalProven is reported, so "no shorter schedule exists"
	// becomes a machine-verified fact rather than a solver claim. A failed
	// check is a compilation error. The checked certificate is exportable
	// via CompiledGMA.WriteProof / WriteProofCNF.
	Certify bool
	// ExtraAxioms are appended to the built-in axiom files and any
	// program-local axioms.
	ExtraAxioms string
	// SoftwarePipeline rewrites each eligible loop GMA (loads, no memory
	// writes) into a prologue plus a rotated loop whose loads fetch the
	// next iteration's values — the transformation the paper's checksum
	// input performs by hand (section 8). Ineligible loops compile
	// unchanged.
	SoftwarePipeline bool
	// Trace collects the pipeline's timed spans across every GMA compiled
	// with these options: matcher rounds, SAT probes, scheduling and
	// verification. Nil (the default) disables tracing at zero cost.
	// Export with its WriteChromeTrace / MetricsTable methods. Counts are
	// not traced: each CompiledGMA's flight record carries them. A Trace
	// nests each new span under the one open span of its single cursor,
	// so Compile compiles one GMA at a time while Trace is set, whatever
	// Workers says: GMAs compiled at once would nest their spans in each
	// other's and close them early.
	Trace *obs.Trace
	// Cache, when set, answers each GMA compilation from the
	// content-addressed compile cache instead of re-running the pipeline
	// when an identical compile (same canonical GMA, same result-shaping
	// options, same axiom bundle and build) has already been answered.
	// Concurrent identical compiles are deduplicated: one leads, the rest
	// coalesce onto its result. Nil (the default) disables caching. See
	// internal/compilecache; CompiledGMA.Cache reports the outcome.
	Cache *compilecache.Cache
	// CacheMode overrides how this compilation treats Cache: "" uses it
	// normally, "refresh" recomputes and overwrites the stored entries,
	// "off" bypasses the cache entirely for this call.
	CacheMode string
	// RequestID correlates everything this compilation produces with the
	// request that asked for it: trace spans, exported DIMACS provenance,
	// and the flight report all carry it. Empty disables the tagging.
	// IDs from untrusted sources (HTTP headers) should pass through
	// flight.SanitizeID first.
	RequestID string
	// Flight collects a per-request structured report: one GMAReport per
	// compiled GMA (fingerprint, match stats, the full probe ladder,
	// outcome), including partial records for GMAs that failed or
	// panicked. Nil (the default) collects nothing. See internal/flight.
	Flight *flight.Recorder
}

// StrategyName names the search strategy ("linear" for the empty
// default). The CLI, the compile service and the benchmark harness all
// label flight reports and metrics with it, so the names stay consistent
// across layers.
func (o Options) StrategyName() string {
	if o.Strategy == "" {
		return core.LinearSearch.String()
	}
	return o.Strategy
}

// ResolveSeed returns the stochastic-engine seed these options resolve
// to: the explicit Seed override, or an FNV-1a hash of RequestID so
// replaying a request by ID replays its search.
func (o Options) ResolveSeed() uint64 {
	if o.Seed != nil {
		return *o.Seed
	}
	h := fnv.New64a()
	io.WriteString(h, o.RequestID)
	return h.Sum64()
}

// ArchDescription resolves the Options.Arch name.
func ArchDescription(name string) (*arch.Description, error) {
	switch name {
	case "", "ev6":
		return alpha.EV6(), nil
	case "ev6-noclusters":
		return alpha.NoClusters(), nil
	case "ev6-single":
		return alpha.SingleIssue(), nil
	case "ev6-dual":
		return alpha.DualIssue(), nil
	case "itanium":
		return itanium.Itanium(), nil
	}
	return nil, fmt.Errorf("repro: unknown architecture %q", name)
}

// ProbeStat describes one SAT probe of the budget search, including the
// solver's full search counters.
type ProbeStat struct {
	K            int
	Result       string
	Vars         int
	Clauses      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int
	Restarts     int64
	Elapsed      time.Duration
	// Reused marks that the engine's solver was warm (learned clauses
	// carried over from earlier probes).
	Reused bool
}

// MatchStats describes the saturation phase.
type MatchStats struct {
	Rounds         int
	Instantiations int
	Quiescent      bool
	Nodes          int
	Classes        int
	Elapsed        time.Duration
}

// CompiledGMA is one compiled guarded multi-assignment.
type CompiledGMA struct {
	// Name labels the GMA (procedure name plus block suffix).
	Name string
	// Cycles is the optimal budget found; Instructions the launch count.
	Cycles       int
	Instructions int
	// OptimalProven reports that every smaller budget was refuted.
	OptimalProven bool
	// Assembly is the annotated listing (Figure 4 style).
	Assembly string
	// Listing is the nop-padded per-slot listing.
	Listing string
	// Probes records every SAT probe.
	Probes []ProbeStat
	// Match records the saturation statistics.
	Match MatchStats
	// SolveTime is the total SAT time across probes.
	SolveTime time.Duration
	// EncodeTime is the total constraint-generation time: the probe
	// engines' windows and their in-place extensions.
	EncodeTime time.Duration
	// Certified reports that the refutation behind OptimalProven passed
	// the independent DRAT check (Options.Certify); CertifyTime is the
	// cost of that check.
	Certified   bool
	CertifyTime time.Duration
	// Cache reports how the compile cache answered this GMA: "" (no cache
	// configured), "hit", "miss" (this compile led and populated the
	// cache), "coalesced" (deduplicated onto an identical in-flight
	// compile), or "bypass". On a hit or coalesced result the statistics
	// above (Probes, Match, SolveTime) are the origin compile's, replayed
	// from the cached entry; Assembly likewise shows the origin's variable
	// names. The schedule is remapped to this GMA's names, so Execute and
	// Verify behave identically to a fresh compile.
	Cache string

	// Engine names the search engine that produced the schedule: "sat"
	// for the refutation-probe family, "stochastic" for the MCMC engine.
	// Under the stochastic strategy, "sat" marks a GMA that fell back to
	// the descend sweep.
	Engine string

	// MaxLive is the peak number of simultaneously live temporaries.
	MaxLive int

	rep   flight.GMAReport
	cert  *drat.Certificate
	gma   *gma.GMA
	sched *schedule.Schedule
	desc  *arch.Description
	graph *egraph.Graph
	trace *obs.Trace
}

// EGraphDot renders the GMA's saturated E-graph in Graphviz dot format
// (Figure 2 style), for inspecting what the matcher discovered. The graph
// label carries the final size statistics and how saturation ended.
func (c *CompiledGMA) EGraphDot() string {
	if c.graph == nil {
		// Cache hits reconstruct the result without a live E-graph.
		return ""
	}
	var b strings.Builder
	state := "budget-exhausted"
	if c.Match.Quiescent {
		state = "quiescent"
	}
	extra := fmt.Sprintf("%s: %d saturation rounds (%s)", c.Name, c.Match.Rounds, state)
	if err := c.graph.WriteDotAnnotated(&b, extra); err != nil {
		return ""
	}
	return b.String()
}

// ErrNoCertificate is returned by WriteProof / WriteProofCNF when no
// checked refutation is available — compile with Options.Certify, and
// note a 0-cycle optimum is certified vacuously with no proof to export.
var ErrNoCertificate = errors.New("repro: no certificate recorded (compile with Options.Certify)")

// WriteProof exports the checked K−1 refutation in textual DRAT format,
// without the hints the internal checker walks. Together with the
// WriteProofCNF output it can be re-checked by any external DRAT checker
// (e.g. drat-trim).
func (c *CompiledGMA) WriteProof(w io.Writer) error {
	if c.cert == nil {
		return ErrNoCertificate
	}
	return drat.WriteText(w, c.cert.Proof())
}

// WriteProofCNF exports the DIMACS CNF of the refuted K−1 scheduling
// instance — the premises of the WriteProof derivation.
func (c *CompiledGMA) WriteProofCNF(w io.Writer) error {
	if c.cert == nil {
		return ErrNoCertificate
	}
	return c.cert.WriteDIMACS(w,
		fmt.Sprintf("denali refuted scheduling instance: gma=%s cycle-budget-K=%d", c.Name, c.Cycles-1),
		"proof of optimality: pair with the DRAT proof from WriteProof")
}

// Proc is one compiled procedure.
type Proc struct {
	Name string
	GMAs []*CompiledGMA
}

// Result is a compiled program.
type Result struct {
	Procs []*Proc
}

// Compile parses a Denali source program and compiles every GMA of every
// procedure.
func Compile(src string, opt Options) (*Result, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	copts, err := opt.coreOptions(prog.Axioms)
	if err != nil {
		return nil, err
	}
	cc := cacheFor(opt, copts)

	// Flatten the program into one job per GMA (after software
	// pipelining) so compilation can fan out across a worker pool while
	// the Result keeps source order.
	type job struct {
		proc *Proc
		idx  int
		g    *gma.GMA
	}
	var jobs []job
	res := &Result{}
	for _, proc := range prog.Procs {
		cp := &Proc{Name: proc.Name}
		for _, g := range proc.GMAs {
			gmas := []*gma.GMA{g}
			if opt.SoftwarePipeline && g.Guard != nil {
				if pro, rot, err := pipeline.Pipeline(g); err == nil {
					gmas = []*gma.GMA{pro, rot}
				}
			}
			for _, g := range gmas {
				jobs = append(jobs, job{proc: cp, idx: len(cp.GMAs), g: g})
				cp.GMAs = append(cp.GMAs, nil)
			}
		}
		res.Procs = append(res.Procs, cp)
	}

	workers := opt.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 || opt.Trace != nil {
		for _, j := range jobs {
			cg, err := compileOne(j.g, copts, opt.Flight, cc)
			if err != nil {
				return nil, fmt.Errorf("repro: %s: %w", j.g.Name, err)
			}
			j.proc.GMAs[j.idx] = cg
		}
		return res, nil
	}
	// Parallel multi-GMA compilation. Each GMA is isolated: compileOne
	// converts panics to errors, and every job runs to completion so one
	// failure cannot poison the others; the errors are then joined.
	var (
		wg   sync.WaitGroup
		sem  = make(chan struct{}, workers)
		mu   sync.Mutex
		errs []error
	)
	for _, j := range jobs {
		j := j
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cg, err := compileOne(j.g, copts, opt.Flight, cc)
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("repro: %s: %w", j.g.Name, err))
				mu.Unlock()
				return
			}
			j.proc.GMAs[j.idx] = cg
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, errors.Join(errs...)
	}
	return res, nil
}

// CompileGMA compiles a single pre-built GMA (used by benchmarks and
// advanced callers that construct IR directly).
func CompileGMA(g *gma.GMA, opt Options) (*CompiledGMA, error) {
	copts, err := opt.coreOptions(nil)
	if err != nil {
		return nil, err
	}
	return compileOne(g, copts, opt.Flight, cacheFor(opt, copts))
}

// coreOptions resolves Options into the core compile configuration that
// Compile, CompileGMA and Keys all start from: the machine model, the
// axiom bundle (built-in, then the program's own axioms, then
// ExtraAxioms), the matcher and schedule budgets, and the search
// strategy. The stochastic seed is resolved (explicit, or hashed from
// the request ID) and recorded in the flight report whenever the
// strategy can consult it.
func (o Options) coreOptions(progAxioms []*axioms.Axiom) (core.Options, error) {
	desc, err := ArchDescription(o.Arch)
	if err != nil {
		return core.Options{}, err
	}
	search, err := core.ParseStrategy(o.Strategy)
	if err != nil {
		return core.Options{}, fmt.Errorf("repro: %w", err)
	}
	axs, err := axioms.Builtin()
	if err != nil {
		return core.Options{}, err
	}
	axs = append(axs, progAxioms...)
	if o.ExtraAxioms != "" {
		extra, err := axioms.ParseAll(o.ExtraAxioms, "extra")
		if err != nil {
			return core.Options{}, err
		}
		axs = append(axs, extra...)
	}
	copts := core.Options{
		Desc:   desc,
		Axioms: axs,
		Matcher: matcher.Options{
			MaxRounds: o.MatcherMaxRounds,
			MaxNodes:  o.MatcherMaxNodes,
		},
		Schedule: schedule.Options{
			DisableAtMostOncePerTerm: o.DisableAtMostOnce,
			MaxConflicts:             o.MaxConflicts,
			Certify:                  o.Certify,
		},
		MaxCycles: o.MaxCycles,
		Search:    search,
		Workers:   o.Workers,
		Trace:     o.Trace,
		RequestID: o.RequestID,
	}
	if search == core.StochasticSearch {
		copts.Seed = o.ResolveSeed()
		o.Flight.SetSeed(copts.Seed)
	}
	return copts, nil
}

// cacheCtx carries the compile-cache wiring of one Compile/CompileGMA
// call: the cache, the per-call mode, and the option slice of the key
// (everything but the GMA itself, which varies per job).
type cacheCtx struct {
	cache *compilecache.Cache
	mode  compilecache.Mode
	cfg   compilecache.KeyConfig
	reqID string
}

// cacheFor derives the cache context from Options; nil when no cache is
// configured, so the compile path stays zero-cost by default.
func cacheFor(opt Options, copts core.Options) *cacheCtx {
	if opt.Cache == nil {
		return nil
	}
	// A stochastic compile is deterministic only in its seed, and the
	// seed (defaulting to a hash of the request ID) is deliberately not
	// part of the cache key — identical programs with different seeds are
	// different searches. Serving one seed's answer to another seed's
	// request would silently break reproducibility, so the strategy
	// bypasses the cache.
	if copts.Search == core.StochasticSearch {
		return nil
	}
	mode := compilecache.ModeUse
	switch opt.CacheMode {
	case "refresh":
		mode = compilecache.ModeRefresh
	case "off":
		mode = compilecache.ModeBypass
	}
	return &cacheCtx{
		cache: opt.Cache,
		mode:  mode,
		cfg:   keyConfig(opt, copts.Axioms),
		reqID: opt.RequestID,
	}
}

// keyConfig derives the compile-cache key configuration from Options:
// every option that shapes the result, plus the axiom bundle and build.
// It is shared by the cache lookup path and by Keys, so both key a GMA
// under the same configuration.
func keyConfig(opt Options, axs []*axioms.Axiom) compilecache.KeyConfig {
	return compilecache.KeyConfig{
		Arch:              opt.Arch,
		Strategy:          opt.Strategy,
		AxiomVersion:      compilecache.AxiomVersion(axs),
		BuildVersion:      buildinfo.Version(),
		MaxCycles:         opt.MaxCycles,
		MaxConflicts:      opt.MaxConflicts,
		MatcherMaxRounds:  opt.MatcherMaxRounds,
		MatcherMaxNodes:   opt.MatcherMaxNodes,
		DisableAtMostOnce: opt.DisableAtMostOnce,
		Certify:           opt.Certify,
	}
}

// KeyedGMA names one GMA of a parsed program together with its canonical
// compile-cache key under a given configuration.
type KeyedGMA struct {
	// Proc is the enclosing procedure; Name the GMA's unique name
	// (procedure name plus block suffix).
	Proc string
	Name string
	// Key is the content-addressed compile identity (compilecache.Key):
	// alpha-renamed canonical GMA text plus every result-shaping option,
	// so identical computations share one cache entry.
	Key string
}

// Keys parses a program and returns the canonical compile-cache key of
// every GMA under the given options, in source order, without compiling
// anything, so the cost of keying can be measured apart from the
// compile. Software pipelining is a compile-time rewrite and is ignored
// here, so the keys address source GMAs.
func Keys(src string, opt Options) ([]KeyedGMA, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	copts, err := opt.coreOptions(prog.Axioms)
	if err != nil {
		return nil, err
	}
	cfg := keyConfig(opt, copts.Axioms)
	var keys []KeyedGMA
	for _, proc := range prog.Procs {
		for _, g := range proc.GMAs {
			keys = append(keys, KeyedGMA{Proc: proc.Name, Name: g.Name, Key: compilecache.Key(g, cfg)})
		}
	}
	return keys, nil
}

// compileOne compiles one GMA, consulting the compile cache when one is
// wired. The cache key covers the canonical GMA and every result-shaping
// option; concurrent identical compiles coalesce onto one leader. The
// leader returns its fresh result directly (keeping the E-graph and any
// certificate); hits and coalesced waiters reconstruct a CompiledGMA
// from the cached entry, with the schedule remapped onto this GMA's
// variable names so Execute/Verify behave as if freshly compiled.
func compileOne(g *gma.GMA, copts core.Options, fr *flight.Recorder, cc *cacheCtx) (*CompiledGMA, error) {
	if cc == nil {
		return compileFresh(g, copts, fr)
	}
	key := compilecache.Key(g, cc.cfg)
	var fresh *CompiledGMA
	entry, outcome, err := cc.cache.GetOrCompute(key, cc.mode, func() (compilecache.Entry, error) {
		cg, cerr := compileFresh(g, copts, fr)
		if cerr != nil {
			return compilecache.Entry{}, cerr
		}
		fresh = cg
		return entryFromCompiled(cg, key, cc.reqID), nil
	})
	if err != nil {
		// A leader's failure was already recorded by compileFresh into this
		// request's flight report; a waiter coalesced onto someone else's
		// failure records its own marker row instead.
		if outcome == compilecache.OutcomeCoalesced {
			gr := report(g, nil, 0, err)
			gr.Coalesced = true
			fr.AddGMA(gr)
		}
		return nil, err
	}
	if fresh != nil {
		// This caller ran the pipeline itself (cache miss or bypass).
		fresh.Cache = string(outcome)
		return fresh, nil
	}
	return fromEntry(g, entry, outcome, copts, fr), nil
}

// entryFromCompiled captures a fresh compile as a cache entry: the flight
// record, the rendered listings, and the schedule together with the
// variable/target correspondence tables that make it remappable onto
// alpha-renamed requesters. Certificates and the E-graph are deliberately
// not cached — WriteProof on a hit reports ErrNoCertificate, EGraphDot
// returns "" — because both are large and replayable by a refresh.
func entryFromCompiled(cg *CompiledGMA, key, requestID string) compilecache.Entry {
	_, vars := flight.Canonical(cg.gma)
	targets := make([]string, len(cg.gma.Targets))
	for i, t := range cg.gma.Targets {
		targets[i] = t.Name
	}
	return compilecache.Entry{
		Key:           key,
		OriginRequest: requestID,
		CreatedAt:     time.Now(),
		Report:        cg.FlightReport(),
		Assembly:      cg.Assembly,
		Listing:       cg.Listing,
		MaxLive:       cg.MaxLive,
		Sched:         cg.sched,
		Vars:          vars,
		Targets:       targets,
	}
}

// fromEntry reconstructs a CompiledGMA from a cached entry for the
// requesting GMA g (possibly an alpha-renamed variant of the origin).
// The statistics replay the origin compile's; the flight report marks
// the row as a cache hit (or coalesced) with the origin's request ID.
func fromEntry(g *gma.GMA, e compilecache.Entry, outcome compilecache.Outcome, copts core.Options, fr *flight.Recorder) *CompiledGMA {
	rep := e.Report
	rep.Name = g.Name
	rep.CacheHit = outcome == compilecache.OutcomeHit
	rep.Coalesced = outcome == compilecache.OutcomeCoalesced
	rep.CacheOrigin = e.OriginRequest
	cg := fromReport(rep, g, e.ScheduleFor(g), copts)
	cg.Assembly, cg.Listing, cg.MaxLive = e.Assembly, e.Listing, e.MaxLive
	cg.Cache = string(outcome)
	fr.AddGMA(rep)
	return cg
}

func compileFresh(g *gma.GMA, copts core.Options, fr *flight.Recorder) (cg *CompiledGMA, err error) {
	desc := copts.Desc
	// Per-GMA isolation: a panic anywhere in the pipeline surfaces as this
	// GMA's error instead of tearing down a whole (possibly concurrent)
	// multi-GMA run. The flight report keeps a record of the casualty.
	defer func() {
		if r := recover(); r != nil {
			cg, err = nil, fmt.Errorf("internal panic compiling %s: %v", g.Name, r)
			gr := report(g, nil, 0, err)
			gr.Panic = true
			fr.AddGMA(gr)
		}
	}()
	t0 := time.Now()
	c, err := core.CompileGMA(g, copts)
	rep := report(g, c, time.Since(t0), err)
	if err != nil {
		fr.AddGMA(rep)
		return nil, err
	}
	cg = fromReport(rep, g, c.Schedule, copts)
	cg.Assembly, cg.Listing, cg.MaxLive = c.Assembly(), c.Schedule.Listing(desc), c.Schedule.MaxLive()
	cg.cert, cg.graph = c.Cert, c.Graph
	fr.AddGMA(rep)
	return cg, nil
}

// report builds a GMA's flight record, the one per-compile record every
// consumer reads: CompiledGMA's statistics, the compile cache, the flight
// recorder and, through serve, the history warehouse and /metrics. wall
// is the core compile's wall time. On error the record keeps the match
// stats and the probes a partial c accumulated before the failure —
// exactly what a post-mortem needs; c is nil after a panic or a failure
// before the search.
func report(g *gma.GMA, c *core.Compiled, wall time.Duration, err error) flight.GMAReport {
	gr := flight.DescribeGMA(g)
	gr.CompileMillis = millis(wall)
	if err != nil {
		gr.Error = err.Error()
	}
	if c == nil {
		return gr
	}
	gr.MatchRounds = c.Match.Rounds
	gr.MatchInstantiations = c.Match.Instantiations
	gr.MatchQuiescent = c.Match.Quiescent
	gr.EGraphNodes = c.Match.Nodes
	gr.EGraphClasses = c.Match.Classes
	gr.MatchMillis = millis(c.MatchTime)
	for _, p := range c.Probes {
		gr.Probes = append(gr.Probes, flight.ProbeRow{
			K: p.K, Result: p.Result.String(), Vars: p.Vars, Clauses: p.Clauses,
			Conflicts: p.Solver.Conflicts, Decisions: p.Solver.Decisions,
			Propagations: p.Solver.Propagations, Learned: p.Solver.Learned,
			Restarts: p.Solver.Restarts, Millis: millis(p.Elapsed),
			Reused: p.Reused, Cancelled: p.Solver.Cancelled,
		})
	}
	gr.SolveMillis = millis(c.SolveTime)
	gr.EncodeMillis = millis(c.EncodeTime)
	gr.Certified = c.Certified
	gr.CertifyMillis = millis(c.CertifyTime)
	gr.CertifyResult = c.CertifyResult
	gr.CertSteps = c.CertSteps
	gr.Engine = c.Engine
	if st := c.Stochastic; st != nil {
		gr.StokeSteps, gr.StokeVerified, gr.StokeRejects = st.Steps, st.Verified, st.Rejected
	}
	if err == nil {
		gr.Cycles = c.Cycles
		gr.Instructions = c.Schedule.Instructions()
		gr.OptimalProven = c.OptimalProven
	}
	return gr
}

// fromReport builds a CompiledGMA around GMA g and its schedule, filling
// the public statistics from the flight record for fresh and cached
// compiles alike; the caller attaches the listings.
func fromReport(rep flight.GMAReport, g *gma.GMA, sched *schedule.Schedule, copts core.Options) *CompiledGMA {
	cg := &CompiledGMA{
		Name:          rep.Name,
		Cycles:        rep.Cycles,
		Instructions:  rep.Instructions,
		OptimalProven: rep.OptimalProven,
		SolveTime:     unmillis(rep.SolveMillis),
		EncodeTime:    unmillis(rep.EncodeMillis),
		Match: MatchStats{
			Rounds:         rep.MatchRounds,
			Instantiations: rep.MatchInstantiations,
			Quiescent:      rep.MatchQuiescent,
			Nodes:          rep.EGraphNodes,
			Classes:        rep.EGraphClasses,
			Elapsed:        unmillis(rep.MatchMillis),
		},
		Certified:   rep.Certified,
		CertifyTime: unmillis(rep.CertifyMillis),
		Engine:      rep.Engine,
		rep:         rep,
		gma:         g,
		sched:       sched,
		desc:        copts.Desc,
		trace:       copts.Trace,
	}
	for _, p := range rep.Probes {
		cg.Probes = append(cg.Probes, ProbeStat{
			K: p.K, Result: p.Result, Vars: p.Vars, Clauses: p.Clauses,
			Conflicts: p.Conflicts, Decisions: p.Decisions,
			Propagations: p.Propagations, Learned: p.Learned,
			Restarts: p.Restarts, Elapsed: unmillis(p.Millis), Reused: p.Reused,
		})
	}
	return cg
}

// FlightReport returns the compiled GMA's flight record: identity
// (canonical fingerprint), search features, the full probe ladder, and
// the outcome. It is the record Compile and CompileGMA file with
// Options.Flight; callers holding a CompiledGMA (benchmarks, tests) can
// assemble reports from it themselves.
func (c *CompiledGMA) FlightReport() flight.GMAReport { return c.rep }

// millis renders a duration as fractional milliseconds for JSON reports.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// unmillis is the inverse, rounding to the nearest nanosecond so that
// every whole-microsecond value survives the round trip.
func unmillis(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// Execute runs the compiled GMA's schedule on the simulator with the given
// input values and initial memory, returning the final value of every
// register target (plus "<guard>" when guarded) and the final memory.
func (c *CompiledGMA) Execute(inputs map[string]uint64, memory map[uint64]uint64) (map[string]uint64, map[uint64]uint64, error) {
	if c.sched == nil {
		return nil, nil, errors.New("repro: no schedule available (degenerate cache entry)")
	}
	m := sim.NewMachine()
	for name, reg := range c.sched.InputRegs {
		m.Regs[reg] = inputs[name]
	}
	for a, v := range memory {
		m.Mem[a] = v
	}
	if err := sim.Run(c.sched, c.desc, m); err != nil {
		return nil, nil, err
	}
	out := map[string]uint64{}
	for name, op := range c.sched.ResultRegs {
		if op.IsLit {
			out[name] = op.Lit
		} else {
			out[name] = m.Regs[op.Reg]
		}
	}
	return out, m.Mem, nil
}

// Verify executes the schedule on n random inputs and compares against the
// GMA's reference semantics ("correct by design", section 1 of the paper).
// When the GMA was compiled with a trace, the verification run is recorded
// into it as a "verify" span holding one "sim.run" span per trial.
func (c *CompiledGMA) Verify(n int, seed int64) error {
	if c.sched == nil {
		return errors.New("repro: no schedule available (degenerate cache entry)")
	}
	return sim.VerifyTraced(c.gma, c.sched, c.desc, rand.New(rand.NewSource(seed)), n, c.trace)
}

// BaselineResult is the conventional-compiler comparator's output for the
// same GMA.
type BaselineResult struct {
	Cycles       int
	Instructions int
	Listing      string
}

// Baseline compiles the same GMA with the conventional tree-walk code
// generator (the paper's production-C-compiler comparator) on the same
// machine model.
func (c *CompiledGMA) Baseline() (*BaselineResult, error) {
	s, err := naivegen.Compile(c.gma, c.desc)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Cycles: s.K, Instructions: len(s.Launches), Listing: s.Compact()}, nil
}

// VerifyBaseline checks the baseline's code against the GMA semantics too.
func (c *CompiledGMA) VerifyBaseline(n int, seed int64) error {
	s, err := naivegen.Compile(c.gma, c.desc)
	if err != nil {
		return err
	}
	return sim.Verify(c.gma, s, c.desc, rand.New(rand.NewSource(seed)), n)
}
