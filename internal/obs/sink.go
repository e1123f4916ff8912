package obs

import "repro/internal/buildinfo"

// Sink is the handle for publishing into a *Registry. Every method on a
// nil *Sink is a no-op, mirroring the *Trace contract, so a publisher can
// be wired unconditionally. The compile pipeline itself publishes
// nothing: the service derives the compile series from each filed flight
// report.
type Sink struct {
	reg *Registry
}

// NewSink returns a sink publishing into r. A nil r yields the disabled
// (nil) sink.
func NewSink(r *Registry) *Sink {
	if r == nil {
		return nil
	}
	return &Sink{reg: r}
}

// Add increments a counter series.
func (s *Sink) Add(name string, delta float64, labels ...Tag) {
	if s == nil {
		return
	}
	s.reg.Add(name, delta, labels...)
}

// Set records a gauge value.
func (s *Sink) Set(name string, v float64, labels ...Tag) {
	if s == nil {
		return
	}
	s.reg.Set(name, v, labels...)
}

// Observe records a histogram observation.
func (s *Sink) Observe(name string, v float64, labels ...Tag) {
	if s == nil {
		return
	}
	s.reg.Observe(name, v, labels...)
}

// Metric names of the compile pipeline, which serve derives from filed
// flight reports. Declared centrally so every consumer (serve, bench,
// tests) sees the same families with the same buckets; see
// NewCompilerRegistry.
const (
	// MCompileSeconds is the end-to-end latency of one GMA compilation
	// (matching + search), labeled by strategy.
	MCompileSeconds = "denali_compile_seconds"
	// MMatchSeconds is E-graph saturation latency per compilation.
	MMatchSeconds = "denali_match_seconds"
	// MSolveSeconds is the recorded time of one SAT probe (solve plus
	// decode, the flight record's probe ms), labeled by result.
	MSolveSeconds = "denali_sat_solve_seconds"
	// MSolveConflicts is the conflict count of one SAT probe.
	MSolveConflicts = "denali_sat_conflicts"
	// MProbeConflicts is the per-probe conflict delta labeled by probe
	// result (sat/unsat/unknown), so sat-vs-unsat conflict shapes are
	// separable on /metrics — the unlabeled MSolveConflicts family keeps
	// the combined distribution.
	MProbeConflicts = "denali_probe_conflicts"
	// MEGraphNodes is the saturated E-graph size per compilation.
	MEGraphNodes = "denali_egraph_nodes"
	// MCyclesFound is the winning cycle budget per compilation.
	MCyclesFound = "denali_cycles_found"

	// MCompiles counts finished GMA compilations, labeled by strategy.
	MCompiles = "denali_compiles_total"
	// MCompileErrors counts failed GMA compilations.
	MCompileErrors = "denali_compile_errors_total"
	// MProbes counts SAT probes by result (sat/unsat/unknown).
	MProbes = "denali_sat_probes_total"
	// MSolverConflicts etc. aggregate raw solver work across all probes.
	MSolverConflicts    = "denali_sat_conflicts_total"
	MSolverDecisions    = "denali_sat_decisions_total"
	MSolverPropagations = "denali_sat_propagations_total"
	MSolverRestarts     = "denali_sat_restarts_total"
	MSolverLearned      = "denali_sat_learned_total"
	// MProbesLaunched / MProbesCancelled / MProbeWaste describe the
	// speculative parallel search: probes run, probes that ended cancelled
	// as moot, and probes whose answer was discarded (the cancelled ones
	// plus SAT answers above the optimum, labeled by strategy).
	MProbesLaunched  = "denali_parallel_probes_launched_total"
	MProbesCancelled = "denali_parallel_probes_cancelled_total"
	MProbeWaste      = "denali_probe_waste_total"
	// MProbeIncrementalReused counts the probes whose engine's solver had
	// already answered an earlier probe, so learned clauses carried over.
	MProbeIncrementalReused = "denali_probe_incremental_reused_total"
	// MCertifySeconds is the latency of re-checking one DRAT refutation,
	// and MCertifyChecks counts checks by result (ok/failed).
	MCertifySeconds = "denali_certify_seconds"
	MCertifyChecks  = "denali_certify_total"
	// MCertifySteps is the proof length (addition steps) per check.
	MCertifySteps = "denali_certify_proof_steps"
	// MVerifyTrials / MSimCycles / MSimInstrs count simulator work.
	MVerifyTrials = "denali_verify_trials_total"
	MSimCycles    = "denali_sim_cycles_total"
	MSimInstrs    = "denali_sim_instructions_total"

	// The denali_stoke_* family instruments the stochastic (MCMC) search
	// engine. MStokeSteps counts proposals drawn; MStokeVerified counts
	// candidates confirmed by exact verification; MStokeRejects counts
	// screening false positives exact verification refuted.
	MStokeSteps    = "denali_stoke_steps_total"
	MStokeVerified = "denali_stoke_verified_total"
	MStokeRejects  = "denali_stoke_rejects_total"

	// MCacheHits counts compile-cache lookups answered from a cached
	// entry, labeled by tier (memory/disk); MCacheMisses counts lookups
	// that had to compile; MCacheCoalesced counts requests that blocked
	// on an identical in-flight compile instead of starting their own
	// (single-flight dedup). MCacheEvictions counts LRU evictions,
	// MCacheBytes / MCacheEntries gauge the in-memory tier's size, and
	// MCacheHitSeconds is the latency of answering from the cache.
	// MCacheStoreErrors counts persistent-store failures (all tolerated:
	// the cache degrades to memory-only).
	MCacheHits        = "denali_cache_hits_total"
	MCacheMisses      = "denali_cache_misses_total"
	MCacheCoalesced   = "denali_cache_coalesced_total"
	MCacheEvictions   = "denali_cache_evictions_total"
	MCacheBytes       = "denali_cache_bytes"
	MCacheEntries     = "denali_cache_entries"
	MCacheHitSeconds  = "denali_cache_hit_seconds"
	MCacheStoreErrors = "denali_cache_store_errors_total"

	// MBuildInfo is the constant-1 build-identity gauge (version and
	// goversion labels), the Prometheus idiom for joining a process's
	// version onto any other series. The same version string is stamped
	// into flight reports and served on /version.
	MBuildInfo = "denali_build_info"
	// MUptimeSeconds measures from the registry's construction time
	// (Registry.StartTime); servers refresh it at scrape time.
	MUptimeSeconds = "denali_process_uptime_seconds"
)

// cyclesBuckets cover the budget search range (MaxCycles defaults to 24).
var cyclesBuckets = []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40}

// NewCompilerRegistry returns a registry with every denali_* metric family
// pre-declared: help text, types, and bucket layouts. The pipeline works
// against any registry (undeclared metrics self-declare with defaults),
// but pre-declaration keeps /metrics stable from the first scrape.
func NewCompilerRegistry() *Registry {
	r := NewRegistry()
	r.DeclareHistogram(MCompileSeconds, "End-to-end latency of one GMA compilation (matching + budget search).", DefSecondsBuckets)
	r.DeclareHistogram(MMatchSeconds, "E-graph saturation latency per compilation.", DefSecondsBuckets)
	r.DeclareHistogram(MSolveSeconds, "Latency of one SAT probe (solve plus decode).", DefSecondsBuckets)
	r.DeclareHistogram(MSolveConflicts, "CDCL conflicts per SAT probe.", DefCountBuckets)
	r.DeclareHistogram(MProbeConflicts, "CDCL conflicts per SAT probe, by probe result.", DefCountBuckets)
	r.DeclareHistogram(MEGraphNodes, "Saturated E-graph node count per compilation.", DefCountBuckets)
	r.DeclareHistogram(MCyclesFound, "Winning cycle budget per compilation.", cyclesBuckets)
	r.DeclareCounter(MCompiles, "Finished GMA compilations by strategy.")
	r.DeclareCounter(MCompileErrors, "Failed GMA compilations.")
	r.DeclareCounter(MProbes, "SAT probes by result.")
	r.DeclareCounter(MSolverConflicts, "Total CDCL conflicts across all probes.")
	r.DeclareCounter(MSolverDecisions, "Total CDCL decisions across all probes.")
	r.DeclareCounter(MSolverPropagations, "Total unit propagations across all probes.")
	r.DeclareCounter(MSolverRestarts, "Total solver restarts across all probes.")
	r.DeclareCounter(MSolverLearned, "Total clauses learned across all probes.")
	r.DeclareCounter(MProbesLaunched, "Speculative probes launched by the parallel budget search.")
	r.DeclareCounter(MProbesCancelled, "Speculative probes that ended cancelled as moot.")
	r.DeclareCounter(MProbeWaste, "Probes whose completed answer was discarded, by strategy.")
	r.DeclareCounter(MProbeIncrementalReused, "Incremental probes that reused a warm solver (learned clauses carried over).")
	r.DeclareHistogram(MCertifySeconds, "Latency of re-checking one DRAT refutation.", DefSecondsBuckets)
	r.DeclareHistogram(MCertifySteps, "DRAT proof length (addition steps) per check.", DefCountBuckets)
	r.DeclareCounter(MCertifyChecks, "DRAT refutation checks by result.")
	r.DeclareCounter(MVerifyTrials, "Random-input verification trials executed.")
	r.DeclareCounter(MStokeSteps, "Stochastic-engine MCMC proposals drawn.")
	r.DeclareCounter(MStokeVerified, "Stochastic-engine candidates confirmed by exact verification.")
	r.DeclareCounter(MStokeRejects, "Stochastic-engine screening false positives refuted by exact verification.")
	r.DeclareCounter(MSimCycles, "Machine cycles executed by the simulator.")
	r.DeclareCounter(MSimInstrs, "Instructions executed by the simulator.")
	r.DeclareCounter(MCacheHits, "Compile-cache lookups answered from a cached entry, by tier.")
	r.DeclareCounter(MCacheMisses, "Compile-cache lookups that had to compile.")
	r.DeclareCounter(MCacheCoalesced, "Compile requests coalesced onto an identical in-flight compile.")
	r.DeclareCounter(MCacheEvictions, "Compile-cache LRU evictions.")
	r.DeclareGauge(MCacheBytes, "Bytes held by the in-memory compile-cache tier.")
	r.DeclareGauge(MCacheEntries, "Entries held by the in-memory compile-cache tier.")
	r.DeclareHistogram(MCacheHitSeconds, "Latency of answering a compile from the cache.", DefSecondsBuckets)
	r.DeclareCounter(MCacheStoreErrors, "Persistent compile-cache store failures (tolerated).")
	r.DeclareGauge(MBuildInfo, "Build identity: constant 1, labeled by version and goversion.")
	r.DeclareGauge(MUptimeSeconds, "Seconds since the registry was constructed.")
	r.Set(MBuildInfo, 1,
		T("version", buildinfo.Version()), T("goversion", buildinfo.GoVersion()))
	return r
}
