// Package history is the one per-GMA fold of flight reports: it folds
// every flight.Report it is given into aggregates keyed by GMA
// fingerprint × arch × strategy — compile counts, cycle outcomes,
// per-GMA wall/encode/solve latency digests (p50/p95/max), the probe
// ladder's per-budget SAT/UNSAT/UNKNOWN histogram, conflict totals and
// top-conflict probes, cache-hit ratios and error/panic/timeout rates.
// Where flight answers "what happened to request X?" and obs answers
// "what is this process doing right now?", history answers "what has
// this GMA cost, under which configuration?".
//
// One fold serves both views of that question. `denali serve` files
// every report it records here and serves the Snapshot at GET
// /debug/history; `denali report` ingests -report-out logs into a
// warehouse of its own and prints the same Snapshot with WriteText. A
// per-GMA field is therefore aggregated, tested and documented once.
//
// The warehouse is memory-only and goroutine-safe.
package history

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flight"
)

// Key identifies one aggregate row: the canonical GMA identity crossed
// with the configuration axes that change its cost profile.
type Key struct {
	Fingerprint string `json:"fingerprint"`
	Arch        string `json:"arch"`
	Strategy    string `json:"strategy"`
}

// String renders the canonical "fp|arch|strategy" form.
func (k Key) String() string {
	return k.Fingerprint + "|" + k.Arch + "|" + k.Strategy
}

// Aggregate is the rolling per-key record. All counters are cumulative
// over everything ingested; the digests hold bounded-memory latency
// sketches. Cache hits and coalesced waits are counted but excluded from
// the latency, probe and conflict aggregates — a cached row replays the
// origin compile's ladder and would double-count solver work that ran
// once.
type Aggregate struct {
	Key
	// Name is the most frequent GMA name seen under this key
	// (alpha-renaming can give one computation several names); Names holds
	// the full census.
	Name  string            `json:"name,omitempty"`
	Names map[string]uint64 `json:"names,omitempty"`
	// GoalSize is the GMA's total goal term size (the flight record's
	// goal_size); one fingerprint has one goal size.
	GoalSize int `json:"goal_size,omitempty"`

	Compiles  uint64 `json:"compiles"`
	CacheHits uint64 `json:"cache_hits,omitempty"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	Errors    uint64 `json:"errors,omitempty"`
	Panics    uint64 `json:"panics,omitempty"`

	// Cycles distributes the winning budget across fresh compiles and
	// cache hits alike (the answer is the answer either way).
	Cycles    map[int]uint64 `json:"cycles,omitempty"`
	Optimal   uint64         `json:"optimal,omitempty"`
	Certified uint64         `json:"certified,omitempty"`

	// Wall is each fresh compile's own wall time (the flight record's
	// compile_ms, milliseconds), Encode its constraint-generation time
	// (encode_ms) and Solve its SAT time (solve_ms).
	Wall   Digest `json:"wall_ms"`
	Encode Digest `json:"encode_ms"`
	Solve  Digest `json:"solve_ms"`

	Probes    uint64 `json:"probes,omitempty"`
	Conflicts int64  `json:"conflicts,omitempty"`
	// ProbeHist maps each budget K to its outcome histogram over the
	// fresh compiles' probe ladders.
	ProbeHist map[int]ProbeCell `json:"probe_hist,omitempty"`
	// TopConflicts holds the highest-conflict probes of the fresh
	// compiles (at most three, most conflicts first, the earlier probe
	// first among equals), each with the request that ran it.
	TopConflicts []ProbeRef `json:"top_conflicts,omitempty"`

	// Engines counts which search engine produced each fresh compile's
	// schedule ("sat" or "stochastic"); under the stochastic strategy,
	// "sat" counts the GMAs that fell back to the descend sweep. Records
	// without an engine label stay uncounted.
	Engines map[string]uint64 `json:"engines,omitempty"`

	// LastSeen is the start of the latest request that filed a record
	// under this key (the report's start; the clock when it has none), so
	// a log read back later answers as the live process did.
	LastSeen time.Time `json:"last_seen"`
}

// ProbeCell is one budget's outcome histogram.
type ProbeCell struct {
	Sat     uint64 `json:"sat,omitempty"`
	Unsat   uint64 `json:"unsat,omitempty"`
	Unknown uint64 `json:"unknown,omitempty"`
}

// ProbeRef is one recorded probe, for the top-conflicts list.
type ProbeRef struct {
	RequestID string `json:"request_id"`
	K         int    `json:"k"`
	Result    string `json:"result"`
	Conflicts int64  `json:"conflicts"`
}

// topConflictsKept bounds Aggregate.TopConflicts.
const topConflictsKept = 3

// ErrorRate is the fraction of observations (fresh + cached + failed)
// that ended in an error or panic.
func (a *Aggregate) ErrorRate() float64 {
	total := a.Compiles + a.CacheHits + a.Coalesced + a.Errors
	if total == 0 {
		return 0
	}
	return float64(a.Errors) / float64(total)
}

// CacheHitRatio is the fraction of successful observations answered from
// the compile cache (hit or coalesced).
func (a *Aggregate) CacheHitRatio() float64 {
	total := a.Compiles + a.CacheHits + a.Coalesced
	if total == 0 {
		return 0
	}
	return float64(a.CacheHits+a.Coalesced) / float64(total)
}

// TopCycles returns the most frequent winning budget (-1 when none
// recorded), the GMA's expected answer.
func (a *Aggregate) TopCycles() int {
	best, bestN := -1, uint64(0)
	for k, n := range a.Cycles {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}

func (a *Aggregate) clone() *Aggregate {
	c := *a
	c.Wall = a.Wall.clone()
	c.Encode = a.Encode.clone()
	c.Solve = a.Solve.clone()
	c.Names = maps.Clone(a.Names)
	c.Cycles = maps.Clone(a.Cycles)
	c.Engines = maps.Clone(a.Engines)
	c.ProbeHist = maps.Clone(a.ProbeHist)
	c.TopConflicts = slices.Clone(a.TopConflicts)
	c.Name = topName(c.Names)
	return &c
}

func topName(names map[string]uint64) string {
	best, bestN := "", uint64(0)
	for name, n := range names {
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best
}

// Totals are the warehouse-level request counts, including request-level
// failures (parse errors, panics, timeouts) that never produced a
// per-GMA record.
type Totals struct {
	Reports   uint64 `json:"reports"`
	GMAs      uint64 `json:"gmas"`
	Errors    uint64 `json:"errors,omitempty"`
	Panics    uint64 `json:"panics,omitempty"`
	Timeouts  uint64 `json:"timeouts,omitempty"`
	CacheHits uint64 `json:"cache_hits,omitempty"`
	Coalesced uint64 `json:"coalesced,omitempty"`
}

// Config configures a warehouse. It has no fields: the warehouse has
// nothing to tune. It stays because perfbench's traced replay, a module
// of its own, builds its warehouse with New(Config{}).
type Config struct{}

// Warehouse is the goroutine-safe aggregate store.
type Warehouse struct {
	mu   sync.Mutex
	keys map[Key]*Aggregate
	tot  Totals
}

// New returns an empty warehouse.
func New(Config) *Warehouse {
	return &Warehouse{keys: map[Key]*Aggregate{}}
}

// normalizeArch mirrors compilecache's canonical arch naming, so a
// request that names the default arch and one that leaves it empty land
// on the same key.
func normalizeArch(arch string) string {
	if arch == "" {
		return "ev6"
	}
	return arch
}

// Ingest folds one flight report into the warehouse: one aggregate update
// per GMA record, plus the warehouse totals. A request that timed out (its
// GMAs may still have compiled, late) or failed before any GMA was
// described also counts as one request-level failure. Safe for concurrent
// use.
func (w *Warehouse) Ingest(rep flight.Report) {
	seen := rep.Start
	if seen.IsZero() {
		seen = time.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tot.Reports++
	if len(rep.GMAs) == 0 || rep.Timeout {
		switch {
		case rep.Timeout:
			w.tot.Errors++
			w.tot.Timeouts++
		case rep.Panic:
			w.tot.Errors++
			w.tot.Panics++
		case rep.Error != "":
			w.tot.Errors++
		}
	}
	key := Key{Arch: normalizeArch(rep.Arch), Strategy: rep.Strategy}
	for _, g := range rep.GMAs {
		w.ingestGMALocked(key, rep.ID, g, seen)
	}
}

// ingestGMALocked folds one per-GMA record into the totals and into the
// aggregate of key with the record's fingerprint. A record without a
// fingerprint counts toward the totals only.
func (w *Warehouse) ingestGMALocked(key Key, id string, g flight.GMAReport, seen time.Time) {
	switch {
	case g.Error != "":
		w.tot.Errors++
		if g.Panic {
			w.tot.Panics++
		}
	case g.CacheHit:
		w.tot.CacheHits++
	case g.Coalesced:
		w.tot.Coalesced++
	}
	if g.Fingerprint == "" {
		return
	}
	w.tot.GMAs++
	key.Fingerprint = g.Fingerprint
	a := w.keys[key]
	if a == nil {
		a = &Aggregate{Key: key, Names: map[string]uint64{}, Cycles: map[int]uint64{}, ProbeHist: map[int]ProbeCell{}}
		w.keys[key] = a
	}
	if g.Name != "" {
		a.Names[g.Name]++
	}
	if g.GoalSize > 0 { // a record filed before the GMA was described has none
		a.GoalSize = g.GoalSize
	}
	if seen.After(a.LastSeen) {
		a.LastSeen = seen
	}
	switch {
	case g.Error != "":
		a.Errors++
		if g.Panic {
			a.Panics++
		}
		return
	case g.CacheHit:
		a.CacheHits++
		a.Cycles[g.Cycles]++
		return
	case g.Coalesced:
		a.Coalesced++
		a.Cycles[g.Cycles]++
		return
	}
	a.Compiles++
	a.Cycles[g.Cycles]++
	if g.OptimalProven {
		a.Optimal++
	}
	if g.Certified {
		a.Certified++
	}
	a.Wall.Observe(g.CompileMillis)
	a.Encode.Observe(g.EncodeMillis)
	a.Solve.Observe(g.SolveMillis)
	a.Probes += uint64(len(g.Probes))
	for _, p := range g.Probes {
		a.Conflicts += p.Conflicts
		a.noteProbe(id, p)
	}
	if g.Engine != "" {
		if a.Engines == nil {
			a.Engines = map[string]uint64{}
		}
		a.Engines[g.Engine]++
	}
}

// noteProbe counts one fresh probe into the budget histogram and, when it
// is among the highest-conflict probes so far, into TopConflicts.
func (a *Aggregate) noteProbe(id string, p flight.ProbeRow) {
	c := a.ProbeHist[p.K]
	switch strings.ToLower(p.Result) {
	case "sat":
		c.Sat++
	case "unsat":
		c.Unsat++
	default:
		c.Unknown++
	}
	a.ProbeHist[p.K] = c
	i := len(a.TopConflicts)
	for i > 0 && a.TopConflicts[i-1].Conflicts < p.Conflicts {
		i--
	}
	if p.Conflicts == 0 || i == topConflictsKept {
		return
	}
	a.TopConflicts = slices.Insert(a.TopConflicts, i, ProbeRef{RequestID: id, K: p.K, Result: p.Result, Conflicts: p.Conflicts})
	a.TopConflicts = a.TopConflicts[:min(len(a.TopConflicts), topConflictsKept)]
}

// Totals returns the warehouse-level request counts.
func (w *Warehouse) Totals() Totals {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tot
}

// Len returns the number of distinct keys.
func (w *Warehouse) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.keys)
}

// SnapshotSchema tags the /debug/history body; it changes whenever the
// key or aggregate layout, or the meaning of a field, does.
const SnapshotSchema = "denali-history/v4"

// Snapshot is the warehouse state at one instant: the /debug/history
// body, and what `denali report` prints (WriteText).
type Snapshot struct {
	Schema string `json:"schema"`
	// SavedAt is when the snapshot was taken.
	SavedAt time.Time `json:"saved_at"`
	// DigestBoundsMS are the bucket upper bounds (milliseconds) every
	// digest's Counts are read against; the final count slot is the
	// overflow above the last bound. With them a client of the JSON can
	// estimate a digest's quantiles as Digest.Quantile does.
	DigestBoundsMS []float64    `json:"digest_bounds_ms"`
	Totals         Totals       `json:"totals"`
	Keys           []*Aggregate `json:"keys"`
}

// Snapshot captures the current state (deep copy, sorted most-compiled
// first). The copy shares nothing with the live aggregates, so it can be
// encoded while Ingest runs.
func (w *Warehouse) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Snapshot{
		Schema:         SnapshotSchema,
		SavedAt:        time.Now(),
		DigestBoundsMS: slices.Clone(digestBoundsMS),
		Totals:         w.tot,
		Keys:           make([]*Aggregate, 0, len(w.keys)),
	}
	for _, a := range w.keys {
		s.Keys = append(s.Keys, a.clone())
	}
	sort.Slice(s.Keys, func(i, j int) bool {
		a, b := s.Keys[i], s.Keys[j]
		an, bn := a.Compiles+a.CacheHits+a.Coalesced, b.Compiles+b.CacheHits+b.Coalesced
		if an != bn {
			return an > bn
		}
		return a.Key.String() < b.Key.String()
	})
	return s
}
