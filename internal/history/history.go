// Package history is the live per-GMA view of a compile service: it
// folds every flight.Report the process files into rolling aggregates
// keyed by GMA fingerprint × arch × strategy — compile counts, cycle
// outcomes, wall/solve latency digests (p50/p95/max), probe-ladder
// conflict totals, cache-hit ratios and error/panic/timeout rates.
// Where flight answers "what happened to request X?" and obs answers
// "what is this process doing right now?", history answers "what has
// this GMA cost, under which configuration, since the process started?".
// `denali serve` files every report here and serves the aggregates at
// GET /debug/history; offline, flight.Summarize reads -report-out logs
// (`denali report`).
//
// The warehouse is memory-only and goroutine-safe.
package history

import (
	"maps"
	"sort"
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
// the solve/probe aggregates — a cached row replays the origin compile's
// ladder and would double-count solver work that ran once.
type Aggregate struct {
	Key
	// Name is the most frequent GMA name seen under this key
	// (alpha-renaming can give one computation several names); Names holds
	// the full census.
	Name  string            `json:"name,omitempty"`
	Names map[string]uint64 `json:"names,omitempty"`

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

	// Wall is the request wall time attributed to this key's compiles
	// (milliseconds); Solve is the per-GMA SAT time.
	Wall  Digest `json:"wall_ms"`
	Solve Digest `json:"solve_ms"`

	Probes            uint64 `json:"probes,omitempty"`
	Conflicts         int64  `json:"conflicts,omitempty"`
	MaxProbeConflicts int64  `json:"max_probe_conflicts,omitempty"`

	// Engines counts which search engine produced each fresh compile's
	// schedule ("sat" or "stochastic"); under the stochastic strategy,
	// "sat" counts the GMAs that fell back to the descend sweep. Records
	// without an engine label stay uncounted.
	Engines map[string]uint64 `json:"engines,omitempty"`

	LastSeen time.Time `json:"last_seen"`
}

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
	c.Solve = a.Solve.clone()
	c.Names = maps.Clone(a.Names)
	c.Cycles = maps.Clone(a.Cycles)
	c.Engines = maps.Clone(a.Engines)
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
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
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
		w.ingestGMALocked(key, rep.WallMillis, g, now)
	}
}

// ingestGMALocked folds one per-GMA record into the totals and into the
// aggregate of key with the record's fingerprint. A record without a
// fingerprint counts toward the totals only.
func (w *Warehouse) ingestGMALocked(key Key, wallMS float64, g flight.GMAReport, now time.Time) {
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
		a = &Aggregate{Key: key, Names: map[string]uint64{}, Cycles: map[int]uint64{}}
		w.keys[key] = a
	}
	if g.Name != "" {
		a.Names[g.Name]++
	}
	a.LastSeen = now
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
	a.Wall.Observe(wallMS)
	a.Solve.Observe(g.SolveMillis)
	a.Probes += uint64(len(g.Probes))
	for _, p := range g.Probes {
		a.Conflicts += p.Conflicts
		a.MaxProbeConflicts = max(a.MaxProbeConflicts, p.Conflicts)
	}
	if g.Engine != "" {
		if a.Engines == nil {
			a.Engines = map[string]uint64{}
		}
		a.Engines[g.Engine]++
	}
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
// key or aggregate layout does.
const SnapshotSchema = "denali-history/v2"

// Snapshot is the warehouse state at one instant: the /debug/history
// body.
type Snapshot struct {
	Schema string `json:"schema"`
	// SavedAt is when the snapshot was taken.
	SavedAt time.Time    `json:"saved_at"`
	Totals  Totals       `json:"totals"`
	Keys    []*Aggregate `json:"keys"`
}

// Snapshot captures the current state (deep copy, sorted most-compiled
// first). The copy shares nothing with the live aggregates, so it can be
// encoded while Ingest runs.
func (w *Warehouse) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Snapshot{
		Schema:  SnapshotSchema,
		SavedAt: time.Now(),
		Totals:  w.tot,
		Keys:    make([]*Aggregate, 0, len(w.keys)),
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
