// Package history is the compile-history telemetry warehouse: it ingests
// flight.Reports — live from the HTTP service, offline from JSONL report
// logs — and maintains rolling per-key aggregates keyed by GMA
// fingerprint × arch × strategy × incremental: compile counts, cycle
// outcomes, wall/solve latency digests (p50/p95/max), probe-ladder
// conflict totals, cache-hit ratios and error/panic/timeout rates.
// Where flight answers "what happened to request X?" and obs answers
// "what is this process doing right now?", history answers "what has
// this GMA cost, under which configuration, across all traffic?" — the
// substrate the regression sentinel (diff.go) and the live SLO views
// (slo.go) read from.
//
// The warehouse is goroutine-safe and optionally persistent: ingests
// append compact observation rows to a JSONL journal and the aggregate
// state is periodically compacted into an atomic snapshot (temp+rename,
// corrupt segments quarantined to .bad like internal/compilecache), so a
// restarted service resumes with its accumulated history intact.
package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/flight"
)

// Key identifies one aggregate row: the canonical GMA identity crossed
// with the configuration axes that change its cost profile. The same
// fingerprint behaves differently under incremental and scratch search
// (small GMAs pay the engine's per-probe setup) — collapsing any of
// these axes would hide exactly the regressions the sentinel is for.
type Key struct {
	Fingerprint string `json:"fingerprint"`
	Arch        string `json:"arch"`
	Strategy    string `json:"strategy"`
	Incremental bool   `json:"incremental"`
}

// String renders the canonical "fp|arch|strategy|mode" form used as the
// diffable row key.
func (k Key) String() string {
	mode := "scratch"
	if k.Incremental {
		mode = "incremental"
	}
	return k.Fingerprint + "|" + k.Arch + "|" + k.Strategy + "|" + mode
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
	// schedule ("sat" or "stochastic") — under the portfolio strategy,
	// the racers' win rate. Rows predating the label stay uncounted.
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
// recorded), the "expected answer" a drifting compile diffs against.
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
	c.Names = make(map[string]uint64, len(a.Names))
	for k, v := range a.Names {
		c.Names[k] = v
	}
	c.Cycles = make(map[int]uint64, len(a.Cycles))
	for k, v := range a.Cycles {
		c.Cycles[k] = v
	}
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
	// Routed counts reports a fleet router answered by forwarding to an
	// upstream worker; Retried counts the subset that needed more than
	// one dispatch attempt (a drained or unreachable replica was routed
	// around). A rising Retried/Routed ratio is an early fleet-health
	// signal independent of the router's own metrics registry.
	Routed  uint64 `json:"routed,omitempty"`
	Retried uint64 `json:"retried,omitempty"`
}

// Row is one journal observation: the compact per-GMA (or per-failure)
// record appended to the JSONL journal on ingest and replayed on open.
// Seq is the warehouse-monotonic sequence number; a snapshot remembers
// the last Seq it folded in, so replaying a journal that survived a
// crash mid-compaction never double-counts.
type Row struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"t"`
	Req  string    `json:"req,omitempty"`
	Key
	Name      string  `json:"name,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	SolveMS   float64 `json:"solve_ms,omitempty"`
	Cycles    int     `json:"cycles"`
	Optimal   bool    `json:"optimal,omitempty"`
	Certified bool    `json:"certified,omitempty"`
	Probes    int     `json:"probes,omitempty"`
	Conflicts int64   `json:"conflicts,omitempty"`
	MaxProbe  int64   `json:"max_probe_conflicts,omitempty"`
	Engine    string  `json:"engine,omitempty"`
	// Outcome is ok | hit | coalesced | error | panic | timeout. The last
	// three may appear on rows with an empty fingerprint: request-level
	// failures that died before any GMA was described.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// First marks the first row of a report, so replay counts reports
	// exactly as live ingest did.
	First bool `json:"first,omitempty"`
	// Upstream/Attempts carry the report's router→worker hop (set on the
	// First row only), so replayed journals rebuild the routed totals.
	Upstream string `json:"upstream,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// Config configures a warehouse.
type Config struct {
	// Dir is the persistence directory (journal + snapshots). Empty keeps
	// the warehouse memory-only.
	Dir string
	// CompactEvery bounds journal growth: after this many rows since the
	// last compaction the aggregate state is snapshotted and the journal
	// truncated. <= 0 uses DefaultCompactEvery.
	CompactEvery int
	// SLO configures the rolling service-level objectives (slo.go).
	SLO SLOConfig
}

// DefaultCompactEvery is the journal-row compaction threshold.
const DefaultCompactEvery = 4096

// Warehouse is the goroutine-safe aggregate store.
type Warehouse struct {
	mu   sync.Mutex
	keys map[Key]*Aggregate
	tot  Totals
	seq  uint64

	cfg     Config
	journal *journal // nil when memory-only
	rowsNew int      // journal rows since the last compaction

	slo *SLOTracker
	// now is the clock, swappable in tests.
	now func() time.Time
}

// New returns a memory-only warehouse (Open adds persistence).
func New(cfg Config) *Warehouse {
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	return &Warehouse{
		keys: map[Key]*Aggregate{},
		cfg:  cfg,
		slo:  NewSLOTracker(cfg.SLO),
		now:  time.Now,
	}
}

// SLO returns the warehouse's rolling SLO tracker.
func (w *Warehouse) SLO() *SLOTracker { return w.slo }

// normalizeArch mirrors compilecache's canonical arch naming so live and
// offline ingests of the same traffic land on the same keys.
func normalizeArch(arch string) string {
	if arch == "" {
		return "ev6"
	}
	return arch
}

// Ingest folds one flight report into the warehouse: per-GMA aggregate
// updates plus warehouse totals, appending one journal row per
// observation when persistent. Safe for concurrent use.
func (w *Warehouse) Ingest(rep flight.Report) {
	if w == nil {
		return
	}
	rows := rowsFromReport(rep)
	if len(rows) == 0 {
		return
	}
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range rows {
		rows[i].Time = now
		w.seq++
		rows[i].Seq = w.seq
		w.applyTotalsLocked(rows[i])
		w.applyRowLocked(rows[i])
		w.appendRowLocked(rows[i])
	}
	w.maybeCompactLocked()
}

// rowsFromReport flattens one flight report into journal rows: one per
// GMA record, plus a fingerprint-less request-level row when the request
// timed out (its GMAs may still have compiled, late) or failed before any
// GMA was described. The first row carries the First marker so replayed
// journals count reports the same way live ingest does.
func rowsFromReport(rep flight.Report) []Row {
	var rows []Row
	if len(rep.GMAs) == 0 || rep.Timeout {
		outcome := "ok"
		switch {
		case rep.Timeout:
			outcome = "timeout"
		case rep.Panic:
			outcome = "panic"
		case rep.Error != "":
			outcome = "error"
		}
		rows = append(rows, Row{
			Req:     rep.ID,
			Key:     Key{Arch: normalizeArch(rep.Arch), Strategy: rep.Strategy},
			WallMS:  rep.WallMillis,
			Cycles:  -1,
			Outcome: outcome,
			Error:   rep.Error,
		})
	}
	for _, g := range rep.GMAs {
		rows = append(rows, rowFromGMA(rep, g))
	}
	rows[0].First = true
	rows[0].Upstream = rep.Upstream
	rows[0].Attempts = rep.Attempts
	return rows
}

// applyTotalsLocked folds one row into the warehouse totals. Live ingest
// and journal replay both route through here, so a restarted warehouse
// reports the same counts as the process that wrote the journal.
func (w *Warehouse) applyTotalsLocked(row Row) {
	if row.First {
		w.tot.Reports++
		if row.Upstream != "" {
			w.tot.Routed++
			if row.Attempts > 1 {
				w.tot.Retried++
			}
		}
	}
	if row.Fingerprint != "" {
		w.tot.GMAs++
	}
	switch row.Outcome {
	case "error", "panic", "timeout":
		w.tot.Errors++
		if row.Outcome == "panic" {
			w.tot.Panics++
		}
		if row.Outcome == "timeout" {
			w.tot.Timeouts++
		}
	case "hit":
		w.tot.CacheHits++
	case "coalesced":
		w.tot.Coalesced++
	}
}

// rowFromGMA flattens one per-GMA flight record into a journal row.
func rowFromGMA(rep flight.Report, g flight.GMAReport) Row {
	incremental := false
	var conflicts, maxProbe int64
	for _, p := range g.Probes {
		if p.Incremental {
			incremental = true
		}
		conflicts += p.Conflicts
		if p.Conflicts > maxProbe {
			maxProbe = p.Conflicts
		}
	}
	row := Row{
		Req: rep.ID,
		Key: Key{
			Fingerprint: g.Fingerprint,
			Arch:        normalizeArch(rep.Arch),
			Strategy:    rep.Strategy,
			Incremental: incremental,
		},
		Name:      g.Name,
		WallMS:    rep.WallMillis,
		SolveMS:   g.SolveMillis,
		Cycles:    g.Cycles,
		Optimal:   g.OptimalProven,
		Certified: g.Certified,
		Probes:    len(g.Probes),
		Conflicts: conflicts,
		MaxProbe:  maxProbe,
		Engine:    g.Engine,
		Outcome:   "ok",
		Error:     g.Error,
	}
	switch {
	case g.Error != "":
		row.Outcome = "error"
		if g.Panic {
			row.Outcome = "panic"
		}
		row.Cycles = -1
	case g.CacheHit:
		row.Outcome = "hit"
	case g.Coalesced:
		row.Outcome = "coalesced"
	}
	return row
}

// applyRowLocked folds one observation row into its aggregate. Rows with
// an empty fingerprint (request-level failures) only touch totals, which
// Ingest/replay handle separately.
func (w *Warehouse) applyRowLocked(row Row) {
	if row.Fingerprint == "" {
		return
	}
	a := w.keys[row.Key]
	if a == nil {
		a = &Aggregate{
			Key:    row.Key,
			Names:  map[string]uint64{},
			Cycles: map[int]uint64{},
		}
		w.keys[row.Key] = a
	}
	if row.Name != "" {
		a.Names[row.Name]++
	}
	if row.Time.After(a.LastSeen) {
		a.LastSeen = row.Time
	}
	switch row.Outcome {
	case "error", "panic", "timeout":
		a.Errors++
		if row.Outcome == "panic" {
			a.Panics++
		}
		return
	case "hit":
		a.CacheHits++
		a.Cycles[row.Cycles]++
		return
	case "coalesced":
		a.Coalesced++
		a.Cycles[row.Cycles]++
		return
	}
	a.Compiles++
	a.Cycles[row.Cycles]++
	if row.Optimal {
		a.Optimal++
	}
	if row.Certified {
		a.Certified++
	}
	a.Wall.Observe(row.WallMS)
	a.Solve.Observe(row.SolveMS)
	a.Probes += uint64(row.Probes)
	a.Conflicts += row.Conflicts
	if row.Engine != "" {
		if a.Engines == nil {
			a.Engines = map[string]uint64{}
		}
		a.Engines[row.Engine]++
	}
	if row.MaxProbe > a.MaxProbeConflicts {
		a.MaxProbeConflicts = row.MaxProbe
	}
}

// Totals returns the warehouse-level request counts.
func (w *Warehouse) Totals() Totals {
	if w == nil {
		return Totals{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tot
}

// Len returns the number of distinct keys.
func (w *Warehouse) Len() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.keys)
}

// SnapshotSchema tags persisted warehouse snapshots; bump it whenever
// the aggregate layout or digest bounds change so stale snapshots are
// quarantined instead of misread.
const SnapshotSchema = "denali-history/v1"

// Snapshot is the full serializable warehouse state: the compaction
// payload, the /debug/history body, and one side of a sentinel diff.
type Snapshot struct {
	Schema  string    `json:"schema"`
	SavedAt time.Time `json:"saved_at"`
	// LastSeq is the newest journal sequence folded into Keys; replay
	// skips rows at or below it.
	LastSeq uint64       `json:"last_seq"`
	Totals  Totals       `json:"totals"`
	Keys    []*Aggregate `json:"keys"`
}

// Snapshot captures the current state (deep copy, sorted most-compiled
// first).
func (w *Warehouse) Snapshot() Snapshot {
	if w == nil {
		return Snapshot{Schema: SnapshotSchema}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshotLocked()
}

func (w *Warehouse) snapshotLocked() Snapshot {
	s := Snapshot{
		Schema:  SnapshotSchema,
		SavedAt: w.now(),
		LastSeq: w.seq,
		Totals:  w.tot,
		Keys:    make([]*Aggregate, 0, len(w.keys)),
	}
	for _, a := range w.keys {
		s.Keys = append(s.Keys, a.clone())
	}
	sortAggregates(s.Keys)
	return s
}

func sortAggregates(as []*Aggregate) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		an, bn := a.Compiles+a.CacheHits+a.Coalesced, b.Compiles+b.CacheHits+b.Coalesced
		if an != bn {
			return an > bn
		}
		return a.Key.String() < b.Key.String()
	})
}

// restore replaces the warehouse state from a snapshot (used by Open).
func (w *Warehouse) restore(s Snapshot) error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("history: snapshot schema %q (want %s)", s.Schema, SnapshotSchema)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tot = s.Totals
	w.seq = s.LastSeq
	w.keys = make(map[Key]*Aggregate, len(s.Keys))
	for _, a := range s.Keys {
		c := a.clone()
		if c.Names == nil {
			c.Names = map[string]uint64{}
		}
		if c.Cycles == nil {
			c.Cycles = map[int]uint64{}
		}
		w.keys[c.Key] = c
	}
	return nil
}

// replayRow folds one journal row back in during Open, honouring the
// snapshot's LastSeq watermark.
func (w *Warehouse) replayRow(row Row) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if row.Seq <= w.seq {
		return
	}
	w.seq = row.Seq
	w.applyTotalsLocked(row)
	w.applyRowLocked(row)
}
