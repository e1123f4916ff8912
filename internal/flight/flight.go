// Package flight is the per-compile flight recorder: a request-scoped
// structured report of everything a compilation did — which GMAs it
// compiled (identified by a canonical fingerprint), how the e-graph grew,
// the full SAT probe ladder with per-probe solver-work deltas, which
// strategy ran, what it cost, and how it ended (cycles + certification,
// or an error/panic). Where internal/obs aggregates across requests
// (Registry) or records one run's spans (Trace), a flight.Report is the
// durable answer to "what happened to request X?": serve keeps the last N
// reports in a Ring behind /debug/requests, and the CLIs append them to a
// JSONL log (-report-out). This package keeps no per-GMA aggregate of
// its own: internal/history is the one fold of reports per GMA, which
// serve keeps live behind /debug/history and `denali report` builds from
// such logs.
//
// The package depends only on the IR layer (gma, term) and buildinfo, so
// every layer above the scheduler can assemble or consume reports without
// import cycles. Like obs, the *Recorder is nil-safe: a nil recorder
// swallows every call, so report assembly can be wired unconditionally.
package flight

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/gma"
	"repro/internal/term"
)

// ProbeRow is one SAT probe of the budget search. Every probe runs on the
// persistent engine, so the solver-work fields are per-probe deltas and
// summing rows never double-counts; Vars/Clauses stay window totals.
type ProbeRow struct {
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
	// Reused marks a warm solver (learned clauses carried over from
	// earlier probes).
	Reused bool `json:"reused,omitempty"`
	// Cancelled marks a probe interrupted as moot (Result UNKNOWN): a
	// parallel speculation another answer settled.
	Cancelled bool `json:"cancelled,omitempty"`
}

// GMAReport is the per-GMA record: identity (name + canonical
// fingerprint), search features (goal size, operator mix, e-graph growth),
// the probe ladder, and the outcome. Exactly the raw material the
// adaptive-search and compile-cache roadmap items need per query.
type GMAReport struct {
	Name string `json:"name"`
	// Fingerprint is the canonical GMA identity: a hash over the guard,
	// targets and values with inputs alpha-renamed in first-use order, so
	// the same computation under different variable names keys the same.
	Fingerprint string `json:"fingerprint"`
	// GoalSize is the total term size of the goals (guard + right-hand
	// sides); OperatorMix counts operator occurrences across them.
	GoalSize    int            `json:"goal_size"`
	OperatorMix map[string]int `json:"operator_mix,omitempty"`

	MatchRounds         int     `json:"match_rounds"`
	MatchInstantiations int     `json:"match_instantiations"`
	MatchQuiescent      bool    `json:"match_quiescent"`
	EGraphNodes         int     `json:"egraph_nodes"`
	EGraphClasses       int     `json:"egraph_classes"`
	MatchMillis         float64 `json:"match_ms"`

	Probes      []ProbeRow `json:"probes,omitempty"`
	SolveMillis float64    `json:"solve_ms"`
	// EncodeMillis is the constraint-generation time: the probe engines'
	// up-front windows and their in-place extensions.
	EncodeMillis float64 `json:"encode_ms,omitempty"`

	// CompileMillis is the core compile's wall time: matching, the budget
	// search and any certification.
	CompileMillis float64 `json:"compile_ms,omitempty"`

	Cycles        int     `json:"cycles"`
	Instructions  int     `json:"instructions"`
	OptimalProven bool    `json:"optimal_proven"`
	Certified     bool    `json:"certified,omitempty"`
	CertifyMillis float64 `json:"certify_ms,omitempty"`
	// CertifyResult is the DRAT check's outcome ("ok", "failed", or
	// "missing" when no proof was recorded; empty when no check ran) and
	// CertSteps the checked proof's length in addition steps.
	CertifyResult string `json:"certify_result,omitempty"`
	CertSteps     int    `json:"cert_steps,omitempty"`

	// StokeSteps, StokeVerified and StokeRejects count the stochastic
	// engine's proposals, exactly verified candidates and refuted
	// screening false positives; zero when it did not run.
	StokeSteps    int `json:"stoke_steps,omitempty"`
	StokeVerified int `json:"stoke_verified,omitempty"`
	StokeRejects  int `json:"stoke_rejects,omitempty"`

	// Engine names the search-engine family that produced the schedule
	// ("sat" or "stochastic"); under the stochastic strategy, "sat" marks
	// a GMA that fell back to the descend sweep. History counts it per
	// key, so `denali report` and /debug/history show it per strategy.
	Engine string `json:"engine,omitempty"`

	// Error/Panic capture a failed compilation of this GMA; the match
	// stats and any probes completed before the failure are retained.
	Error string `json:"error,omitempty"`
	Panic bool   `json:"panic,omitempty"`

	// CacheHit marks a result served from the compile cache — the match
	// stats and probe ladder above are the origin compile's, replayed
	// from the cached entry, not work done by this request. Coalesced
	// instead marks a request that blocked on an identical in-flight
	// compile (single-flight dedup) and took the leader's result.
	// CacheOrigin is the request ID of the compile that produced the
	// cached entry, so a hit can be traced back to the compile that paid
	// for it.
	CacheHit    bool   `json:"cache_hit,omitempty"`
	Coalesced   bool   `json:"coalesced,omitempty"`
	CacheOrigin string `json:"cache_origin,omitempty"`
}

// Report is one compile request end to end.
type Report struct {
	// ID is the request ID: accepted from the client (X-Request-ID),
	// generated at the front door otherwise.
	ID      string    `json:"id"`
	Start   time.Time `json:"start"`
	Version string    `json:"version"`

	Arch        string `json:"arch,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	SourceBytes int    `json:"source_bytes,omitempty"`
	// Seed is the stochastic-engine seed this request resolved to (an
	// explicit override, or the hash of the request ID), recorded so any
	// stochastic compile can be replayed bit-for-bit.
	// SeedSet distinguishes a real recorded seed from the zero value.
	Seed    uint64 `json:"seed,omitempty"`
	SeedSet bool   `json:"seed_set,omitempty"`

	WallMillis float64     `json:"wall_ms"`
	GMAs       []GMAReport `json:"gmas,omitempty"`

	// Error/Panic capture a request-level failure (parse error, panic, or
	// the first failing GMA's error joined by the compiler).
	Error string `json:"error,omitempty"`
	Panic bool   `json:"panic,omitempty"`
	// Timeout marks a request that exceeded the service deadline; Error
	// holds the reject message. History totals count timeouts separately
	// from other errors.
	Timeout bool `json:"timeout,omitempty"`
}

// NewReport returns a report stamped with the ID, the current time and
// the process version.
func NewReport(id string) Report {
	return Report{ID: id, Start: time.Now(), Version: buildinfo.Version()}
}

// NewID returns a fresh 16-hex-digit request ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// time-derived ID rather than panicking in an observability path.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// SanitizeID makes an externally supplied request ID safe to thread
// through logs, metrics labels and DIMACS provenance comments: only
// [A-Za-z0-9._-] survive (other bytes become '_'), length is capped at
// 64, and an empty result yields a fresh generated ID.
func SanitizeID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, id)
	if clean == "" {
		return NewID()
	}
	return clean
}

// DescribeGMA fills the identity and search-feature fields of a
// GMAReport: name, canonical fingerprint, goal size and operator mix.
func DescribeGMA(g *gma.GMA) GMAReport {
	r := GMAReport{Name: g.Name, Fingerprint: Fingerprint(g)}
	mix := map[string]int{}
	for _, goal := range g.Goals() {
		r.GoalSize += goal.Size()
		countOps(goal, mix)
	}
	if len(mix) > 0 {
		r.OperatorMix = mix
	}
	return r
}

func countOps(t *term.Term, mix map[string]int) {
	if t.Kind != term.App {
		return
	}
	mix[t.Op]++
	for _, a := range t.Args {
		countOps(a, mix)
	}
}

// Fingerprint computes the canonical GMA identity hash: inputs are
// alpha-renamed in first-occurrence order over guard-then-values, so two
// GMAs computing the same thing under different variable names (or a
// different GMA name) collide, while any structural difference — guard,
// target kinds, values, load protection, assumptions — separates them.
// The 16-hex-digit prefix of a SHA-256 is returned.
func Fingerprint(g *gma.GMA) string {
	text, _ := Canonical(g)
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// Canonical returns the canonical alpha-renamed rendering of the GMA —
// the exact text Fingerprint hashes — together with the GMA's variables
// in first-occurrence order over guard, values, miss annotations and
// assumptions. Two alpha-renamed variants of one computation render the
// same text, and position i of each variant's variable list names the
// same canonical variable v<i>, so a consumer holding both lists (the
// compile cache) can translate names between the variants.
func Canonical(g *gma.GMA) (string, []string) {
	alias := map[string]string{}
	var order []string
	rename := func(name string) string {
		a, ok := alias[name]
		if !ok {
			a = fmt.Sprintf("v%d", len(alias))
			alias[name] = a
			order = append(order, name)
		}
		return a
	}
	var b strings.Builder
	if g.Guard != nil {
		b.WriteString("guard:")
		writeCanonical(&b, g.Guard, rename)
		b.WriteByte('\n')
	}
	for i, t := range g.Targets {
		fmt.Fprintf(&b, "%d:%d:=", i, t.Kind)
		writeCanonical(&b, g.Values[i], rename)
		b.WriteByte('\n')
	}
	if g.ProtectLoads {
		b.WriteString("protect-loads\n")
	}
	for _, m := range g.MissAddrs {
		b.WriteString("miss:")
		writeCanonical(&b, m, rename)
		b.WriteByte('\n')
	}
	for _, as := range g.Assumes {
		if as.Eq {
			b.WriteString("assume-eq:")
		} else {
			b.WriteString("assume-neq:")
		}
		writeCanonical(&b, as.A, rename)
		b.WriteByte(',')
		writeCanonical(&b, as.B, rename)
		b.WriteByte('\n')
	}
	return b.String(), order
}

// writeCanonical renders a term with variables replaced by their
// first-occurrence aliases, in a shape distinct from any operator name.
func writeCanonical(b *strings.Builder, t *term.Term, rename func(string) string) {
	switch t.Kind {
	case term.Const:
		fmt.Fprintf(b, "#%d", t.Word)
	case term.Var:
		b.WriteString(rename(t.Name))
	default:
		b.WriteByte('(')
		b.WriteString(t.Op)
		for _, a := range t.Args {
			b.WriteByte(' ')
			writeCanonical(b, a, rename)
		}
		b.WriteByte(')')
	}
}

// Recorder assembles one Report across the layers of a compilation. It
// is goroutine-safe — the parallel multi-GMA compiler adds GMA records
// from worker goroutines — and nil-safe, so report assembly can be wired
// unconditionally like an *obs.Trace.
type Recorder struct {
	mu  sync.Mutex
	rep Report
}

// NewRecorder returns a recorder for one request, stamped with the ID,
// start time and process version.
func NewRecorder(id string) *Recorder {
	return &Recorder{rep: NewReport(id)}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// ID returns the request ID ("" on nil).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.rep.ID
}

// SetRequest records the request-level compile configuration.
func (r *Recorder) SetRequest(arch, strategy string, workers, sourceBytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Arch, r.rep.Strategy = arch, strategy
	r.rep.Workers, r.rep.SourceBytes = workers, sourceBytes
	r.mu.Unlock()
}

// SetSeed records the resolved stochastic-engine seed.
func (r *Recorder) SetSeed(seed uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Seed, r.rep.SeedSet = seed, true
	r.mu.Unlock()
}

// AddGMA appends one per-GMA record.
func (r *Recorder) AddGMA(g GMAReport) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.GMAs = append(r.rep.GMAs, g)
	r.mu.Unlock()
}

// Fail records a request-level failure.
func (r *Recorder) Fail(msg string, panicked bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Error = msg
	r.rep.Panic = r.rep.Panic || panicked
	r.mu.Unlock()
}

// Report snapshots the assembled report with the given wall-clock cost.
// Safe to call more than once; the recorder keeps accumulating.
func (r *Recorder) Report(wall time.Duration) Report {
	if r == nil {
		return Report{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	rep.WallMillis = float64(wall.Microseconds()) / 1e3
	rep.GMAs = append([]GMAReport(nil), r.rep.GMAs...)
	return rep
}
