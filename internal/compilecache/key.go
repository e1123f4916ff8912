// Package compilecache is the content-addressed compile cache: real
// workloads are heavy-tailed and repeat the same kernels, yet without a
// cache every request re-saturates the E-graph and re-runs the whole SAT
// budget sweep even for a GMA the process answered a second ago (Souper
// and Minotaur both report a persistent result cache as their single
// biggest throughput lever).
//
// The cache is layered:
//
//	Key        a canonical compile identity — SHA-256 over the GMA's
//	           alpha-renamed canonical rendering (flight.Canonical) plus
//	           every option that shapes the result (arch, axiom-bundle
//	           version, certify, search budgets) and the
//	           build version, so a stale hit across builds or option
//	           changes is impossible by construction
//	Cache      a goroutine-safe in-process LRU bounded by entries and
//	           bytes, with single-flight dedup: a thundering herd of
//	           identical requests costs exactly one compile, the rest
//	           block on the leader's result
//	Store      a pluggable persistent tier behind the LRU; DiskStore
//	           keeps one content-addressed JSON file per key with atomic
//	           write-then-rename and corruption quarantine
//
// Entries carry everything needed to reproduce a CompiledGMA — including
// the decoded schedule with a variable-correspondence table, so a hit on
// an alpha-renamed variant of the origin GMA still yields a schedule
// whose register maps use the requester's variable names.
package compilecache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/axioms"
	"repro/internal/flight"
	"repro/internal/gma"
)

// schemaVersion is baked into every key: bump it when the Entry layout or
// the canonical key rendering changes incompatibly, and every old entry
// (memory or disk) silently becomes unreachable instead of wrongly live.
const schemaVersion = "denali-cache/v2"

// KeyConfig is the option slice of a compile identity: everything beyond
// the GMA itself that can change the result a compile produces. The
// budget-search *strategy* (linear/binary/descend/parallel) and worker
// count are deliberately absent — every strategy provably finds the same
// optimum (the equivalence gates pin this), so results cache across
// strategies; options with result-shape impact (certify, search budgets,
// the axiom bundle, the build itself) all key. There is no probe-mode
// field: every probe runs on the persistent engine.
type KeyConfig struct {
	// Arch is the machine-model name ("" normalizes to "ev6").
	Arch string
	// AxiomVersion identifies the axiom bundle the compile ran under
	// (built-in + program-local + extra); see AxiomVersion.
	AxiomVersion string
	// BuildVersion pins the producing binary (buildinfo.Version()), so
	// entries never survive across builds with changed semantics.
	BuildVersion string
	// MaxCycles / MaxConflicts bound the search (0 normalizes to the
	// compiler defaults: 24 cycles, unbounded conflicts).
	MaxCycles    int
	MaxConflicts int64
	// MatcherMaxRounds / MatcherMaxNodes bound saturation; a starved
	// matcher can change the result, so the budgets key.
	MatcherMaxRounds int
	MatcherMaxNodes  int
	// DisableAtMostOnce is the pruning-constraint ablation.
	DisableAtMostOnce bool
	// Certify changes the result shape (certified flag, proof work).
	Certify bool
}

// normalized maps default-equivalent configs onto one canonical form so
// e.g. Arch "" and "ev6" share a key.
func (c KeyConfig) normalized() KeyConfig {
	if c.Arch == "" {
		c.Arch = "ev6"
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 24
	}
	return c
}

// Key computes the canonical compile identity of one GMA under one
// configuration: a 64-hex-digit SHA-256 usable as a map key and as a
// content-addressed filename. Alpha-renamed variants of one computation
// (different variable, target or GMA names) collide by construction;
// any difference in structure or in a result-shaping option separates.
func Key(g *gma.GMA, cfg KeyConfig) string {
	cfg = cfg.normalized()
	text, _ := flight.Canonical(g)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\narch=%s\naxioms=%s\nbuild=%s\nmax-cycles=%d\nmax-conflicts=%d\nmatcher-rounds=%d\nmatcher-nodes=%d\nno-amo=%v\ncertify=%v\ngma:\n",
		schemaVersion, cfg.Arch, cfg.AxiomVersion, cfg.BuildVersion,
		cfg.MaxCycles, cfg.MaxConflicts, cfg.MatcherMaxRounds, cfg.MatcherMaxNodes,
		cfg.DisableAtMostOnce, cfg.Certify)
	b.WriteString(text)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// AxiomVersion hashes an axiom bundle into a stable 24-hex-digit version
// string for KeyConfig. The rendering includes each axiom's name,
// quantified variables and both sides, so editing any axiom — built-in,
// program-local or -extra-axioms — moves every affected key.
func AxiomVersion(axs []*axioms.Axiom) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d axioms\n", len(axs))
	for _, a := range axs {
		io.WriteString(h, a.String())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
