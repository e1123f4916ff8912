package compilecache

import (
	"repro/internal/flight"
	"repro/internal/gma"
	"repro/internal/schedule"
)

// Entry is one cached compile result: the flight-recorder view of the
// origin compile (identity, probe ladder, outcome) plus the rendered
// listings and the decoded schedule, which is what makes a cached result
// executable (Execute/Verify) and not merely displayable.
//
// Entries are immutable once published — hits share the same Entry (and
// the same *schedule.Schedule, which the simulator only reads), so a
// consumer must never mutate one in place; ScheduleFor returns a fresh
// Schedule with remapped name tables for exactly that reason.
type Entry struct {
	// OriginRequest is the request ID of the compile that produced the
	// entry ("" for compiles without one). Cached responses keep their
	// own request ID but report this origin in their flight rows.
	OriginRequest string

	// Report is the origin compile's per-GMA flight record: fingerprint,
	// match stats, the full probe ladder, cycles and certification.
	Report flight.GMAReport

	Assembly string
	Listing  string
	MaxLive  int

	// Sched is the decoded schedule. Its register maps are keyed by the
	// ORIGIN GMA's variable and target names; use ScheduleFor to obtain
	// a schedule keyed for a (possibly alpha-renamed) requesting GMA.
	Sched *schedule.Schedule
	// Vars is the origin GMA's variables in canonical first-use order
	// (flight.Canonical) and Targets its target names in declaration
	// order: position i in either list corresponds to position i of the
	// requesting GMA's own lists, which is what makes the remap sound.
	Vars    []string
	Targets []string
}

// ScheduleFor returns the cached schedule keyed for the requesting GMA g,
// which may be an alpha-renamed variant of the origin (same key, other
// variable/target names). Launches are shared — the simulator never
// writes them — while the name-keyed maps (InputRegs, ResultRegs,
// MemTargets) are rebuilt through the positional correspondence between
// the origin's canonical variable order and the requester's. For the
// common case (requester == origin) the remap is the identity.
func (e *Entry) ScheduleFor(g *gma.GMA) *schedule.Schedule {
	if e.Sched == nil {
		return nil
	}
	_, vars := flight.Canonical(g)
	varOf := map[string]string{}
	for i, origin := range e.Vars {
		if i < len(vars) {
			varOf[origin] = vars[i]
		}
	}
	tgtOf := map[string]string{}
	for i, origin := range e.Targets {
		if i < len(g.Targets) {
			tgtOf[origin] = g.Targets[i].Name
		}
	}
	rename := func(m map[string]string, name string) string {
		if to, ok := m[name]; ok {
			return to
		}
		return name
	}
	s := *e.Sched
	s.InputRegs = make(map[string]string, len(e.Sched.InputRegs))
	for name, reg := range e.Sched.InputRegs {
		s.InputRegs[rename(varOf, name)] = reg
	}
	s.ResultRegs = make(map[string]schedule.Operand, len(e.Sched.ResultRegs))
	for name, op := range e.Sched.ResultRegs {
		// "<guard>" is a schedule-internal name, not a target.
		if name == "<guard>" {
			s.ResultRegs[name] = op
			continue
		}
		s.ResultRegs[rename(tgtOf, name)] = op
	}
	s.MemTargets = make([]string, len(e.Sched.MemTargets))
	for i, name := range e.Sched.MemTargets {
		s.MemTargets[i] = rename(tgtOf, name)
	}
	return &s
}
