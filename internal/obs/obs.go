// Package obs is the pipeline's observability substrate. A *Trace records
// one unit of work — usually one compilation — as timed, nested spans
// carrying key/value tags, and exports them in the Chrome trace_event
// format (loadable in chrome://tracing or Perfetto) or as a per-phase
// wall-time table. It holds no counts: every per-compile count lives in
// the flight record (internal/flight), and the Trace is only the optional
// fine-grained view of where the time went. A *Registry (registry.go)
// aggregates process-level metrics for /metrics.
//
// The package is dependency-free (standard library plus the leaf
// internal/buildinfo package that stamps build identity) and every
// method is safe on a nil *Trace, so instrumented code pays nothing when
// tracing is disabled:
//
//	var tr *obs.Trace            // nil: everything below is a no-op
//	sp := tr.Start("matcher")
//	sp.End(obs.Tint("nodes", 654))
//
// A Trace maintains a cursor of the currently open span: Start nests the
// new span under it, End pops back to the parent. This matches the
// single-goroutine structure of the compile pipeline (one Trace per
// compilation); all state is mutex-guarded so concurrent detached spans
// and exports are race-free, but interleaving Start/End of one Trace
// across goroutines will produce surprising (though safe) nesting.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Tag is one key/value annotation on a span.
type Tag struct {
	Key   string
	Value string
}

// T is shorthand for constructing a Tag.
func T(key, value string) Tag { return Tag{Key: key, Value: value} }

// Tint constructs an integer-valued Tag.
func Tint(key string, v int64) Tag { return Tag{Key: key, Value: fmt.Sprintf("%d", v)} }

// Span is one timed region. The zero of *Span (nil) is a valid no-op
// span: End and SetTag on it do nothing.
type Span struct {
	tr     *Trace
	parent *Span
	name   string
	start  time.Time
	end    time.Time
	depth  int
	tags   []Tag
	ended  bool
	// detached spans live outside the cursor discipline (StartDetached).
	detached bool
}

// Trace accumulates the spans of one compilation (or any other unit of
// work). The nil *Trace is the disabled tracer: every method is a cheap
// no-op.
type Trace struct {
	mu      sync.Mutex
	now     func() time.Time // injectable clock for deterministic tests
	epoch   time.Time
	spans   []*Span // in start order, open and closed
	current *Span
}

// New returns an enabled, empty trace whose epoch is now.
func New() *Trace {
	t := &Trace{now: time.Now}
	t.epoch = t.now()
	return t
}

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil }

// Start opens a span nested under the currently open span (or at the
// root) and makes it current. It returns nil on a nil trace.
func (t *Trace) Start(name string, tags ...Tag) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, parent: t.current, name: name, start: t.now(), tags: tags}
	if t.current != nil {
		sp.depth = t.current.depth + 1
	}
	t.spans = append(t.spans, sp)
	t.current = sp
	return sp
}

// Startf is Start with a formatted name; the formatting cost is skipped
// entirely on a nil trace, so it is safe in hot loops.
func (t *Trace) Startf(format string, args ...any) *Span {
	if t == nil {
		return nil
	}
	return t.Start(fmt.Sprintf(format, args...))
}

// StartDetached opens a span that is NOT nested under the current span and
// does not become current: the cursor discipline is untouched. Detached
// spans are for concurrent work — one per speculative SAT probe, for
// example — where several regions overlap in time and none is "inside"
// the single-goroutine pipeline chain. Ending a detached span closes only
// that span.
func (t *Trace) StartDetached(name string, tags ...Tag) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now(), tags: tags, detached: true}
	t.spans = append(t.spans, sp)
	return sp
}

// End closes the span (appending any final tags). Open descendants are
// closed with it, so a deferred End of an outer span cannot leave
// dangling children. Ending a span twice, or a nil span, is a no-op.
func (sp *Span) End(tags ...Tag) {
	if sp == nil || sp.tr == nil {
		return
	}
	t := sp.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp.ended {
		return
	}
	end := t.now()
	// Only a span on the current cursor chain closes its open descendants
	// and pops the cursor; ending a detached (or otherwise off-chain) span
	// must not disturb the chain.
	onChain := false
	for c := t.current; c != nil; c = c.parent {
		if c == sp {
			onChain = true
			break
		}
	}
	if onChain {
		for c := t.current; c != nil && c != sp; c = c.parent {
			if !c.ended {
				c.ended = true
				c.end = end
			}
		}
		t.current = sp.parent
	}
	sp.ended = true
	sp.end = end
	sp.tags = append(sp.tags, tags...)
}

// SetTag appends an annotation to the span.
func (sp *Span) SetTag(key, value string) {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.tags = append(sp.tags, Tag{Key: key, Value: value})
	sp.tr.mu.Unlock()
}

// snapshot copies the trace state under the lock, finishing open spans at
// the current instant so exporters always see well-formed intervals.
type snapshot struct {
	epoch time.Time
	spans []spanCopy
}

type spanCopy struct {
	name       string
	start, end time.Time
	depth      int
	tags       []Tag
	open       bool
	detached   bool
}

func (t *Trace) snapshot() snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	s := snapshot{epoch: t.epoch}
	for _, sp := range t.spans {
		c := spanCopy{name: sp.name, start: sp.start, end: sp.end, depth: sp.depth,
			tags: append([]Tag(nil), sp.tags...), open: !sp.ended, detached: sp.detached}
		if c.open {
			c.end = now
		}
		s.spans = append(s.spans, c)
	}
	return s
}
