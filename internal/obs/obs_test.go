package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock that advances by step on every reading, for
// deterministic span durations.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		cur := t
		t = t.Add(step)
		return cur
	}
}

// newFakeTrace builds a trace on a deterministic clock ticking 1ms per
// observation.
func newFakeTrace() *Trace {
	tr := New()
	tr.now = fakeClock(time.Unix(1000, 0), time.Millisecond)
	tr.epoch = tr.now()
	return tr
}

func TestSpanNesting(t *testing.T) {
	tr := newFakeTrace()
	root := tr.Start("compile")
	m := tr.Start("matcher")
	r1 := tr.Start("round 1")
	r1.End()
	r2 := tr.Start("round 2")
	r2.End()
	m.End()
	p := tr.Start("probe K=4")
	p.End(T("result", "UNSAT"))
	root.End()

	s := tr.snapshot()
	wantDepth := map[string]int{"compile": 0, "matcher": 1, "round 1": 2, "round 2": 2, "probe K=4": 1}
	if len(s.spans) != len(wantDepth) {
		t.Fatalf("got %d spans, want %d", len(s.spans), len(wantDepth))
	}
	for _, sp := range s.spans {
		if sp.depth != wantDepth[sp.name] {
			t.Errorf("span %q depth = %d, want %d", sp.name, sp.depth, wantDepth[sp.name])
		}
		if sp.open {
			t.Errorf("span %q still open", sp.name)
		}
		if !sp.end.After(sp.start) {
			t.Errorf("span %q has non-positive duration", sp.name)
		}
	}
	// The result tag appended at End must be recorded.
	for _, sp := range s.spans {
		if sp.name == "probe K=4" {
			if len(sp.tags) != 1 || sp.tags[0] != (Tag{"result", "UNSAT"}) {
				t.Errorf("probe tags = %v", sp.tags)
			}
		}
	}
}

func TestEndClosesOpenDescendants(t *testing.T) {
	tr := newFakeTrace()
	root := tr.Start("outer")
	tr.Start("inner") // never explicitly ended
	root.End()
	s := tr.snapshot()
	for _, sp := range s.spans {
		if sp.open {
			t.Errorf("span %q left open by outer End", sp.name)
		}
	}
	// The cursor must be back at the root: a new span starts at depth 0.
	next := tr.Start("next")
	next.End()
	s = tr.snapshot()
	if got := s.spans[len(s.spans)-1]; got.name != "next" || got.depth != 0 {
		t.Errorf("post-End span = %q depth %d, want depth 0", got.name, got.depth)
	}
}

// TestDetachedSpans: StartDetached must leave the cursor chain untouched —
// spans started after it still nest under the enclosing span, ending the
// enclosing span does not close a live detached span, and ending the
// detached span closes only itself.
func TestDetachedSpans(t *testing.T) {
	tr := newFakeTrace()
	root := tr.Start("compile")
	probe := tr.StartDetached("probe K=3", Tint("K", 3))
	inner := tr.Start("matcher") // must nest under compile, not the probe
	inner.End()
	root.End()
	s := tr.snapshot()
	for _, sp := range s.spans {
		switch sp.name {
		case "matcher":
			if sp.depth != 1 {
				t.Errorf("matcher depth = %d, want 1 (detached span moved the cursor)", sp.depth)
			}
		case "probe K=3":
			if !sp.open {
				t.Error("ending compile closed the detached probe span")
			}
		}
	}
	probe.End(T("result", "SAT"))
	s = tr.snapshot()
	for _, sp := range s.spans {
		if sp.open {
			t.Errorf("span %q still open after probe End", sp.name)
		}
		if sp.name == "probe K=3" && len(sp.tags) != 2 {
			t.Errorf("probe tags = %v, want K plus result", sp.tags)
		}
	}
	// The cursor is back at the root even though a detached span ended last.
	next := tr.Start("next")
	next.End()
	s = tr.snapshot()
	if got := s.spans[len(s.spans)-1]; got.name != "next" || got.depth != 0 {
		t.Errorf("post-End span = %q depth %d, want depth 0", got.name, got.depth)
	}
}

// TestDetachedSpansConcurrent hammers detached spans from many goroutines
// while the main chain keeps nesting — the pattern parallelSearch relies on
// (run under -race by the tier-1 gate).
func TestDetachedSpansConcurrent(t *testing.T) {
	tr := New()
	root := tr.Start("compile")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartDetached("probe", Tint("K", int64(k)))
				sp.End(T("result", "UNSAT"))
			}
		}(i)
	}
	inner := tr.Start("matcher")
	inner.End()
	wg.Wait()
	root.End()
	s := tr.snapshot()
	if want := 2 + 8*100; len(s.spans) != want {
		t.Fatalf("got %d spans, want %d", len(s.spans), want)
	}
	for _, sp := range s.spans {
		if sp.open {
			t.Fatalf("span %q left open", sp.name)
		}
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	tr := newFakeTrace()
	sp := tr.Start("x")
	sp.End()
	d := tr.snapshot().spans[0]
	sp.End(T("late", "tag")) // must not extend, retag or panic
	if got := tr.snapshot().spans[0]; got.end != d.end || len(got.tags) != 0 {
		t.Errorf("second End changed the span: end %v -> %v, tags %v", d.end, got.end, got.tags)
	}
}

// TestNilTraceSafety: every recording method on a nil *Trace (and the nil
// *Span it hands out) must be a safe no-op — this is the zero-overhead
// disabled mode the pipeline relies on.
func TestNilTraceSafety(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	sp := tr.Start("a", T("k", "v"))
	if sp != nil {
		t.Fatal("nil trace returned a span")
	}
	sp2 := tr.Startf("probe K=%d", 4)
	sp.End()
	sp2.End(T("result", "SAT"))
	sp.SetTag("k", "v")
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Errorf("WriteChromeTrace(nil): %v", err)
	}
	if got := tr.MetricsTable(); !strings.Contains(got, "disabled") {
		t.Errorf("MetricsTable(nil) = %q", got)
	}
}

func TestMetricsTableAggregates(t *testing.T) {
	tr := newFakeTrace()
	root := tr.Start("compile")
	for i := 0; i < 3; i++ {
		tr.Start("round").End()
	}
	root.End()
	tbl := tr.MetricsTable()
	if !strings.Contains(tbl, "compile") || !strings.Contains(tbl, "round") {
		t.Fatalf("table missing phases:\n%s", tbl)
	}
	// "round" appears once, aggregated with count 3.
	if strings.Count(tbl, "round") != 1 {
		t.Errorf("round not aggregated:\n%s", tbl)
	}
	var line string
	for _, l := range strings.Split(tbl, "\n") {
		if strings.HasPrefix(l, "round") {
			line = l
		}
	}
	if !strings.Contains(line, " 3 ") {
		t.Errorf("round count line = %q, want count 3", line)
	}
	if !strings.Contains(tbl, "100.0%") {
		t.Errorf("root compile span is not 100%% of the trace:\n%s", tbl)
	}
}

// TestMetricsTableDetachedShare: a detached span (a parallel probe) runs
// beside the pipeline chain, not after it, so it must not join the
// share's denominator — the root compile span still reads 100%.
func TestMetricsTableDetachedShare(t *testing.T) {
	tr := newFakeTrace()
	root := tr.Start("compile")            // t=1
	probe := tr.StartDetached("probe K=3") // t=2
	probe.End()                            // t=3
	root.End()                             // t=4: compile 3ms, probe 1ms
	var compile string
	for _, l := range strings.Split(tr.MetricsTable(), "\n") {
		if strings.HasPrefix(l, "compile ") {
			compile = l
		}
	}
	if !strings.HasSuffix(compile, "100.0%") {
		t.Errorf("compile row = %q, want 100.0%%", compile)
	}
}
