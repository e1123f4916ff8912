package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestChromeTraceGolden pins the exact Chrome trace_event JSON produced
// for a small trace on a deterministic clock. The shape matters: the
// chrome://tracing and Perfetto loaders both accept the
// {"traceEvents": [...]} container with X (span) and M (metadata) phase
// events and microsecond timestamps. Tags become the spans' args.
func TestChromeTraceGolden(t *testing.T) {
	tr := newFakeTrace() // 1ms per clock reading
	root := tr.Start("compile", T("gma", "byteswap4"))
	probe := tr.Start("probe K=4")
	probe.End(T("result", "UNSAT"))
	root.End()

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	// Clock readings, 1ms apart starting at the epoch: start(compile)=1ms,
	// start(probe)=2ms, end(probe)=3ms, end(compile)=4ms; snapshot
	// advances once more but closed spans keep their times.
	const want = `{"traceEvents":[` +
		`{"name":"compile","ph":"X","ts":1000,"dur":3000,"pid":1,"tid":1,"args":{"gma":"byteswap4"}},` +
		`{"name":"probe K=4","ph":"X","ts":2000,"dur":1000,"pid":1,"tid":1,"args":{"result":"UNSAT"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"pipeline"}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got != want {
		t.Errorf("chrome trace mismatch:\n got: %s\nwant: %s", got, want)
	}

	// And it must be valid JSON of the documented shape.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(got), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(parsed.TraceEvents))
	}
}

// TestChromeTraceDetachedLanes pins the thread-lane layout of detached
// spans: overlapping detached spans (parallel speculative K-probes) must
// land on distinct tids so Perfetto renders them as parallel rows, while
// a detached span starting after another lane has drained reuses that
// lane. The cursor-chain spans always stay on tid 1.
func TestChromeTraceDetachedLanes(t *testing.T) {
	tr := newFakeTrace()                // clock advances 1ms per reading
	root := tr.Start("compile")         // t=1
	p1 := tr.StartDetached("probe K=0") // t=2
	p2 := tr.StartDetached("probe K=1") // t=3: overlaps p1 -> new lane
	p1.End()                            // t=4
	p2.End()                            // t=5
	p3 := tr.StartDetached("probe K=2") // t=6: both lanes free -> reuse first
	p3.End()                            // t=7
	root.End()                          // t=8

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	tids := map[string]int{}
	threadNames := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph == "X" {
			tids[e.Name] = e.Tid
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			threadNames++
		}
	}
	if tids["compile"] != 1 {
		t.Errorf("compile on tid %d, want 1", tids["compile"])
	}
	if tids["probe K=0"] == 1 || tids["probe K=1"] == 1 || tids["probe K=2"] == 1 {
		t.Errorf("detached spans must not share the pipeline track: %v", tids)
	}
	if tids["probe K=0"] == tids["probe K=1"] {
		t.Errorf("overlapping detached spans share tid %d", tids["probe K=0"])
	}
	if tids["probe K=2"] != tids["probe K=0"] {
		t.Errorf("probe K=2 should reuse the drained lane %d, got %d",
			tids["probe K=0"], tids["probe K=2"])
	}
	// One thread_name per used tid: pipeline + 2 lanes.
	if threadNames != 3 {
		t.Errorf("got %d thread_name metadata events, want 3", threadNames)
	}
}

// TestChromeTraceIncludesOpenSpans: a span still open at export time is
// written, ending at the export instant, so a trace taken mid-compile
// still shows the phase in progress.
func TestChromeTraceIncludesOpenSpans(t *testing.T) {
	tr := newFakeTrace()
	tr.Start("still-running") // t=1, never ended; the export reads t=2
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"still-running","ph":"X","ts":1000,"dur":1000,`; !strings.Contains(sb.String(), want) {
		t.Errorf("chrome export lacks the open span %s:\n%s", want, sb.String())
	}
}

func TestSnapshotFinishesOpenSpansAtNow(t *testing.T) {
	tr := newFakeTrace()
	tr.Start("open")
	s := tr.snapshot()
	sp := s.spans[0]
	if !sp.open {
		t.Fatal("span should be open")
	}
	if d := sp.end.Sub(sp.start); d != time.Millisecond {
		t.Errorf("open span duration = %v, want 1ms", d)
	}
}

// TestAssignLanesDirect exercises the greedy lane assigner on raw span
// copies, the unit under TestChromeTraceDetachedLanes' end-to-end check:
// chain spans get no lane, concurrent detached spans get distinct lanes
// (tid >= 2), a span starting exactly at a lane's end reuses it, and lane
// numbers are assigned first-fit in span-start order.
func TestAssignLanesDirect(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	spans := []spanCopy{
		{name: "compile", start: at(0), end: at(100)},                 // chain: no lane
		{name: "probe K=0", start: at(1), end: at(5), detached: true}, // lane 2
		{name: "probe K=1", start: at(2), end: at(9), detached: true}, // overlaps K=0 -> lane 3
		{name: "probe K=2", start: at(3), end: at(4), detached: true}, // overlaps both -> lane 4
		{name: "probe K=3", start: at(5), end: at(6), detached: true}, // starts at K=0's end -> reuse lane 2
		{name: "probe K=4", start: at(7), end: at(8), detached: true}, // lanes 2 and 4 free -> first fit lane 2
		{name: "chain 2", start: at(3), end: at(4)},                   // chain: no lane, despite overlap
	}
	lanes := assignLanes(spans)
	want := map[int]int{1: 2, 2: 3, 3: 4, 4: 2, 5: 2}
	if len(lanes) != len(want) {
		t.Fatalf("assigned %d lanes, want %d: %v", len(lanes), len(want), lanes)
	}
	for i, lane := range want {
		if lanes[i] != lane {
			t.Errorf("span %d (%s): lane %d, want %d", i, spans[i].name, lanes[i], lane)
		}
	}
	if _, ok := lanes[0]; ok {
		t.Error("chain span must not get a lane")
	}
	// Overlapping detached spans must never share a lane.
	for i, li := range lanes {
		for j, lj := range lanes {
			if i >= j || li != lj {
				continue
			}
			a, b := spans[i], spans[j]
			if a.start.Before(b.end) && b.start.Before(a.end) {
				t.Errorf("overlapping spans %d and %d share lane %d", i, j, li)
			}
		}
	}
}
