package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeEvent is one entry of the Chrome trace_event "traceEvents" array:
// a span as a "complete" event (ph=X), or thread-name metadata (ph=M).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since trace epoch
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON format,
// loadable in chrome://tracing or https://ui.perfetto.dev. Nested spans
// become stacked slices on the pipeline thread track (tid 1), their tags
// the slices' args. Detached spans — concurrent work such as speculative
// K-probes — are laid out on their own thread tracks (tid 2+): spans
// that overlap in time get distinct tids so Perfetto renders them as
// parallel rows instead of stacking them into a false nesting, while
// non-overlapping detached spans reuse lanes to keep the track count
// small.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	s := t.snapshot()
	f := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	lanes := assignLanes(s.spans)
	maxLane := 0
	for i, sp := range s.spans {
		d := usec(sp.end.Sub(sp.start))
		var args map[string]any
		if len(sp.tags) > 0 {
			args = map[string]any{}
			for _, tg := range sp.tags {
				args[tg.Key] = tg.Value
			}
		}
		tid := 1
		if sp.detached {
			tid = lanes[i]
			maxLane = max(maxLane, tid)
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: sp.name, Ph: "X", Ts: usec(sp.start.Sub(s.epoch)), Dur: &d,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	// Name the thread tracks so the lanes read as what they are.
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "pipeline"},
	})
	for tid := 2; tid <= maxLane; tid++ {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("detached-%d", tid-1)},
		})
	}
	return json.NewEncoder(w).Encode(f)
}

// assignLanes maps each detached span (by index into spans) to a thread
// lane (tid ≥ 2) such that detached spans overlapping in time land on
// different lanes, and lanes are reused once free. Spans arrive in start
// order — the order Trace recorded them — so a greedy first-free-lane
// scan yields the minimal lane count.
func assignLanes(spans []spanCopy) map[int]int {
	lanes := map[int]int{}
	var laneEnd []time.Time // laneEnd[l] is when the lane's last span ends
	for i, sp := range spans {
		if !sp.detached {
			continue
		}
		placed := false
		for l := range laneEnd {
			if !sp.start.Before(laneEnd[l]) {
				laneEnd[l] = sp.end
				lanes[i] = l + 2
				placed = true
				break
			}
		}
		if !placed {
			laneEnd = append(laneEnd, sp.end)
			lanes[i] = len(laneEnd) + 1
		}
	}
	return lanes
}

// MetricsTable aggregates spans by name — count, total/min/max wall time,
// and share of the trace — as a fixed-width table for terminal output.
// The share's denominator is the wall time of the root spans on the
// pipeline chain; detached spans (parallel probes) overlap it and are
// left out, so a root compile span always reads 100%.
func (t *Trace) MetricsTable() string {
	if t == nil {
		return "trace disabled\n"
	}
	s := t.snapshot()
	type agg struct {
		name     string
		count    int
		total    time.Duration
		min, max time.Duration
	}
	byName := map[string]*agg{}
	var order []string
	var span time.Duration
	for _, sp := range s.spans {
		d := sp.end.Sub(sp.start)
		a, ok := byName[sp.name]
		if !ok {
			a = &agg{name: sp.name, min: d, max: d}
			byName[sp.name] = a
			order = append(order, sp.name)
		}
		a.count++
		a.total += d
		a.min = min(a.min, d)
		a.max = max(a.max, d)
		if sp.depth == 0 && !sp.detached {
			span += d
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %6s %12s %12s %12s %6s\n", "phase", "count", "total", "min", "max", "%")
	for _, name := range order {
		a := byName[name]
		pct := 0.0
		if span > 0 {
			pct = 100 * float64(a.total) / float64(span)
		}
		fmt.Fprintf(&b, "%-36s %6d %12v %12v %12v %5.1f%%\n",
			a.name, a.count, a.total.Round(time.Microsecond),
			a.min.Round(time.Microsecond), a.max.Round(time.Microsecond), pct)
	}
	return b.String()
}
