package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. parent is the index of the enclosing span
// (-1 at a root); lane separates concurrent callers in the trace viewer.
type span struct {
	name       string
	parent     int
	lane       int
	start, end time.Time
}

// spans keeps every span of a traced run in memory until the run ends.
// Callers name the parent explicitly, so concurrent clients can record
// into one recorder.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (s *spans) begin(name string, parent, lane int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, parent: parent, lane: lane, start: time.Now()})
	return len(s.list) - 1
}

// end closes span id and returns its duration; ending a closed span
// changes nothing.
func (s *spans) end(id int) time.Duration {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.list[id].end.IsZero() {
		s.list[id].end = now
	}
	return s.list[id].end.Sub(s.list[id].start)
}

// call records f as one span named name under parent.
func (s *spans) call(name string, parent int, f func()) {
	id := s.begin(name, parent, 0)
	f()
	s.end(id)
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover: the time spent in that layer itself. Only spans
// with index from or later are counted.
func (s *spans) selfTimes(from int) map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	self := map[string]time.Duration{}
	for i := from; i < len(s.list); i++ {
		sp := s.list[i]
		d := sp.end.Sub(sp.start)
		self[sp.name] += d
		if sp.parent >= from {
			self[s.list[sp.parent].name] -= d
		}
	}
	return self
}

// rootTime sums, over the spans named root since from, their durations
// and the durations of their direct children: the time a root took and
// the part of it its children account for.
func (s *spans) rootTime(from int, root string) (total, children time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := from; i < len(s.list); i++ {
		sp := s.list[i]
		switch {
		case sp.name == root:
			total += sp.end.Sub(sp.start)
		case sp.parent >= from && s.list[sp.parent].name == root:
			children += sp.end.Sub(sp.start)
		}
	}
	return total, children
}

// meanDuration is the mean duration of the spans named name since from.
func (s *spans) meanDuration(from int, name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	n := 0
	for i := from; i < len(s.list); i++ {
		if s.list[i].name == name {
			total += s.list[i].end.Sub(s.list[i].start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// mark returns the index the next span will get, so a caller can select
// the spans of one pass with selfTimes(mark).
func (s *spans) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.list)
}

// writeChrome writes every span as a Chrome trace_event "X" event, with
// the parent's index in args, loadable in chrome://tracing or Perfetto.
func (s *spans) writeChrome(w io.Writer, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s.mu.Lock()
	events := make([]event, len(s.list))
	for i, sp := range s.list {
		events[i] = event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.lane,
			Ts:   float64(sp.start.Sub(s.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": sp.parent},
		}
	}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": meta})
}
