package obs

// This file is the process-level half of the observability substrate. A
// *Trace (obs.go) records one compilation; a *Registry aggregates across
// every compilation a process performs — counters, gauges and fixed-bucket
// histograms — and renders them in the Prometheus text exposition format
// (v0.0.4) so a long-running `denali serve` can be scraped. Like the rest
// of the package it is standard-library only and goroutine-safe;
// publishers go through the nil-safe *Sink (sink.go).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefSecondsBuckets are the default latency buckets (seconds): roughly
// exponential from 100µs to 10s, matching the observed range of matcher
// and SAT costs (sub-millisecond byteswap probes up to multi-second
// pigeonhole refutations).
var DefSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefCountBuckets are the default buckets for work counters (conflicts,
// nodes): powers of ten with a half step.
var DefCountBuckets = []float64{
	1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1e6,
}

// metricKey identifies one time series: a metric name plus its canonical
// (sorted, escaped) label rendering.
type metricKey struct {
	name   string
	labels string
}

// metricDecl is the per-name metadata: help text, Prometheus type, and —
// for histograms — the bucket upper bounds.
type metricDecl struct {
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	buckets []float64
}

// histogram is one fixed-bucket histogram series. counts[i] is the number
// of observations ≤ buckets[i] exclusive of earlier buckets
// (non-cumulative internally; exposition cumulates). The final implicit
// bucket is +Inf.
type histogram struct {
	buckets []float64 // upper bounds, strictly increasing, no +Inf
	counts  []uint64  // len(buckets)+1; last is the +Inf overflow
	sum     float64
	count   uint64
	min     float64
	max     float64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// Registry is a process-global, goroutine-safe collection of named
// counters, gauges and histograms, each optionally split by labels. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use; nil-Registry safety lives one layer up in *Sink.
type Registry struct {
	mu      sync.Mutex
	decls   map[string]*metricDecl
	order   []string // declaration order, for stable exposition
	counter map[metricKey]float64
	gauge   map[metricKey]float64
	hist    map[metricKey]*histogram
	// series remembers insertion order of keys per name so exposition is
	// deterministic without re-sorting the world on every scrape.
	series map[string][]metricKey
	// start is captured at construction; process-uptime gauges measure
	// from it so every exposition of one registry agrees on the epoch.
	start time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		decls:   map[string]*metricDecl{},
		counter: map[metricKey]float64{},
		gauge:   map[metricKey]float64{},
		hist:    map[metricKey]*histogram{},
		series:  map[string][]metricKey{},
		start:   time.Now(),
	}
}

// StartTime returns the registry's construction time, the epoch for
// MUptimeSeconds.
func (r *Registry) StartTime() time.Time { return r.start }

// DeclareCounter registers help text for a counter metric. Declaration is
// optional — publishing auto-declares — but declared metrics render HELP
// lines and keep declaration order in the exposition.
func (r *Registry) DeclareCounter(name, help string) {
	r.declare(name, help, "counter", nil)
}

// DeclareGauge registers help text for a gauge metric.
func (r *Registry) DeclareGauge(name, help string) {
	r.declare(name, help, "gauge", nil)
}

// DeclareHistogram registers a histogram metric with the given bucket
// upper bounds (ascending, +Inf implicit). Nil buckets use
// DefSecondsBuckets.
func (r *Registry) DeclareHistogram(name, help string, buckets []float64) {
	if len(buckets) == 0 {
		buckets = DefSecondsBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	r.declare(name, help, "histogram", bs)
}

func (r *Registry) declare(name, help, typ string, buckets []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.decls[name]; ok {
		// Re-declaration refreshes help but never re-buckets live series.
		d.help = help
		return
	}
	r.decls[name] = &metricDecl{help: help, typ: typ, buckets: buckets}
	r.order = append(r.order, name)
}

// ensure returns the declaration for name, auto-declaring with the given
// type when publishing precedes declaration. Caller holds r.mu.
func (r *Registry) ensure(name, typ string) *metricDecl {
	d, ok := r.decls[name]
	if !ok {
		d = &metricDecl{typ: typ}
		if typ == "histogram" {
			d.buckets = DefSecondsBuckets
		}
		r.decls[name] = d
		r.order = append(r.order, name)
	}
	return d
}

func (r *Registry) key(name string, labels []Tag) metricKey {
	return metricKey{name: name, labels: renderLabels(labels)}
}

func (r *Registry) touch(name string, k metricKey, fresh bool) {
	if fresh {
		r.series[name] = append(r.series[name], k)
	}
}

// Add increments a counter series by delta (negative deltas are dropped:
// counters are monotone).
func (r *Registry) Add(name string, delta float64, labels ...Tag) {
	if delta < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensure(name, "counter")
	k := r.key(name, labels)
	_, existed := r.counter[k]
	r.counter[k] = r.counter[k] + delta
	r.touch(name, k, !existed)
}

// Set records the current value of a gauge series.
func (r *Registry) Set(name string, v float64, labels ...Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensure(name, "gauge")
	k := r.key(name, labels)
	_, existed := r.gauge[k]
	r.gauge[k] = v
	r.touch(name, k, !existed)
}

// Observe records one observation into a histogram series. Undeclared
// histograms use DefSecondsBuckets.
func (r *Registry) Observe(name string, v float64, labels ...Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.ensure(name, "histogram")
	k := r.key(name, labels)
	h, ok := r.hist[k]
	if !ok {
		h = &histogram{buckets: d.buckets, counts: make([]uint64, len(d.buckets)+1)}
		r.hist[k] = h
		r.touch(name, k, true)
	}
	h.observe(v)
}

// CounterValue reads one counter series (0 if absent), for tests.
func (r *Registry) CounterValue(name string, labels ...Tag) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter[r.key(name, labels)]
}

// GaugeValue reads one gauge series.
func (r *Registry) GaugeValue(name string, labels ...Tag) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauge[r.key(name, labels)]
}

// HistogramSnapshot is a point-in-time copy of one histogram series.
// Buckets holds cumulative counts per upper bound with the +Inf bucket
// last (Buckets[len-1].Count == Count always).
type HistogramSnapshot struct {
	Name   string
	Labels string // canonical label rendering, "" when unlabeled
	Bounds []float64
	Counts []uint64 // cumulative, len(Bounds)+1, last is +Inf
	Sum    float64
	Count  uint64
	Min    float64
	Max    float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the rank, the same estimate
// prometheus's histogram_quantile computes. It returns NaN on an empty
// histogram; ranks landing in the +Inf bucket return the highest finite
// bound (or Max when larger, so q=1 of a saturated histogram is honest).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	i := 0
	for ; i < len(s.Counts); i++ {
		if float64(s.Counts[i]) >= rank {
			break
		}
	}
	if i >= len(s.Bounds) {
		// +Inf bucket: no finite upper bound to interpolate toward.
		hi := s.Max
		if len(s.Bounds) > 0 && s.Bounds[len(s.Bounds)-1] > hi {
			hi = s.Bounds[len(s.Bounds)-1]
		}
		return hi
	}
	lo, loCount := 0.0, uint64(0)
	if i > 0 {
		lo, loCount = s.Bounds[i-1], s.Counts[i-1]
	}
	hi := s.Bounds[i]
	inBucket := s.Counts[i] - loCount
	est := hi
	if inBucket > 0 {
		est = lo + (hi-lo)*((rank-float64(loCount))/float64(inBucket))
	}
	// Interpolation assumes observations spread across the whole bucket;
	// the tracked extremes bound the estimate by what actually happened.
	if est > s.Max {
		est = s.Max
	}
	if est < s.Min {
		est = s.Min
	}
	return est
}

// Snapshot is a consistent point-in-time copy of the whole registry.
type Snapshot struct {
	Counters   map[string]map[string]float64 // name -> labels -> value
	Gauges     map[string]map[string]float64
	Histograms map[string]map[string]HistogramSnapshot
}

// Snapshot copies every series under one lock acquisition.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   map[string]map[string]float64{},
		Gauges:     map[string]map[string]float64{},
		Histograms: map[string]map[string]HistogramSnapshot{},
	}
	for k, v := range r.counter {
		m := s.Counters[k.name]
		if m == nil {
			m = map[string]float64{}
			s.Counters[k.name] = m
		}
		m[k.labels] = v
	}
	for k, v := range r.gauge {
		m := s.Gauges[k.name]
		if m == nil {
			m = map[string]float64{}
			s.Gauges[k.name] = m
		}
		m[k.labels] = v
	}
	for k, h := range r.hist {
		m := s.Histograms[k.name]
		if m == nil {
			m = map[string]HistogramSnapshot{}
			s.Histograms[k.name] = m
		}
		m[k.labels] = snapHistogram(k, h)
	}
	return s
}

// Histogram returns a snapshot of one histogram series (Count 0 when the
// series does not exist yet).
func (r *Registry) Histogram(name string, labels ...Tag) HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := r.key(name, labels)
	h, ok := r.hist[k]
	if !ok {
		return HistogramSnapshot{Name: name, Labels: k.labels}
	}
	return snapHistogram(k, h)
}

func snapHistogram(k metricKey, h *histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   k.name,
		Labels: k.labels,
		Bounds: append([]float64(nil), h.buckets...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum,
		Count:  h.count,
		Min:    h.min,
		Max:    h.max,
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		s.Counts[i] = cum
	}
	return s
}

// WritePrometheus renders every series in the Prometheus text exposition
// format, version 0.0.4: `# HELP` and `# TYPE` headers per metric family,
// histogram series expanded into cumulative `_bucket{le=...}`, `_sum` and
// `_count`. Families appear in declaration order, series within a family
// in first-publication order, so successive scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.order {
		d := r.decls[name]
		if d.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(d.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, d.typ)
		for _, k := range r.series[name] {
			switch d.typ {
			case "counter":
				fmt.Fprintf(bw, "%s%s %s\n", name, braced(k.labels), fmtFloat(r.counter[k]))
			case "gauge":
				fmt.Fprintf(bw, "%s%s %s\n", name, braced(k.labels), fmtFloat(r.gauge[k]))
			case "histogram":
				h := r.hist[k]
				var cum uint64
				for i, bound := range h.buckets {
					cum += h.counts[i]
					fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
						braced(joinLabels(k.labels, `le="`+fmtFloat(bound)+`"`)), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
					braced(joinLabels(k.labels, `le="+Inf"`)), h.count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", name, braced(k.labels), fmtFloat(h.sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", name, braced(k.labels), h.count)
			}
		}
	}
	return bw.Flush()
}

// renderLabels canonicalizes a label set: sorted by key, values escaped
// per the exposition format. Returns "" for no labels.
func renderLabels(labels []Tag) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Tag(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtFloat renders a sample value the way Prometheus clients do: shortest
// round-trip representation, integers without a trailing ".0".
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
