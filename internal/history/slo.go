package history

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// The live SLO view: two rolling objectives computed over a sliding
// window of served compile requests —
//
//   - availability: the fraction of requests that did not fail on the
//     server's account (5xx-class outcomes: panics, timeouts, saturation
//     rejects; a client's unparseable program is not an outage), and
//   - latency: "p95 ≤ objective", tracked as the fraction of requests
//     slower than the objective against the 5% the objective allows.
//
// Each objective reports a burn rate — observed bad fraction divided by
// the budget the objective leaves (1-availability, resp. 5%). Burn 1.0
// means the error budget is being consumed exactly as fast as it
// accrues; sustained burn above 1 means the objective will be missed.
// The tracker is bucketed (fixed ring, one Digest per bucket), so memory
// is constant regardless of traffic.

// Default SLO parameters, used when the config leaves them zero.
const (
	DefaultAvailabilityObjective = 0.999
	DefaultLatencyObjectiveMS    = 2000
	DefaultSLOWindow             = time.Hour
	sloBuckets                   = 60
)

// SLOConfig configures the rolling objectives.
type SLOConfig struct {
	// Availability is the availability objective (e.g. 0.999).
	Availability float64
	// LatencyP95MS is the p95 latency objective in milliseconds.
	LatencyP95MS float64
	// Window is the rolling evaluation window.
	Window time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = DefaultAvailabilityObjective
	}
	if c.LatencyP95MS <= 0 {
		c.LatencyP95MS = DefaultLatencyObjectiveMS
	}
	if c.Window <= 0 {
		c.Window = DefaultSLOWindow
	}
	return c
}

// sloBucket is one granule of the rolling window.
type sloBucket struct {
	epoch    int64 // bucket start, in units of granule
	requests uint64
	failures uint64
	slow     uint64
	lat      Digest
}

// SLOTracker accumulates request outcomes into a fixed ring of time
// buckets. Goroutine-safe; the zero value is not usable, call
// NewSLOTracker.
type SLOTracker struct {
	mu      sync.Mutex
	cfg     SLOConfig
	granule time.Duration
	ring    [sloBuckets]sloBucket
}

// NewSLOTracker returns a tracker with the given objectives (defaults
// filled in).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	return &SLOTracker{cfg: cfg, granule: cfg.Window / sloBuckets}
}

// Config returns the effective objectives.
func (t *SLOTracker) Config() SLOConfig { return t.cfg }

// Record folds one served request into the window: whether the service
// answered it (ok=false only for server-account failures) and how long
// it took.
func (t *SLOTracker) Record(ok bool, latencyMS float64, at time.Time) {
	if t == nil {
		return
	}
	epoch := at.UnixNano() / int64(t.granule)
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.ring[int(epoch%sloBuckets+sloBuckets)%sloBuckets]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.requests++
	if !ok {
		b.failures++
	}
	if latencyMS > t.cfg.LatencyP95MS {
		b.slow++
	}
	b.lat.Observe(latencyMS)
}

// SLOStatus is the point-in-time evaluation served on /debug/slo and
// exported as denali_slo_* gauges.
type SLOStatus struct {
	WindowSeconds float64 `json:"window_seconds"`
	Requests      uint64  `json:"requests"`
	Failures      uint64  `json:"failures"`

	Availability          float64 `json:"availability"`
	AvailabilityObjective float64 `json:"availability_objective"`
	// AvailabilityBurn is failure-rate / (1 - objective).
	AvailabilityBurn float64 `json:"availability_burn_rate"`

	LatencyP95MS       float64 `json:"latency_p95_ms"`
	LatencyObjectiveMS float64 `json:"latency_objective_ms"`
	SlowRequests       uint64  `json:"slow_requests"`
	// LatencyBurn is slow-fraction / 0.05 (the share a p95 objective
	// allows above the threshold).
	LatencyBurn float64 `json:"latency_burn_rate"`
}

// Status evaluates the objectives over the window ending at now. An
// empty window reports availability 1 and burn 0 — no traffic is not an
// outage.
func (t *SLOTracker) Status(now time.Time) SLOStatus {
	st := SLOStatus{
		AvailabilityObjective: t.cfg.Availability,
		LatencyObjectiveMS:    t.cfg.LatencyP95MS,
		WindowSeconds:         t.cfg.Window.Seconds(),
		Availability:          1,
	}
	if t == nil {
		return st
	}
	epoch := now.UnixNano() / int64(t.granule)
	oldest := epoch - sloBuckets + 1
	var lat Digest
	t.mu.Lock()
	for i := range t.ring {
		b := &t.ring[i]
		if b.epoch < oldest || b.epoch > epoch || b.requests == 0 {
			continue
		}
		st.Requests += b.requests
		st.Failures += b.failures
		st.SlowRequests += b.slow
		lat.Merge(b.lat)
	}
	t.mu.Unlock()
	if st.Requests == 0 {
		return st
	}
	st.Availability = 1 - float64(st.Failures)/float64(st.Requests)
	st.AvailabilityBurn = (float64(st.Failures) / float64(st.Requests)) / (1 - t.cfg.Availability)
	st.LatencyP95MS = lat.Quantile(0.95)
	st.LatencyBurn = (float64(st.SlowRequests) / float64(st.Requests)) / 0.05
	return st
}

// RecordRequest records one served request at the warehouse clock.
func (w *Warehouse) RecordRequest(ok bool, latencyMS float64) {
	if w == nil {
		return
	}
	w.slo.Record(ok, latencyMS, w.now())
}

// SLOStatus evaluates the objectives at the warehouse clock.
func (w *Warehouse) SLOStatus() SLOStatus {
	if w == nil {
		return SLOStatus{Availability: 1}
	}
	return w.slo.Status(w.now())
}

// denali_slo_* metric families, published from the warehouse onto the
// service registry so scrapes see the objectives next to the raw
// counters they summarize.
const (
	MSLOAvailability          = "denali_slo_availability"
	MSLOAvailabilityObjective = "denali_slo_availability_objective"
	MSLOAvailabilityBurn      = "denali_slo_availability_burn_rate"
	MSLOLatencyP95            = "denali_slo_latency_p95_seconds"
	MSLOLatencyObjective      = "denali_slo_latency_objective_seconds"
	MSLOLatencyBurn           = "denali_slo_latency_burn_rate"
	MSLOWindow                = "denali_slo_window_seconds"
	MSLORequests              = "denali_slo_window_requests"
)

// DeclareSLOMetrics pre-declares the denali_slo_* gauges on a registry.
func DeclareSLOMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.DeclareGauge(MSLOAvailability, "Rolling availability over the SLO window (1 = no server-account failures).")
	r.DeclareGauge(MSLOAvailabilityObjective, "Configured availability objective.")
	r.DeclareGauge(MSLOAvailabilityBurn, "Availability error-budget burn rate (1 = burning exactly the budget).")
	r.DeclareGauge(MSLOLatencyP95, "Rolling p95 compile-request latency over the SLO window.")
	r.DeclareGauge(MSLOLatencyObjective, "Configured p95 latency objective.")
	r.DeclareGauge(MSLOLatencyBurn, "Latency error-budget burn rate (share of slow requests against the 5% a p95 objective allows).")
	r.DeclareGauge(MSLOWindow, "SLO evaluation window length.")
	r.DeclareGauge(MSLORequests, "Requests inside the current SLO window.")
}

// PublishSLO refreshes the denali_slo_* gauges from the current window;
// servers call it at scrape time.
func (w *Warehouse) PublishSLO(sink *obs.Sink) {
	if w == nil || sink == nil {
		return
	}
	st := w.SLOStatus()
	sink.Set(MSLOAvailability, st.Availability)
	sink.Set(MSLOAvailabilityObjective, st.AvailabilityObjective)
	sink.Set(MSLOAvailabilityBurn, st.AvailabilityBurn)
	sink.Set(MSLOLatencyP95, st.LatencyP95MS/1e3)
	sink.Set(MSLOLatencyObjective, st.LatencyObjectiveMS/1e3)
	sink.Set(MSLOLatencyBurn, st.LatencyBurn)
	sink.Set(MSLOWindow, st.WindowSeconds)
	sink.Set(MSLORequests, float64(st.Requests))
}
