package history

import (
	"repro/internal/obs"
)

// digestBoundsMS are the fixed bucket upper bounds (milliseconds) every
// Digest uses: log-spaced from 10µs to one minute, covering the observed
// range from sub-millisecond cache hits to multi-second checksum
// compiles. A digest's Counts are read against these bounds, which every
// Snapshot carries as digest_bounds_ms, so changing them changes
// SnapshotSchema.
var digestBoundsMS = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
	100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000,
}

// Digest is a bounded-memory latency/work sketch: a fixed-bucket
// histogram with tracked extremes, good for p50/p95/max estimation and
// cheap to serve (one small JSON array). The zero value is ready to use.
type Digest struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Counts[i] is the number of observations ≤ digestBoundsMS[i]
	// (exclusive of earlier buckets); the final slot is the +Inf overflow.
	Counts []uint64 `json:"counts,omitempty"`
}

// Observe records one value (milliseconds for latency digests).
func (d *Digest) Observe(v float64) {
	if len(d.Counts) != len(digestBoundsMS)+1 {
		d.Counts = make([]uint64, len(digestBoundsMS)+1)
	}
	i := 0
	for i < len(digestBoundsMS) && digestBoundsMS[i] < v {
		i++
	}
	d.Counts[i]++
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean is the mean observation, 0 on an empty digest.
func (d Digest) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Quantile estimates the q-quantile by linear interpolation within the
// holding bucket, clamped to the tracked extremes (the same estimator as
// obs.HistogramSnapshot). Returns 0 on an empty digest so JSON views
// stay finite.
func (d Digest) Quantile(q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	snap := obs.HistogramSnapshot{
		Bounds: digestBoundsMS,
		Counts: make([]uint64, len(d.Counts)),
		Sum:    d.Sum, Count: d.Count, Min: d.Min, Max: d.Max,
	}
	if len(d.Counts) != len(digestBoundsMS)+1 {
		return d.Max
	}
	var cum uint64
	for i, c := range d.Counts {
		cum += c
		snap.Counts[i] = cum
	}
	return snap.Quantile(q)
}

// clone returns an independent copy (Counts is shared-nothing).
func (d Digest) clone() Digest {
	c := d
	c.Counts = append([]uint64(nil), d.Counts...)
	return c
}
