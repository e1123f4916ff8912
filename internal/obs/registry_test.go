package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	r.DeclareHistogram("h", "test", []float64{1, 2, 5})
	// An observation exactly at a bound belongs to that bucket (le is ≤).
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 100} {
		r.Observe("h", v)
	}
	s := r.Histogram("h")
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	// Cumulative: ≤1 holds {0.5, 1}; ≤2 adds {1.5, 2}; ≤5 adds {5};
	// +Inf adds {100}.
	wantCum := []uint64{2, 4, 5, 6}
	for i, want := range wantCum {
		if s.Counts[i] != want {
			t.Errorf("cumulative count[%d] = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Counts[len(s.Counts)-1] != s.Count {
		t.Errorf("+Inf bucket %d != count %d", s.Counts[len(s.Counts)-1], s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 5 + 100; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %g/%g, want 0.5/100", s.Min, s.Max)
	}
}

func TestHistogramSumCountInvariants(t *testing.T) {
	r := NewRegistry()
	r.DeclareHistogram("h", "test", []float64{10, 20})
	var wantSum float64
	for i := 0; i < 1000; i++ {
		v := float64(i % 30)
		wantSum += v
		r.Observe("h", v)
	}
	s := r.Histogram("h")
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
	// The cumulative counts must be monotone and end at Count.
	for i := 1; i < len(s.Counts); i++ {
		if s.Counts[i] < s.Counts[i-1] {
			t.Errorf("cumulative counts not monotone at %d: %v", i, s.Counts)
		}
	}
	if s.Counts[len(s.Counts)-1] != s.Count {
		t.Errorf("+Inf bucket %d != count %d", s.Counts[len(s.Counts)-1], s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	r.DeclareHistogram("h", "test", []float64{10, 20, 30, 40})
	// 100 uniform observations in (0, 40]: ranks interpolate linearly.
	for i := 1; i <= 100; i++ {
		r.Observe("h", float64(i)*0.4)
	}
	s := r.Histogram("h")
	// p50 rank = 50 of 100; 25 observations per bucket, so the rank sits
	// at the boundary of the second bucket: interpolation gives 20.
	if got := s.Quantile(0.5); math.Abs(got-20) > 1e-9 {
		t.Errorf("p50 = %g, want 20", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-38) > 1e-9 {
		t.Errorf("p95 = %g, want 38", got)
	}
	// The estimate clamps to the tracked extremes: p0 is the smallest
	// actual observation, not the interpolated bucket floor.
	if got := s.Quantile(0); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("p0 = %g, want 0.4 (min observation)", got)
	}
	if got := s.Quantile(0.999); got > s.Max {
		t.Errorf("p99.9 = %g overshoots max %g", got, s.Max)
	}
	if got := s.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Errorf("p100 = %g, want 40", got)
	}
}

func TestHistogramQuantileInfBucket(t *testing.T) {
	r := NewRegistry()
	r.DeclareHistogram("h", "test", []float64{1})
	r.Observe("h", 0.5)
	r.Observe("h", 50) // lands in +Inf
	s := r.Histogram("h")
	// A rank inside +Inf has no finite bound: the estimate is the max
	// observation (more honest than the highest finite bound here).
	if got := s.Quantile(0.99); got != 50 {
		t.Errorf("p99 = %g, want 50 (max observed)", got)
	}
	empty := r.Histogram("nope")
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Errorf("quantile of empty histogram should be NaN")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.DeclareCounter("denali_compiles_total", "Finished compilations.")
	r.DeclareGauge("denali_inflight", "In-flight work.")
	r.DeclareHistogram("denali_compile_seconds", "Compile latency.", []float64{0.1, 1})
	r.Add("denali_compiles_total", 3, T("strategy", "linear"))
	r.Add("denali_compiles_total", 2, T("strategy", "parallel"))
	r.Set("denali_inflight", 7)
	r.Observe("denali_compile_seconds", 0.05)
	r.Observe("denali_compile_seconds", 0.5)
	r.Observe("denali_compile_seconds", 2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP denali_compiles_total Finished compilations.",
		"# TYPE denali_compiles_total counter",
		`denali_compiles_total{strategy="linear"} 3`,
		`denali_compiles_total{strategy="parallel"} 2`,
		"# TYPE denali_inflight gauge",
		"denali_inflight 7",
		"# TYPE denali_compile_seconds histogram",
		`denali_compile_seconds_bucket{le="0.1"} 1`,
		`denali_compile_seconds_bucket{le="1"} 2`,
		`denali_compile_seconds_bucket{le="+Inf"} 3`,
		"denali_compile_seconds_sum 2.55",
		"denali_compile_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exposition format: every non-comment line is `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 1, T("err", "a\"b\\c\nd"))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `c{err="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func TestCountersMonotoneAndLabelled(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 5)
	r.Add("c", -3) // dropped: counters are monotone
	r.Add("c", 2)
	if got := r.CounterValue("c"); got != 7 {
		t.Errorf("counter = %g, want 7", got)
	}
	// Label order must not split series.
	r.Add("d", 1, T("a", "1"), T("b", "2"))
	r.Add("d", 1, T("b", "2"), T("a", "1"))
	if got := r.CounterValue("d", T("a", "1"), T("b", "2")); got != 2 {
		t.Errorf("labelled counter = %g, want 2 (label order split the series)", got)
	}
}

func TestSinkNilSafety(t *testing.T) {
	var sk *Sink
	sk.Add("c", 1)
	sk.Set("g", 2)
	sk.Observe("h", 3)
}

// TestRegistryConcurrent hammers one registry from many goroutines while
// scrapes run concurrently; correctness of the totals proves no lost
// updates and the -race gate proves memory safety.
func TestRegistryConcurrent(t *testing.T) {
	r := NewCompilerRegistry()
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add(MCompiles, 1, T("strategy", "linear"))
				r.Observe(MCompileSeconds, float64(i)*0.001)
				r.Set(MSimCycles+"_gauge", float64(w))
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue(MCompiles, T("strategy", "linear")); got != workers*perWorker {
		t.Errorf("lost counter updates: %g, want %d", got, workers*perWorker)
	}
	h := r.Histogram(MCompileSeconds)
	if h.Count != workers*perWorker {
		t.Errorf("lost observations: %d, want %d", h.Count, workers*perWorker)
	}
	if h.Counts[len(h.Counts)-1] != h.Count {
		t.Errorf("+Inf bucket %d != count %d after concurrency", h.Counts[len(h.Counts)-1], h.Count)
	}
}
