// Package stats provides the measurement primitives the benchmark
// harness uses to regenerate the paper's figures: latency histograms
// with percentiles and CDFs (Figures 7 and 8), and bucketed time series
// for throughput-over-time plots (Figures 9 and 12).
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram collects samples and answers percentile/CDF queries. It is
// safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// AddDuration records a duration in microseconds, the latency unit the
// paper reports.
func (h *Histogram) AddDuration(d time.Duration) {
	h.Add(float64(d.Microseconds()))
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by linear
// interpolation; NaN when empty.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return math.NaN()
	}
	h.sortLocked()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Mean returns the arithmetic mean; NaN when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Max returns the largest sample; NaN when empty.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Summary renders count/mean/percentiles on one line.
func (h *Histogram) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p90=%.1f%s p99=%.1f%s max=%.1f%s",
		h.Count(), h.Mean(), unit, h.Percentile(50), unit,
		h.Percentile(90), unit, h.Percentile(99), unit, h.Max(), unit)
}

// TimeSeries buckets event counts by elapsed time, yielding
// throughput-over-time curves.
type TimeSeries struct {
	mu     sync.Mutex
	start  time.Time
	width  time.Duration
	counts []float64
}

// NewTimeSeries starts a series at now with the given bucket width.
func NewTimeSeries(width time.Duration) *TimeSeries {
	return &TimeSeries{start: time.Now(), width: width}
}

// Record adds weight to the bucket containing time t.
func (ts *TimeSeries) Record(t time.Time, weight float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t.Before(ts.start) {
		return
	}
	idx := int(t.Sub(ts.start) / ts.width)
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
	}
	ts.counts[idx] += weight
}

// Rates converts bucket counts to per-second rates.
func (ts *TimeSeries) Rates() []float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]float64, len(ts.counts))
	perSec := float64(time.Second) / float64(ts.width)
	for i, c := range ts.counts {
		out[i] = c * perSec
	}
	return out
}

// BucketWidth returns the configured width.
func (ts *TimeSeries) BucketWidth() time.Duration {
	return ts.width
}
