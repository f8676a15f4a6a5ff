package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {50, 50.5}, {100, 100},
	}
	for _, tc := range cases {
		if got := h.Percentile(tc.p); math.Abs(got-tc.want) > 0.01 {
			t.Errorf("P%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if h.Percentile(0) != 1 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v", h.Percentile(0), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Percentile(50)) || !math.IsNaN(h.Mean()) {
		t.Fatal("empty histogram should answer NaN")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("P%v = %v", p, got)
		}
	}
}

func TestHistogramConcurrentAdd(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Add(float64(j))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestAddDurationUsesMicroseconds(t *testing.T) {
	h := NewHistogram()
	h.AddDuration(1500 * time.Microsecond)
	if got := h.Max(); got != 1500 {
		t.Fatalf("got %v, want 1500", got)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	base := ts.start
	ts.Record(base.Add(10*time.Millisecond), 1)
	ts.Record(base.Add(20*time.Millisecond), 1)
	ts.Record(base.Add(150*time.Millisecond), 1)
	rates := ts.Rates()
	if len(rates) != 2 {
		t.Fatalf("buckets = %d", len(rates))
	}
	// Two events in a 0.1 s bucket → 20 events/s.
	if rates[0] != 20 || rates[1] != 10 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestTimeSeriesIgnoresPreStart(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Record(ts.start.Add(-time.Second), 1)
	if len(ts.Rates()) != 0 {
		t.Fatal("pre-start sample recorded")
	}
}

func TestPropPercentileWithinRange(t *testing.T) {
	f := func(vals []float64, p uint8) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range clean {
			h.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		got := h.Percentile(float64(p % 101))
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPercentileMonotoneInP(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Add(float64(v))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
