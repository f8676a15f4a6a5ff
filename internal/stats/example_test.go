package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExampleHistogram shows the percentile queries the figure harness
// reports.
func ExampleHistogram() {
	h := stats.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	fmt.Printf("P50=%.1f P99=%.1f max=%.0f n=%d\n",
		h.Percentile(50), h.Percentile(99), h.Max(), h.Count())
	// Output:
	// P50=500.5 P99=990.0 max=1000 n=1000
}
