//go:build !race

package cdc

import "testing"

// TestChunkerThroughputFloor holds single-core chunking of random data
// (BenchmarkChunker's input) at 500 MB/s or more. The race detector
// slows Cut several-fold, so builds with it skip this file.
func TestChunkerThroughputFloor(t *testing.T) {
	const floor = 500
	r := testing.Benchmark(BenchmarkChunker)
	if r.N == 0 {
		t.Fatal("BenchmarkChunker failed")
	}
	mbps := float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	if mbps < floor {
		t.Fatalf("chunker: %.0f MB/s, want >= %d", mbps, floor)
	}
	t.Logf("chunker: %.0f MB/s", mbps)
}
