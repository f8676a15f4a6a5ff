//go:build !race

package wal

import "testing"

// TestReplayThroughputFloor holds recovery (BenchmarkWALReplay: open a
// 4 MiB log of 1 KiB records and replay every record) at 100 MB/s or
// more. The race detector slows the frame scan several-fold, so builds
// with it skip this file.
func TestReplayThroughputFloor(t *testing.T) {
	const floor = 100
	r := testing.Benchmark(BenchmarkWALReplay)
	if r.N == 0 {
		t.Fatal("BenchmarkWALReplay failed")
	}
	mbps := float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	if mbps < floor {
		t.Fatalf("replay: %.0f MB/s, want >= %d", mbps, floor)
	}
	t.Logf("replay: %.0f MB/s", mbps)
}
