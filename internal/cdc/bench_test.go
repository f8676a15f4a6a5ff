package cdc

import (
	"math/rand"
	"testing"
)

// BenchmarkChunker measures single-core chunking throughput; b.SetBytes
// makes `go test -bench` report MB/s, which TestChunkerThroughputFloor
// holds at 500 or more.
func BenchmarkChunker(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 16<<20)
	rng.Read(data)
	var cfg Config
	if err := cfg.Normalize(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := 0
		for off < len(data) {
			off += Cut(data[off:], &cfg)
		}
	}
}
