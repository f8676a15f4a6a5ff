// Dedup data-path benchmarks (PR-8). BenchmarkWriteFlat and
// BenchmarkWriteDeduped push the same duplicate-bearing corpora through
// the flat WriteFull path and the content-addressed manifest path; each
// reports the payload bytes the cluster had to move per iteration as
// custom metrics, and cmd/benchjson derives dedup_ratio_{25,50,75} =
// flat wire bytes / deduped wire bytes from the pair. The PR-8
// acceptance pins the 50%-dup corpus at wire bytes <= 0.6x flat, i.e.
// dedup_ratio_50 >= 1.667.
package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/workload"
)

// dedupBenchWindow is the logical object size both write paths store.
const dedupBenchWindow = 256 << 10

// dedupBenchCorpus builds the deterministic benchmark corpus for one
// duplicate ratio. Segments are larger than the max chunk size so the
// chunker sees genuine repeats, and the corpus spans many windows so
// later objects dedup against blocks earlier ones stored.
func dedupBenchCorpus(ratio float64) []byte {
	return workload.GenerateDupCorpus(1, workload.DupCorpusConfig{
		Size:        4 << 20,
		DupRatio:    ratio,
		SegmentSize: 128 << 10,
	})
}

// dedupBenchChunking keeps chunks small relative to the 64 KiB segment
// so duplicate segments resolve to duplicate blocks.
func dedupBenchChunking() *cdc.Config {
	return &cdc.Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2}
}

func dedupBenchCluster(b *testing.B) (*core.Cluster, *rados.Client) {
	b.Helper()
	cluster := bootB(b, core.Options{
		OSDs: 2, Pools: []string{"data"}, Replicas: 1,
		// Keep background reclamation out of the timed region; the
		// benchmark sweeps explicitly between iterations.
		OSD: rados.OSDConfig{GCInterval: time.Hour, GCGrace: time.Hour},
	})
	rc := cluster.NewRadosClient("client.dedupbench")
	if err := rc.RefreshMap(context.Background()); err != nil {
		b.Fatal(err)
	}
	return cluster, rc
}

// dedupBenchReset removes every object one iteration wrote and reclaims
// the orphaned blocks, so each iteration measures a cold store.
func dedupBenchReset(b *testing.B, cluster *core.Cluster, rc *rados.Client, objects int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < objects; i++ {
		if err := rc.Remove(ctx, "data", fmt.Sprintf("bench-doc%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	for {
		reclaimed := 0
		for _, o := range cluster.OSDs {
			_, n := o.SweepBlocks(0)
			reclaimed += n
		}
		if reclaimed == 0 {
			return
		}
	}
}

// BenchmarkWriteFlat stores each corpus window with a plain replicated
// WriteFull — the baseline the dedup ratio divides. Wire bytes per op
// is simply the logical payload, independent of duplicate ratio, so one
// corpus suffices.
func BenchmarkWriteFlat(b *testing.B) {
	cluster, rc := dedupBenchCluster(b)
	ctx := context.Background()
	corpus := dedupBenchCorpus(0.50)
	windows := len(corpus) / dedupBenchWindow
	var wire int64
	b.SetBytes(int64(len(corpus)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < windows; w++ {
			data := corpus[w*dedupBenchWindow : (w+1)*dedupBenchWindow]
			if err := rc.WriteFull(ctx, "data", fmt.Sprintf("bench-doc%d", w), data); err != nil {
				b.Fatal(err)
			}
			wire += int64(len(data))
		}
		b.StopTimer()
		dedupBenchReset(b, cluster, rc, windows)
		b.StartTimer()
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire_B/op")
	b.ReportMetric(float64(wire)/float64(b.N), "stored_B/op")
}

func benchWriteDeduped(b *testing.B, ratio float64) {
	cluster, rc := dedupBenchCluster(b)
	ctx := context.Background()
	corpus := dedupBenchCorpus(ratio)
	cfg := dedupBenchChunking()
	windows := len(corpus) / dedupBenchWindow
	var wire, stored int64
	b.SetBytes(int64(len(corpus)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < windows; w++ {
			data := corpus[w*dedupBenchWindow : (w+1)*dedupBenchWindow]
			st, err := rc.WriteDeduped(ctx, "data", fmt.Sprintf("bench-doc%d", w), data, cfg)
			if err != nil {
				b.Fatal(err)
			}
			wire += int64(st.WireBytes)
			stored += int64(st.StoredBytes)
		}
		b.StopTimer()
		dedupBenchReset(b, cluster, rc, windows)
		b.StartTimer()
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire_B/op")
	b.ReportMetric(float64(stored)/float64(b.N), "stored_B/op")
}

func BenchmarkWriteDeduped(b *testing.B) {
	b.Run("dup25", func(b *testing.B) { benchWriteDeduped(b, 0.25) })
	b.Run("dup50", func(b *testing.B) { benchWriteDeduped(b, 0.50) })
	b.Run("dup75", func(b *testing.B) { benchWriteDeduped(b, 0.75) })
}
