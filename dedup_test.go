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

// TestDedupWireBytesHalfDuplicateCorpus pins what deduplication saves
// on the wire: one client writes the 4 MiB 50%-duplicate corpus as
// sixteen 256 KiB objects and must ship at most 0.6x the flat bytes,
// counted as DedupStats.WireBytes (new block contents plus manifests).
// Corpus, chunking and cluster are fixed, so the sum is an exact count;
// it was 2,316,343 bytes (0.552x) when this test was written. Writing
// every block without asking which ones the cluster holds ships the
// whole corpus and fails.
func TestDedupWireBytesHalfDuplicateCorpus(t *testing.T) {
	const window = 256 << 10
	corpus := workload.GenerateDupCorpus(1, workload.DupCorpusConfig{
		Size:        4 << 20,
		DupRatio:    0.50,
		SegmentSize: 128 << 10,
	})
	// Chunks well below the segment size, so duplicate segments resolve
	// to duplicate blocks.
	chunking := &cdc.Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := core.Boot(ctx, core.Options{
		OSDs: 2, Pools: []string{"data"}, Replicas: 1,
		// No background sweep: a block reclaimed mid-run would be shipped
		// again and make the count depend on timing.
		OSD: rados.OSDConfig{GCInterval: time.Hour, GCGrace: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	rc := cluster.NewRadosClient("client.dedup")

	wire := 0
	for w := 0; w < len(corpus)/window; w++ {
		st, err := rc.WriteDeduped(ctx, "data", fmt.Sprintf("doc%d", w), corpus[w*window:(w+1)*window], chunking)
		if err != nil {
			t.Fatal(err)
		}
		wire += st.WireBytes
	}
	ratio := float64(wire) / float64(len(corpus))
	if wire*10 > len(corpus)*6 {
		t.Fatalf("deduped writes shipped %d of %d flat bytes (%.3fx), want <= 0.6x", wire, len(corpus), ratio)
	}
	t.Logf("deduped writes shipped %d of %d flat bytes (%.3fx)", wire, len(corpus), ratio)
}
