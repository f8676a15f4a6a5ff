package workload

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/stats"
	"repro/internal/zlog"
)

// AppendSweepConfig parameterizes the batched-client append sweep that
// extends Figures 6/7 end to end: instead of measuring the sequencer in
// isolation, it measures whole ZLog appends (sequencer range + striped
// object writes) per batch size.
type AppendSweepConfig struct {
	Batches  []int         // batch sizes to sweep; 1 means serial Append
	Duration time.Duration // measurement window per batch size
	Policy   mds.CapPolicy // sequencer capability policy
}

// appendSweepLatency is the sweep's simulated fabric latency: it is what
// makes the pipelining visible, as in the paper's cluster.
const appendSweepLatency = 200 * time.Microsecond

// AppendSweepPoint is one batch-size measurement: entry throughput and
// per-entry latency (a batch's dispatch latency amortized over its
// entries).
type AppendSweepPoint struct {
	Batch      int
	Entries    int
	Throughput float64 // entries/s
	MeanLatUs  float64
	P99Us      float64
	Latency    *stats.Histogram
}

// RunAppendSweep boots one cluster per batch size and drives a single
// client through serial Append (batch 1) or AppendBatch, recording
// per-entry amortized latency.
func RunAppendSweep(ctx context.Context, cfg AppendSweepConfig) ([]AppendSweepPoint, error) {
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{1, 8, 64}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	var out []AppendSweepPoint
	for _, batch := range cfg.Batches {
		p, err := runAppendPoint(ctx, cfg, batch)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func runAppendPoint(ctx context.Context, cfg AppendSweepConfig, batch int) (AppendSweepPoint, error) {
	cluster, err := core.Boot(ctx, core.Options{
		MDSs: 1, OSDs: 3, Pools: []string{"zlog"}, Replicas: 2,
		NetLatency: appendSweepLatency,
	})
	if err != nil {
		return AppendSweepPoint{}, err
	}
	defer cluster.Stop()

	l, err := zlog.Open(ctx, cluster.Net, "client.sweep", cluster.MonIDs(), zlog.Options{
		Name: "sweep", Pool: "zlog", SeqPolicy: cfg.Policy,
	})
	if err != nil {
		return AppendSweepPoint{}, err
	}
	defer l.Close()

	payload := []byte("append-sweep-entry")
	entries := make([][]byte, batch)
	for i := range entries {
		entries[i] = payload
	}

	hist := stats.NewHistogram()
	total := 0
	start := time.Now()
	stopAt := start.Add(cfg.Duration)
	for time.Now().Before(stopAt) {
		t0 := time.Now()
		if batch == 1 {
			_, err = l.Append(ctx, payload)
		} else {
			_, err = l.AppendBatch(ctx, entries)
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			continue
		}
		perEntry := time.Since(t0) / time.Duration(batch)
		for i := 0; i < batch; i++ {
			hist.AddDuration(perEntry)
		}
		total += batch
	}
	elapsed := time.Since(start)
	return AppendSweepPoint{
		Batch:      batch,
		Entries:    total,
		Throughput: float64(total) / elapsed.Seconds(),
		MeanLatUs:  hist.Mean(),
		P99Us:      hist.Percentile(99),
		Latency:    hist,
	}, nil
}
