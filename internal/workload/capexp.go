// Package workload contains the experiment drivers that regenerate the
// paper's evaluation (Section 6): the sequencer capability experiments
// (Figures 5-7), interface propagation (Figure 8), and the load
// balancing experiments (Figures 9, 10, 12, and the §6.2.3 backoff
// study). cmd/figures and the root benchmark suite both run these.
package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/stats"
)

// CapConfig parameterizes the Figures 5-7 sequencer experiments.
type CapConfig struct {
	Clients  int           // contending clients (paper: 2)
	Duration time.Duration // measurement window per configuration
	Policy   mds.CapPolicy // capability hand-off policy under test
}

// capThinkTime is the per-operation client-side work (obtaining a log
// position is followed by the actual log I/O in CORFU); it bounds a
// client's local op rate the way real append work does.
const capThinkTime = 20 * time.Microsecond

// pacer charges virtual per-op client time, amortized over the sleep
// granularity the same way the MDS CPU model does.
type pacer struct{ debt time.Duration }

func (p *pacer) pay(d time.Duration) {
	p.debt += d
	if p.debt >= time.Millisecond {
		t0 := time.Now()
		time.Sleep(p.debt)
		p.debt -= time.Since(t0)
	}
}

// OpRecord is one timestamped sequencer operation (Figure 5's dots).
type OpRecord struct {
	Client  int
	Offset  time.Duration // since experiment start
	Value   uint64
	Latency time.Duration
}

// CapResult is the outcome of one capability experiment.
type CapResult struct {
	Ops        []OpRecord
	Throughput float64            // total ops/s
	Latency    *stats.Histogram   // all ops, microseconds
	PerClient  []*stats.Histogram // per-client latency, microseconds
}

// RunCapExperiment boots a one-MDS cluster and drives Clients concurrent
// clients against a single sequencer inode under the given policy,
// recording every operation.
func RunCapExperiment(ctx context.Context, cfg CapConfig) (*CapResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	cluster, err := core.Boot(ctx, core.Options{
		MDSs: 1, OSDs: 2,
		// Capability exchange (recall, release, re-grant) costs real
		// metadata-server work; this is what makes best-effort — which
		// redistributes constantly — the worst configuration, as in the
		// paper's Figure 6.
		MDS: mds.Config{HandleTime: time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	const path = "/zlog/capexp/seq"
	setup := cluster.NewMDSClient("client.setup")
	if err := setup.Start(ctx); err != nil {
		return nil, err
	}
	defer setup.Stop()
	if err := setup.Open(ctx, path, mds.TypeSequencer, &cfg.Policy); err != nil {
		return nil, err
	}

	res := &CapResult{Latency: stats.NewHistogram()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(cfg.Duration)

	for i := 0; i < cfg.Clients; i++ {
		cl := cluster.NewMDSClient(fmt.Sprintf("client.cap%d", i))
		if err := cl.Start(ctx); err != nil {
			return nil, err
		}
		defer cl.Stop()
		hist := stats.NewHistogram()
		res.PerClient = append(res.PerClient, hist)
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pace pacer
			for time.Now().Before(stopAt) {
				t0 := time.Now()
				v, err := cl.Next(ctx, path)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					continue
				}
				lat := time.Since(t0)
				pace.pay(capThinkTime)
				hist.AddDuration(lat)
				res.Latency.AddDuration(lat)
				mu.Lock()
				res.Ops = append(res.Ops, OpRecord{
					Client: i, Offset: t0.Sub(start), Value: v, Latency: lat,
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Throughput = float64(len(res.Ops)) / cfg.Duration.Seconds()
	return res, nil
}

// InterleaveProfile summarizes a Figure 5 trace: how often ownership of
// the sequencer switches between clients and the mean run length.
type InterleaveProfile struct {
	Switches   int
	MeanRunLen float64
	MaxRunLen  int
}

// Interleaving computes the ownership profile of a trace, ordering ops
// by assigned value (the sequencer's total order).
func Interleaving(ops []OpRecord) InterleaveProfile {
	if len(ops) == 0 {
		return InterleaveProfile{}
	}
	byValue := make([]OpRecord, len(ops))
	copy(byValue, ops)
	// Values are unique; simple insertion-friendly sort.
	sortOps(byValue)
	p := InterleaveProfile{MaxRunLen: 1}
	run := 1
	runs := 0
	for i := 1; i < len(byValue); i++ {
		if byValue[i].Client == byValue[i-1].Client {
			run++
			if run > p.MaxRunLen {
				p.MaxRunLen = run
			}
		} else {
			p.Switches++
			runs++
			run = 1
		}
	}
	runs++
	p.MeanRunLen = float64(len(byValue)) / float64(runs)
	return p
}

func sortOps(ops []OpRecord) {
	// Standard sort; kept local to avoid importing sort at every site.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].Value < ops[j-1].Value; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}

// QuotaSweepPoint is one row of Figure 6.
type QuotaSweepPoint struct {
	Quota      int
	Throughput float64 // ops/s
	MeanLatUs  float64
	P99Us      float64
	PerClient  []*stats.Histogram
}

// RunQuotaSweep reproduces Figure 6/7: two clients, a fixed maximum
// reservation (paper: 0.25 s), and a sweep over the log-position quota.
func RunQuotaSweep(ctx context.Context, quotas []int, reservation, durPer time.Duration) ([]QuotaSweepPoint, error) {
	var out []QuotaSweepPoint
	for _, q := range quotas {
		res, err := RunCapExperiment(ctx, CapConfig{
			Clients:  2,
			Duration: durPer,
			Policy:   mds.CapPolicy{Cacheable: true, Quota: q, Delay: reservation},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, QuotaSweepPoint{
			Quota:      q,
			Throughput: res.Throughput,
			MeanLatUs:  res.Latency.Mean(),
			P99Us:      res.Latency.Percentile(99),
			PerClient:  res.PerClient,
		})
	}
	return out, nil
}
