package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mantle"
	"repro/internal/mds"
	"repro/internal/stats"
	"repro/internal/wire"
)

// BalancerKind selects the balancing configuration under test.
type BalancerKind string

// Balancer configurations (Figures 9 and 10a).
const (
	BalNone           BalancerKind = "none"
	BalCephFSCPU      BalancerKind = "cephfs-cpu"
	BalCephFSWorkload BalancerKind = "cephfs-workload"
	BalCephFSHybrid   BalancerKind = "cephfs-hybrid"
	BalMantle         BalancerKind = "mantle"
)

// BalanceConfig parameterizes the multi-sequencer balancing experiments.
type BalanceConfig struct {
	Kind            BalancerKind
	MDSs            int           // metadata ranks (paper: 3)
	Sequencers      int           // independent logs (paper: 3)
	ClientsPerSeq   int           // paper: 4
	Duration        time.Duration // total run
	Tick            time.Duration // balance tick (paper: 10 s, compressed here)
	MantlePolicy    string        // policy body for BalMantle (default PolicySequencer)
	ManualMode      *mds.MigrationMode
	ManualMigrateAt time.Duration // when set with ManualMode, export at this offset
	ManualHalf      bool          // migrate half (true) or all (false) sequencers
}

func (c *BalanceConfig) defaults() {
	if c.MDSs <= 0 {
		c.MDSs = 3
	}
	if c.Sequencers <= 0 {
		c.Sequencers = 3
	}
	if c.ClientsPerSeq <= 0 {
		c.ClientsPerSeq = 4
	}
	if c.Duration <= 0 {
		c.Duration = 6 * time.Second
	}
	if c.Tick <= 0 {
		c.Tick = 500 * time.Millisecond
	}
	if c.MantlePolicy == "" {
		c.MantlePolicy = mantle.PolicySequencer
	}
}

// balanceBucket is the time-series resolution of a balancing run.
const balanceBucket = 250 * time.Millisecond

// BalanceResult carries throughput-over-time per sequencer and overall.
type BalanceResult struct {
	Cluster *stats.TimeSeries
	PerSeq  []*stats.TimeSeries
	// TotalOps is the overall operation count; SteadyRate is the mean
	// cluster rate over the final third of the run (the "stabilized"
	// regime Figures 9/10 quantify).
	TotalOps   int64
	SteadyRate float64
}

// seqPath names sequencer i.
func seqPath(i int) string { return fmt.Sprintf("/zlog/seq%d", i) }

// The metadata-server cost model for the balancing experiments. Request
// handling and tail-finding cost the same; client-mode imports pay a
// coherence round-trip to the former authority (Section 6.2.1).
var balanceCost = mds.Config{
	HandleTime:    50 * time.Microsecond,
	ServiceTime:   50 * time.Microsecond,
	CoherenceTime: 50 * time.Microsecond,
}

// RunBalanceExperiment drives the Figures 9/10/12 scenario: Sequencers
// round-trip sequencer inodes, all created on rank 0, hammered by
// ClientsPerSeq clients each, under the selected balancer.
func RunBalanceExperiment(ctx context.Context, cfg BalanceConfig) (*BalanceResult, error) {
	cfg.defaults()

	mdsCfg := balanceCost
	var balFactory func(rank int) mds.Balancer
	switch cfg.Kind {
	case BalNone:
	case BalCephFSCPU:
		balFactory = func(int) mds.Balancer { return mds.NewCephFSBalancer(mds.CephFSCPU) }
	case BalCephFSWorkload:
		balFactory = func(int) mds.Balancer { return mds.NewCephFSBalancer(mds.CephFSWorkload) }
	case BalCephFSHybrid:
		balFactory = func(int) mds.Balancer { return mds.NewCephFSBalancer(mds.CephFSHybrid) }
	case BalMantle:
		// Installed after boot; factory built against the cluster below.
	default:
		return nil, fmt.Errorf("workload: unknown balancer kind %q", cfg.Kind)
	}
	if cfg.Kind != BalNone && cfg.ManualMode == nil {
		mdsCfg.BalanceInterval = cfg.Tick
	}

	bootOpts := core.Options{
		MDSs: cfg.MDSs, OSDs: 4,
		MDS:         mdsCfg,
		MDSBalancer: balFactory,
	}
	if cfg.Kind == BalMantle {
		bootOpts.MDSBalancer = nil // attach after we have the network
	}
	var cluster *core.Cluster
	var err error
	if cfg.Kind == BalMantle {
		// Mantle balancers need the fabric, so build the cluster with a
		// factory closing over a forward reference.
		var netRef *wire.Network
		bootOpts.MDSBalancer = func(rank int) mds.Balancer {
			return &lazyBalancer{mk: func() mds.Balancer {
				return mantle.NewBalancer(netRef, wire.Addr(fmt.Sprintf("mantle.%d", rank)), []int{0}, "metadata", cfg.Tick)
			}}
		}
		cluster, err = core.Boot(ctx, bootOpts)
		if err != nil {
			return nil, err
		}
		netRef = cluster.Net
	} else {
		cluster, err = core.Boot(ctx, bootOpts)
		if err != nil {
			return nil, err
		}
	}
	defer cluster.Stop()

	if cfg.Kind == BalMantle {
		rc := cluster.NewRadosClient("client.mantle-admin")
		monc := cluster.NewMonClient("client.mantle-admin.mon")
		if err := mantle.InstallPolicy(ctx, rc, monc, "metadata", "exp-policy", cfg.MantlePolicy); err != nil {
			return nil, err
		}
	}

	// Create the sequencers (all land on rank 0).
	setup := cluster.NewMDSClient("client.setup")
	if err := setup.Start(ctx); err != nil {
		return nil, err
	}
	defer setup.Stop()
	rt := mds.CapPolicy{} // round-trip mode: contention at the MDS
	for i := 0; i < cfg.Sequencers; i++ {
		if err := setup.Open(ctx, seqPath(i), mds.TypeSequencer, &rt); err != nil {
			return nil, err
		}
	}

	res := &BalanceResult{
		Cluster: stats.NewTimeSeries(balanceBucket),
	}
	for i := 0; i < cfg.Sequencers; i++ {
		res.PerSeq = append(res.PerSeq, stats.NewTimeSeries(balanceBucket))
	}

	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopAt := time.Now().Add(cfg.Duration)
	for s := 0; s < cfg.Sequencers; s++ {
		for c := 0; c < cfg.ClientsPerSeq; c++ {
			cl := cluster.NewMDSClient(fmt.Sprintf("client.s%dc%d", s, c))
			if err := cl.Start(ctx); err != nil {
				return nil, err
			}
			defer cl.Stop()
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
					_, err := cl.Next(cctx, seqPath(s))
					cancel()
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						continue
					}
					now := time.Now()
					res.Cluster.Record(now, 1)
					res.PerSeq[s].Record(now, 1)
					mu.Lock()
					total++
					mu.Unlock()
				}
			}()
		}
	}

	// Manual migration (Figures 10b / 12): export at the given offset.
	if cfg.ManualMode != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := cfg.ManualMigrateAt
			if at <= 0 {
				at = cfg.Duration / 3
			}
			select {
			case <-time.After(at):
			case <-ctx.Done():
				return
			}
			n := cfg.Sequencers
			if cfg.ManualHalf {
				n = (cfg.Sequencers + 1) / 2
			}
			for i := 0; i < n; i++ {
				target := 1 + i%(cfg.MDSs-1)
				ectx, cancel := context.WithTimeout(ctx, 5*time.Second)
				// Retry briefly: exports skip inodes with in-flight ops.
				for attempt := 0; attempt < 50; attempt++ {
					if err := cluster.MDSs[0].Export(ectx, seqPath(i), target, *cfg.ManualMode); err == nil {
						break
					}
					if !waitRetry(ectx, 10*time.Millisecond) {
						break
					}
				}
				cancel()
			}
		}()
	}

	wg.Wait()
	res.TotalOps = total

	rates := res.Cluster.Rates()
	tail := len(rates) / 3
	if tail == 0 {
		tail = len(rates)
	}
	sum := 0.0
	for _, r := range rates[len(rates)-tail:] {
		sum += r
	}
	res.SteadyRate = sum / float64(tail)
	return res, nil
}

// lazyBalancer defers construction until first use (the Mantle balancer
// needs the cluster's network, which exists only after boot).
type lazyBalancer struct {
	mk   func() mds.Balancer
	once sync.Once
	b    mds.Balancer
}

// Decide implements mds.Balancer.
func (l *lazyBalancer) Decide(ctx context.Context, in mds.BalancerInput) (mds.Decision, error) {
	l.once.Do(func() { l.b = l.mk() })
	return l.b.Decide(ctx, in)
}

// ModeMatrixPoint is one bar of Figure 10b.
type ModeMatrixPoint struct {
	Label      string
	SteadyRate float64
}

// RunModeMatrix reproduces Figure 10b: 2 sequencers, 2 ranks, manual
// migration in {client, proxy} x {half, full} plus the no-balancing
// baseline.
func RunModeMatrix(ctx context.Context, durPer time.Duration) ([]ModeMatrixPoint, error) {
	client, proxy := mds.ModeClient, mds.ModeProxy
	cases := []struct {
		label string
		mode  *mds.MigrationMode
		half  bool
	}{
		{"no-balancing", nil, false},
		{"client-half", &client, true},
		{"client-full", &client, false},
		{"proxy-half", &proxy, true},
		{"proxy-full", &proxy, false},
	}
	var out []ModeMatrixPoint
	for _, tc := range cases {
		res, err := RunBalanceExperiment(ctx, BalanceConfig{
			Kind: BalNone, MDSs: 2, Sequencers: 2, ClientsPerSeq: 4,
			Duration: durPer, ManualMode: tc.mode, ManualHalf: tc.half,
			ManualMigrateAt: durPer / 4,
		})
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", tc.label, err)
		}
		out = append(out, ModeMatrixPoint{Label: tc.label, SteadyRate: res.SteadyRate})
	}
	return out, nil
}

// BackoffPoint is one row of the §6.2.3 study.
type BackoffPoint struct {
	Label      string
	SteadyRate float64
	TotalOps   int64
}

// RunBackoffStudy compares an aggressive policy with conservative
// variants (when() threshold + cooldown), confirming "the more
// conservative the approach the less overall throughput".
func RunBackoffStudy(ctx context.Context, durPer time.Duration) ([]BackoffPoint, error) {
	aggressive := `
local total = 0
local n = 0
for r, m in pairs(mds) do total = total + m["load"] n = n + 1 end
local avg = total / n
if mds[whoami]["load"] > avg * 1.05 then
	for r, m in pairs(mds) do
		if r ~= whoami and m["load"] < avg then targets[r] = mds[whoami]["load"] - avg end
	end
end
mode = "client"
`
	cases := []struct {
		label  string
		policy string
	}{
		{"aggressive", aggressive},
		{"conservative-when", mantle.PolicySequencer},
		{"backoff-cooldown", mantle.PolicyBackoff},
	}
	var out []BackoffPoint
	for _, tc := range cases {
		res, err := RunBalanceExperiment(ctx, BalanceConfig{
			Kind: BalMantle, MantlePolicy: tc.policy, Duration: durPer,
		})
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", tc.label, err)
		}
		out = append(out, BackoffPoint{Label: tc.label, SteadyRate: res.SteadyRate, TotalOps: res.TotalOps})
	}
	return out, nil
}

// waitRetry pauses d before the next retry, or returns false as soon as
// ctx is done.
func waitRetry(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
