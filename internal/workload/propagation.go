package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/stats"
)

// PropagationConfig parameterizes the Figure 8 experiment: how fast a
// newly installed object interface becomes live on every OSD, via the
// monitor's Paxos commit, a bounded direct push, and the OSD-to-OSD
// flood (with the gossip tick behind it).
type PropagationConfig struct {
	OSDs             int           // paper: 120 (RAM-backed)
	Updates          int           // paper: 1000
	ProposalInterval time.Duration // paper: 1 s default, 222 ms tuned
	GossipInterval   time.Duration // the OSDs' anti-entropy tick
	GossipFanout     int           // monitor's direct-push bound
	// NetLatency is the fabric's one-way delay. With it propagation
	// latency counts hops; at zero it measures goroutine scheduling.
	NetLatency time.Duration
}

// PropagationResult carries Figure 8's distribution: one latency sample
// per (update, OSD) pair, measured from commit acknowledgment to the
// daemon making the interface live.
type PropagationResult struct {
	Latency *stats.Histogram // microseconds
	// CommitLatency is the submit-to-commit time (the Paxos proposal
	// cost the paper reports separately: ~1 s default vs ~222 ms tuned).
	CommitLatency *stats.Histogram
}

// RunPropagation measures cluster-wide interface-update propagation.
func RunPropagation(ctx context.Context, cfg PropagationConfig) (*PropagationResult, error) {
	if cfg.OSDs <= 0 {
		cfg.OSDs = 24
	}
	if cfg.Updates <= 0 {
		cfg.Updates = 50
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 20 * time.Millisecond
	}
	if cfg.GossipFanout <= 0 {
		cfg.GossipFanout = 4
	}
	cluster, err := core.Boot(ctx, core.Options{
		OSDs:             cfg.OSDs,
		ProposalInterval: cfg.ProposalInterval,
		GossipFanout:     cfg.GossipFanout,
		NetLatency:       cfg.NetLatency,
		OSD:              rados.OSDConfig{GossipInterval: cfg.GossipInterval},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	res := &PropagationResult{
		Latency:       stats.NewHistogram(),
		CommitLatency: stats.NewHistogram(),
	}

	// Instrument every OSD: record when each class version becomes live.
	type liveKey struct {
		version uint64
		osd     int
	}
	var mu sync.Mutex
	liveAt := make(map[liveKey]time.Time)
	cond := sync.NewCond(&mu)
	for i, osd := range cluster.OSDs {
		i := i
		osd.OnClassLive(func(name string, version uint64) {
			if name != "exp.iface" {
				return
			}
			mu.Lock()
			liveAt[liveKey{version, i}] = time.Now()
			cond.Broadcast()
			mu.Unlock()
		})
	}

	monc := cluster.NewMonClient("client.exp")
	for u := 1; u <= cfg.Updates; u++ {
		script := fmt.Sprintf("function probe(cls) return %d end", u)
		t0 := time.Now()
		if err := monc.InstallClass(ctx, "exp.iface", script, "other"); err != nil {
			return nil, err
		}
		committed := time.Now()
		res.CommitLatency.AddDuration(committed.Sub(t0))

		// Wait for the update to be live everywhere, then record each
		// OSD's individual latency from the commit point.
		version := uint64(u)
		deadline := time.Now().Add(30 * time.Second)
		mu.Lock()
		for {
			have := 0
			for i := range cluster.OSDs {
				if _, ok := liveAt[liveKey{version, i}]; ok {
					have++
				}
			}
			if have == len(cluster.OSDs) {
				break
			}
			if time.Now().After(deadline) {
				mu.Unlock()
				return nil, fmt.Errorf("workload: update %d live on only %d/%d OSDs", u, have, len(cluster.OSDs))
			}
			waitCond(cond, 50*time.Millisecond)
		}
		for i := range cluster.OSDs {
			d := liveAt[liveKey{version, i}].Sub(committed)
			if d < 0 {
				// A direct push can land while the commit ack is still in
				// flight to the client; that is zero propagation delay.
				d = 0
			}
			res.Latency.AddDuration(d)
		}
		mu.Unlock()
	}
	return res, nil
}

// waitCond waits on cond with a timeout (cond.Wait has none).
func waitCond(cond *sync.Cond, d time.Duration) {
	done := make(chan struct{})
	t := time.AfterFunc(d, func() {
		cond.Broadcast()
		close(done)
	})
	cond.Wait()
	t.Stop()
	select {
	case <-done:
	default:
	}
}
