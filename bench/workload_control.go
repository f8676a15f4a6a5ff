package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/types"
)

const (
	controlOSDs   = 8
	controlSvcKey = "bench.key"
	controlClass  = "bench.iface"
	controlSeq    = "/bench/seq"
)

// controlWL is the control plane with the data path idle: 3 monitors,
// 8 OSDs (gossip fan-out 3), 1 MDS, 1 ms fabric delay. The first half
// of a window client 0 commits service-metadata updates (reading the
// map back every 8th op) while client 1 installs a new class version
// and waits until every OSD runs it; the second half every client
// draws from one sequencer under the quota policy of Figure 6, so the
// capability moves between them.
type controlWL struct {
	base
	monc []*mon.Client
	mdsc []*mds.Client

	live     []atomic.Uint64 // highest class version live per OSD
	liveWake chan struct{}   // poked whenever an OSD reports a version
	version  uint64          // last class version installed
	svcValue uint64          // last service value committed

	seqValues [][]uint64 // every sequencer value drawn, per client
}

func (c *controlWL) describe() string {
	return "3 mons, 8 OSDs (gossip fan-out 3), 1 MDS, fabric delay 1 ms nominal; sequencer policy {cacheable, quota 100, delay 250 ms}"
}

func (c *controlWL) setup(ctx context.Context, seed int64) error {
	if err := c.boot(ctx, core.Options{
		Mons: 3, OSDs: controlOSDs, MDSs: 1, GossipFanout: 3,
		NetLatency: fabricDelay, Seed: seed,
	}); err != nil {
		return err
	}
	c.live = make([]atomic.Uint64, len(c.cluster.OSDs))
	c.liveWake = make(chan struct{}, 1)
	for i, o := range c.cluster.OSDs {
		i := i
		o.OnClassLive(func(name string, v uint64) {
			if name != controlClass {
				return
			}
			c.live[i].Store(v)
			select {
			case c.liveWake <- struct{}{}:
			default:
			}
		})
	}
	c.seqValues = make([][]uint64, nClients)
	c.monc = make([]*mon.Client, nClients)
	c.mdsc = make([]*mds.Client, nClients)
	for i := range c.monc {
		c.monc[i] = c.cluster.NewMonClient("client.bench." + strconv.Itoa(i) + ".mon")
		c.mdsc[i] = c.cluster.NewMDSClient("client.bench." + strconv.Itoa(i))
		if err := c.mdsc[i].Start(ctx); err != nil {
			return err
		}
	}
	pol := mds.CapPolicy{Cacheable: true, Quota: 100, Delay: 250 * time.Millisecond}
	if err := c.mdsc[0].Open(ctx, controlSeq, mds.TypeSequencer, &pol); err != nil {
		return fmt.Errorf("open sequencer: %w", err)
	}
	return nil
}

func (c *controlWL) close() {
	for _, m := range c.mdsc {
		if m != nil {
			m.Stop()
		}
	}
	c.mdsc = nil
	c.base.close()
}

func (c *controlWL) run(ctx context.Context, d time.Duration, w *window) {
	// Phase 1: map commits and class propagation.
	epoch0, _ := c.cluster.Mons[0].MapEpochs()
	t0 := time.Now()
	deadline := t0.Add(d / 2)
	runClients(nClients, func(cl int) {
		switch cl {
		case 0:
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				if k%8 == 7 {
					c.readService(ctx, w)
				} else {
					c.setService(ctx, w)
				}
			}
		case 1:
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c.installAndWait(ctx, w)
			}
		}
	})
	epoch1, _ := c.cluster.Mons[0].MapEpochs()
	w.note("commit_phase_s", time.Since(t0).Seconds())
	w.note("commits", float64(epoch1-epoch0))

	// Phase 2: capability hand-off on one sequencer.
	t1 := time.Now()
	deadline = t1.Add(d - d/2)
	runClients(nClients, func(cl int) {
		m := c.mdsc[cl]
		for time.Now().Before(deadline) && ctx.Err() == nil {
			t0 := time.Now()
			v, err := m.Next(ctx, controlSeq)
			w.done(cl, "next", t0, time.Since(t0), err)
			if err == nil {
				c.seqValues[cl] = append(c.seqValues[cl], v)
			}
		}
	})
	w.note("seq_phase_s", time.Since(t1).Seconds())
}

func (c *controlWL) setService(ctx context.Context, w *window) {
	v := c.svcValue + 1
	t0 := time.Now()
	err := c.monc[0].SetService(ctx, types.MapOSD, controlSvcKey, strconv.FormatUint(v, 10))
	w.done(0, "write", t0, time.Since(t0), err)
	if err == nil {
		c.svcValue = v
	}
}

// readService fetches the OSD map and checks it carries the last value
// this client committed (a commit is acknowledged only once applied).
func (c *controlWL) readService(ctx context.Context, w *window) {
	t0 := time.Now()
	m, err := c.monc[0].GetOSDMap(ctx)
	d := time.Since(t0)
	if err == nil {
		if got, want := m.Service[controlSvcKey], strconv.FormatUint(c.svcValue, 10); got != want {
			err = fmt.Errorf("map epoch %d has %s=%q, want %s", m.Epoch, controlSvcKey, got, want)
		}
	}
	w.done(0, "read", t0, d, err)
}

// installAndWait commits a new version of the class and blocks until
// every OSD reports it live: Figure 8's propagation wave. When tracing,
// the commit and the propagation are child spans of the op.
func (c *controlWL) installAndWait(ctx context.Context, w *window) {
	c.version++
	src := "function f(cls) return " + strconv.FormatUint(c.version, 10) + " end"
	t0 := time.Now()
	err := c.monc[1].InstallClass(ctx, controlClass, src, "other")
	committed := time.Now()
	if err == nil {
		err = c.waitLive(ctx, c.version)
	}
	w.doneParts(1, "call", t0, err, []string{"install", "propagate"},
		[]time.Duration{committed.Sub(t0), time.Since(committed)})
}

func (c *controlWL) waitLive(ctx context.Context, version uint64) error {
	for {
		all := true
		for i := range c.live {
			if c.live[i].Load() < version {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-c.liveWake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (c *controlWL) endToEnd(w *window) map[string]float64 {
	wr := w.sorted("write")
	out := map[string]float64{
		"write_p50_us": wr.us(50),
		"write_p95_us": wr.us(95),
		"read_p50_us":  w.sorted("read").us(50),
		"call_p50_us":  w.sorted("call").us(50),
	}
	if s := w.seriesSum("seq_phase_s"); s > 0 {
		out["ops_per_s"] = float64(w.count("next")) / s
	}
	return out
}

// audit: capabilities are exclusive, so no sequencer value may have
// been handed out twice, and each client's values must rise.
func (c *controlWL) audit(_ context.Context, w *window, m map[string]float64) {
	var all []uint64
	for cl, vals := range c.seqValues {
		var err error
		for i := 1; i < len(vals) && err == nil; i++ {
			if vals[i] <= vals[i-1] {
				err = fmt.Errorf("client %d drew %d after %d", cl, vals[i], vals[i-1])
			}
		}
		w.check(err)
		all = append(all, vals...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	dup := 0
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			dup++
		}
	}
	var err error
	if dup != 0 {
		err = fmt.Errorf("%d sequencer values were handed out twice", dup)
	}
	w.check(err)
	c.auditCluster(w, m)
}

func (c *controlWL) endTraced(w *window, m map[string]float64) {
	c.base.endTraced(w, m)
	if s := w.seriesSum("commit_phase_s"); s > 0 {
		m["mon.commits_per_s"] = w.seriesSum("commits") / s
	}
	m["mon.propagate_p50_ms"] = w.sorted("propagate").us(50) / 1000
	// mds.Client.Stats counts a value served with a fresh grant as
	// local, so hand-offs are told apart by what the caller can see: a
	// Next that crossed the fabric took at least half the nominal delay,
	// one served from a held capability takes well under a microsecond.
	next := w.sorted("next")
	remote := len(next) - sort.Search(len(next), func(i int) bool { return next[i] >= fabricDelay/2 })
	if len(next) > 0 {
		m["mds.local_ratio"] = 1 - float64(remote)/float64(len(next))
	}
	if s := w.seriesSum("seq_phase_s"); s > 0 {
		m["mds.handoffs_per_s"] = float64(remote) / s
	}
}

func (c *controlWL) layers(ctx context.Context, budget time.Duration, tr *tracer, m map[string]float64) error {
	return runProbes(ctx, budget, tr, m, []probe{
		{"wire.oneway", c.probeOneway},
		{"paxos.1mon", c.probeSingleMon},
		{"mon.getmap", c.probeGetMap},
		{"mds.sequencer", c.probeSequencer},
	})
}

// probeSingleMon runs the same SetService loop against a one-monitor
// cluster at the same fabric delay: the single-node baseline whose gap
// to the 3-monitor commit is what the quorum costs.
func (c *controlWL) probeSingleMon(ctx context.Context, budget time.Duration, m map[string]float64) error {
	solo, err := core.Boot(ctx, core.Options{Mons: 1, OSDs: 1, Replicas: 1, NetLatency: fabricDelay})
	if err != nil {
		return err
	}
	defer solo.Stop()
	monc := solo.NewMonClient("client.bench.solo")
	s, err := timeLoop(ctx, budget, 10, func(i int) error {
		return monc.SetService(ctx, types.MapOSD, controlSvcKey, strconv.Itoa(i))
	})
	m["paxos.commit_1mon_p50_ms"] = s.us(50) / 1000
	return err
}

func (c *controlWL) probeGetMap(ctx context.Context, budget time.Duration, m map[string]float64) error {
	s, err := timeLoop(ctx, budget, 20, func(int) error {
		_, err := c.monc[0].GetOSDMap(ctx)
		return err
	})
	m["mon.getmap_p50_us"] = s.us(50)
	return err
}

// probeSequencer times the two ends of the capability trade-off with
// no contender: a round trip per value, and values served from a held
// capability.
func (c *controlWL) probeSequencer(ctx context.Context, budget time.Duration, m map[string]float64) error {
	mc := c.mdsc[0]
	if err := mc.Open(ctx, "/bench/probe-rt", mds.TypeSequencer, &mds.CapPolicy{}); err != nil {
		return err
	}
	s, err := timeLoop(ctx, budget/2, 20, func(int) error {
		_, err := mc.Next(ctx, "/bench/probe-rt")
		return err
	})
	if err != nil {
		return err
	}
	m["mds.next_remote_p50_us"] = s.us(50)

	if err := mc.Open(ctx, "/bench/probe-local", mds.TypeSequencer, &mds.CapPolicy{Cacheable: true}); err != nil {
		return err
	}
	// One sample is 1000 values, so the clock read is amortised away.
	const batch = 1000
	s, err = timeLoop(ctx, budget/2, 20, func(int) error {
		for i := 0; i < batch; i++ {
			if _, err := mc.Next(ctx, "/bench/probe-local"); err != nil {
				return err
			}
		}
		return nil
	})
	m["mds.next_local_ns"] = float64(s.percentile(50)) / batch
	return err
}
