// Package core is Malacology itself: the programmable storage system of
// the paper. It boots a full cluster (Paxos monitors, replicated object
// storage daemons, metadata servers) on the in-process fabric and
// exposes the five interface families of Table 2 as Go APIs:
//
//	ServiceMetadata — strongly-consistent, versioned cluster KV (§4.1)
//	DataIO          — dynamic object interfaces executed on OSDs (§4.2)
//	SharedResource  — capability-managed exclusive access (§4.3.1)
//	FileType        — typed inodes with embedded state (§4.3.2)
//	LoadBalancing   — programmable migration of metadata load (§4.3.3)
//	Durability      — replicated, scrubbed object storage (§4.4)
//
// Higher-level services compose these: Mantle (internal/mantle) builds
// on ServiceMetadata + LoadBalancing + Durability; ZLog (internal/zlog)
// builds on FileType + SharedResource + DataIO + ServiceMetadata.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/paxos"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
)

// Options sizes and tunes a cluster.
type Options struct {
	Mons int // monitor quorum size (default 1)
	OSDs int // object storage daemons (default 3)
	MDSs int // metadata server ranks (default 1)

	// Pools are created at boot; "metadata" is always added (journals
	// and Mantle policy objects live there).
	Pools    []string
	PGNum    int // default 8
	Replicas int // default 2

	// ProposalInterval batches monitor updates (paper: 1 s default,
	// 222 ms tuned). Default here: 10 ms for snappy tests.
	ProposalInterval time.Duration
	// GossipFanout limits direct monitor pushes of OSDMap updates; the
	// remainder propagate OSD-to-OSD (Figure 8's pipeline). 0 = all.
	GossipFanout int
	// BeaconTimeout enables the failure detector; zero disables.
	BeaconTimeout time.Duration

	// NetLatency/NetJitter configure the simulated network.
	NetLatency time.Duration
	NetJitter  time.Duration
	Seed       int64

	// MDS carries the metadata-server cost model and balancer settings;
	// Rank/Mons/Pool are filled per rank at boot.
	MDS mds.Config
	// MDSBalancer, when set, builds a per-rank balancer (overriding
	// MDS.Balancer); each rank needs its own instance because policy
	// state is rank-local. Boot calls it concurrently for different
	// ranks.
	MDSBalancer func(rank int) mds.Balancer
	// OSD carries OSD tuning; ID/Mons are filled per daemon at boot.
	OSD rados.OSDConfig
	// OSDBackend, when set, builds a per-daemon persistence backend
	// (overriding OSD.Backend); each daemon needs its own instance
	// because a backend owns one WAL directory. Boot calls it
	// concurrently for different ids. The same factory is reused by
	// RebuildOSD, so a crashed daemon recovers from the same directory
	// it journaled to.
	OSDBackend func(id int) (rados.Backend, error)
}

func (o *Options) defaults() {
	if o.Mons <= 0 {
		o.Mons = 1
	}
	if o.OSDs <= 0 {
		o.OSDs = 3
	}
	if o.MDSs < 0 {
		o.MDSs = 0
	}
	if o.PGNum <= 0 {
		o.PGNum = 8
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.ProposalInterval <= 0 {
		o.ProposalInterval = 10 * time.Millisecond
	}
}

// Cluster is a running Malacology deployment.
type Cluster struct {
	Net  *wire.Network
	Mons []*mon.Monitor
	OSDs []*rados.OSD
	MDSs []*mds.Server

	monIDs []int
	opts   Options
}

// Boot starts a cluster and waits for it to be serviceable: every
// daemon is up in the monitors' maps and every OSD holds the leader's
// OSD map.
//
// Bring-up is one proposal. The pools go to the monitors as one update
// while every OSD and every MDS rank starts concurrently, so the pools
// and every daemon's boot land in one proposal interval and commit as
// one Paxos value. A rank of a fresh cluster has no down peer whose
// journal it would replay, so it needs nothing from RADOS to start. On
// any failure everything started is stopped, and the error names the
// first failing daemon by id.
func Boot(ctx context.Context, opts Options) (*Cluster, error) {
	c := newCluster(opts)
	if err := c.start(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newCluster returns a cluster of no daemons on a new fabric.
func newCluster(opts Options) *Cluster {
	opts.defaults()
	netOpts := []wire.Option{wire.WithSeed(opts.Seed)}
	if opts.NetLatency > 0 || opts.NetJitter > 0 {
		netOpts = append(netOpts, wire.WithLatency(opts.NetLatency, opts.NetJitter))
	}
	return &Cluster{
		Net:  wire.NewNetwork(netOpts...),
		opts: opts,
	}
}

// start brings up the daemons of a new cluster; on error it stops every
// daemon it started.
func (c *Cluster) start(ctx context.Context) (err error) {
	defer func() {
		if err != nil {
			c.Stop()
		}
	}()
	opts := c.opts
	for i := 0; i < opts.Mons; i++ {
		c.monIDs = append(c.monIDs, i)
	}

	// Monitors first: everything else registers through them.
	pxCfg := paxos.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		ElectionTimeout:   200 * time.Millisecond,
	}
	for i := 0; i < opts.Mons; i++ {
		m := mon.New(c.Net, mon.Config{
			ID:               i,
			Peers:            c.monIDs,
			ProposalInterval: opts.ProposalInterval,
			GossipFanout:     opts.GossipFanout,
			BeaconTimeout:    opts.BeaconTimeout,
			Paxos:            pxCfg,
		})
		m.Start()
		c.Mons = append(c.Mons, m)
	}
	if err := c.Mons[0].Lead(ctx); err != nil {
		return fmt.Errorf("core: initial election: %w", err)
	}

	// The pools, as one update, in flight while the daemons boot.
	boot := mon.NewClient(c.Net, bootstrapAddr, c.monIDs)
	pools := types.Update{Ops: []types.Op{mon.PoolCreateOp("metadata", opts.PGNum, opts.Replicas)}}
	for _, p := range opts.Pools {
		pools.Ops = append(pools.Ops, mon.PoolCreateOp(p, opts.PGNum, opts.Replicas))
	}
	var created mon.Maps
	poolsDone := make(chan error, 1)
	go func() {
		var err error
		created, err = boot.Submit(ctx, pools)
		poolsDone <- err
	}()

	// Every OSD and every MDS rank at once; an OSD's error, being of a
	// lower index, is reported before a rank's.
	osds := make([]*rados.OSD, opts.OSDs)
	mdss := make([]*mds.Server, opts.MDSs)
	daemonErr := concurrently(opts.OSDs+opts.MDSs, func(i int) (err error) {
		if i < opts.OSDs {
			osds[i], err = c.startOSD(ctx, i)
		} else {
			mdss[i-opts.OSDs], err = c.startMDS(ctx, i-opts.OSDs)
		}
		return err
	})
	c.OSDs, c.MDSs = started(osds), started(mdss)
	if err := <-poolsDone; err != nil {
		return fmt.Errorf("core: create pools: %w", err)
	}
	if daemonErr != nil {
		return daemonErr
	}
	if c.onOneEpoch(created.OSD) {
		return nil
	}
	return c.catchUpOSDs(ctx, boot)
}

// startOSD builds and starts OSD id.
func (c *Cluster) startOSD(ctx context.Context, id int) (*rados.OSD, error) {
	osd, err := c.newOSD(id)
	if err != nil {
		return nil, err
	}
	if err := osd.Start(ctx); err != nil {
		return nil, fmt.Errorf("core: start osd.%d: %w", id, err)
	}
	return osd, nil
}

// startMDS builds and starts MDS rank r from the cluster's template.
func (c *Cluster) startMDS(ctx context.Context, r int) (*mds.Server, error) {
	cfg := c.opts.MDS
	cfg.Rank = r
	cfg.Mons = c.monIDs
	if cfg.Pool == "" {
		cfg.Pool = "metadata"
	}
	if c.opts.MDSBalancer != nil {
		cfg.Balancer = c.opts.MDSBalancer(r)
	}
	srv := mds.NewServer(c.Net, cfg)
	if err := srv.Start(ctx); err != nil {
		return nil, fmt.Errorf("core: start mds.%d: %w", r, err)
	}
	return srv, nil
}

// onOneEpoch reports whether the boot replies agree: every OSD started
// on the epoch the pools were answered with. Each boot committed no
// later than the epoch its OSD started on, so the OSDs then hold the
// leader's map, and nothing need be read.
func (c *Cluster) onOneEpoch(pools *types.OSDMap) bool {
	if pools == nil {
		return false
	}
	for _, o := range c.OSDs {
		if o.Epoch() != pools.Epoch {
			return false
		}
	}
	return true
}

// bootstrapAddr is the monitor-client address Boot registers through.
const bootstrapAddr = "client.bootstrap"

// concurrently runs fn(0) .. fn(n-1) in parallel, waits for all of
// them, and returns the error of the lowest index that failed.
func concurrently(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// started drops the slots of daemons that failed to start.
func started[T any](all []*T) []*T {
	out := all[:0]
	for _, d := range all {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// catchUpOSDs is bring-up's last step, taken when the boot replies
// disagree. An OSD starts on the map its own boot was answered with; if
// a proposal tick split the boots, a later epoch may still be on its
// way to it. Every OSD behind the leader's map is handed that map
// directly, as the monitors' own push.
func (c *Cluster) catchUpOSDs(ctx context.Context, boot *mon.Client) error {
	m, err := boot.GetOSDMap(ctx)
	if err != nil {
		return fmt.Errorf("core: read osd map: %w", err)
	}
	push := mon.MapNotify{Kind: types.MapOSD, OSD: m}
	return concurrently(len(c.OSDs), func(i int) error {
		o := c.OSDs[i]
		if o.Epoch() >= m.Epoch {
			return nil
		}
		if _, err := c.Net.Call(ctx, bootstrapAddr, o.Addr(), push); err != nil {
			return fmt.Errorf("core: catch up osd.%d to epoch %d: %w", i, m.Epoch, err)
		}
		return nil
	})
}

// Stop shuts the whole cluster down.
func (c *Cluster) Stop() {
	for _, s := range c.MDSs {
		s.Stop()
	}
	for _, o := range c.OSDs {
		o.Stop()
	}
	for _, m := range c.Mons {
		m.Stop()
	}
}

// RebuildOSD replaces a crashed daemon with a fresh one recovered from
// its durable backend: a new backend instance is built from the same
// factory (and so the same WAL directory), the new daemon replays it in
// Start, and it rejoins the cluster under the same ID.
// This is the process-restart path — OSD.Crash tears the old daemon's
// log tail and kills its in-memory state, exactly like kill -9, so
// restarting the old object would be resurrection, not recovery.
func (c *Cluster) RebuildOSD(ctx context.Context, id int) error {
	if id < 0 || id >= len(c.OSDs) {
		return fmt.Errorf("core: rebuild osd.%d: no such daemon", id)
	}
	osd, err := c.newOSD(id)
	if err != nil {
		return err
	}
	if err := osd.Start(ctx); err != nil {
		return fmt.Errorf("core: rebuild osd.%d: %w", id, err)
	}
	c.OSDs[id] = osd
	return nil
}

// newOSD builds daemon id from the cluster's OSD template, with its own
// backend from Options.OSDBackend when one is set.
func (c *Cluster) newOSD(id int) (*rados.OSD, error) {
	cfg := c.opts.OSD
	cfg.ID = id
	cfg.Mons = c.monIDs
	if c.opts.OSDBackend != nil {
		be, err := c.opts.OSDBackend(id)
		if err != nil {
			return nil, fmt.Errorf("core: backend for osd.%d: %w", id, err)
		}
		cfg.Backend = be
	}
	return rados.NewOSD(c.Net, cfg), nil
}

// MonIDs returns the monitor ranks (for building clients).
func (c *Cluster) MonIDs() []int { return c.monIDs }

// NewRadosClient returns an object-store client named addr.
func (c *Cluster) NewRadosClient(addr string) *rados.Client {
	return rados.NewClient(c.Net, wire.Addr(addr), c.monIDs)
}

// NewMDSClient returns a metadata-service client named addr. Call its
// Start before use.
func (c *Cluster) NewMDSClient(addr string) *mds.Client {
	return mds.NewClient(c.Net, wire.Addr(addr), c.monIDs)
}

// NewMonClient returns a monitor client named addr.
func (c *Cluster) NewMonClient(addr string) *mon.Client {
	return mon.NewClient(c.Net, wire.Addr(addr), c.monIDs)
}
