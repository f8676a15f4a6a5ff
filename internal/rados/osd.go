package rados

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mon"
	"repro/internal/stopctx"
	"repro/internal/types"
	"repro/internal/wire"
)

// OSDConfig configures one object storage daemon.
type OSDConfig struct {
	ID   int
	Mons []int
	// GossipInterval is how often the OSD exchanges map epochs with
	// random peers (the peer-to-peer propagation of Section 4.4 that
	// Figure 8 measures).
	GossipInterval time.Duration
	// BeaconInterval is how often the OSD reports liveness to the
	// monitors; zero disables beacons.
	BeaconInterval time.Duration
	// ReplicaWaitTimeout bounds how long a replica buffers an
	// out-of-order forward waiting for the preceding mutation of the
	// same object; on expiry it applies anyway and a scrub (ScrubNow)
	// repairs any residual divergence. Zero means the default.
	ReplicaWaitTimeout time.Duration
	// GCInterval is how often the dedup GC sweeper reclaims the blocks
	// no manifest cites (osd_gc.go); zero disables the background loop
	// (SweepBlocks still works).
	GCInterval time.Duration
	// GCGrace is how long a block must sit untouched before a sweep
	// censuses it. It must exceed the window between a client's
	// OpBlockStat and its manifest write, or an in-flight WriteDeduped
	// can lose a block it was told exists. Zero means the default.
	GCGrace time.Duration
	// Backend is the persistence seam (backend.go). Nil means the
	// non-durable MemBackend: the daemon's state lives in memory only.
	Backend Backend
	// CheckpointInterval is how often the backend is polled for
	// journal compaction (NeedCheckpoint → CheckpointNow); zero
	// disables the background loop.
	CheckpointInterval time.Duration
}

// gossipFanout is how many peers each gossip round contacts, and the
// arity of the tree a newly installed map is flooded along (floodMap).
const gossipFanout = 2

// defaultReplicaWaitTimeout is ReplicaWaitTimeout's default, and the
// sender's silence bound on replica acks (ackWait).
const defaultReplicaWaitTimeout = 250 * time.Millisecond

func (c *OSDConfig) defaults() {
	if c.GossipInterval <= 0 {
		c.GossipInterval = 50 * time.Millisecond
	}
	if c.ReplicaWaitTimeout <= 0 {
		c.ReplicaWaitTimeout = defaultReplicaWaitTimeout
	}
	if c.GCGrace <= 0 {
		c.GCGrace = 2 * time.Second
	}
}

// OSD is one object storage daemon: it owns replicas of placement
// groups, serves object operations, executes class methods next to the
// data, replicates writes to its peers, gossips cluster maps, and
// scrubs on demand (ScrubNow).
type OSD struct {
	cfg   OSDConfig
	addr  wire.Addr // OSDAddr(cfg.ID)
	net   *wire.Network
	monc  *mon.Client
	rt    *classRuntime
	rng   *rand.Rand // guarded by rngMu alone, so gossip never contends with o.mu
	rngMu sync.Mutex

	// backend is the persistence seam, fixed at construction.
	backend Backend

	// view is the current OSD map with its placement table (mapView).
	// Readers load it without a lock; updateMap swaps in a newer one
	// while holding mu, which serializes installs so epochs only rise.
	view atomic.Pointer[mapView]

	// Replica forwarders (osd_ops.go). fwdOpen holds the claims handed
	// to the forwarders that none has picked up yet (some already taken
	// back by their handlers); fwdAwake counts the forwarders that are
	// neither parked on fwdWake nor running a forward, each about to pick
	// one up. fwdWake is unbuffered, so a send succeeds only when a
	// forwarder is parked in receive.
	fwdMu    sync.Mutex
	fwdOpen  []fwdClaim // guarded by fwdMu
	fwdAwake int        // guarded by fwdMu
	fwdWake  chan struct{}

	// pgs is the placement-group table, published copy-on-write: every
	// op reads it with one atomic load, and only getPG, creating a PG,
	// takes mu to publish a grown copy. A published map is never written.
	pgs atomic.Pointer[map[PGID]*pg]

	mu sync.Mutex
	// classLive tracks the highest class version made live, for the
	// propagation-latency instrumentation (Figure 8).
	classLive   map[string]uint64                 // guarded by mu
	onClassLive func(name string, version uint64) // guarded by mu

	scrubRepairs int // guarded by mu
	// replayReport summarizes the last startup replay of the backend
	// (osd_restore.go).
	replayReport ReplayStats // guarded by mu

	// Replay cache: the recorded reply for each recently applied
	// client mutation, keyed by (client address, OpID). A resend of an
	// operation whose ack was lost returns the cached reply instead of
	// re-applying — the server half of exactly-once for non-idempotent
	// ops. Bounded FIFO over a fixed ring; an evicted entry degrades to
	// at-least-once, which the version stamps and scrub then reconcile.
	replayMu   sync.Mutex
	replay     map[replayKey]OpReply      // guarded by replayMu
	replayRing [replayCacheSize]replayKey // guarded by replayMu; keys in insertion order from replayNext
	replayNext int                        // guarded by replayMu; the slot the next put fills (the oldest key once full)

	// Witness records (witness.go): the witnessed ops this daemon has
	// accepted as a replica and not yet seen installed, in the order
	// accepted on each object, no two of them conflicting. witN counts
	// them, so the op path reads no map while this daemon holds none.
	witMu sync.Mutex
	wits  map[witKey][]*witnessRecord // guarded by witMu
	witN  atomic.Int32
	// gates holds the placement groups this daemon has just come to
	// lead whose records it is still collecting and replaying; their
	// ops wait for the channel to close. gateN counts them.
	gates map[PGID]chan struct{} // guarded by witMu
	gateN atomic.Int32

	// acks tallies the replica answers of the block ops this daemon
	// sends as a client (sendBlockOp; acks.go).
	acks ackTable

	// Dedup GC state (osd_gc.go). gcSeq stamps each reclaim's OpID,
	// drawing from the same incarnation allocator as clients so
	// OSD-originated ops never collide in replay caches.
	gcSeq atomic.Uint64
	// gcSweepN numbers this daemon's reclaim scans; blocks record the
	// sweep that last saw them grace-expired (objEntry.gcSweep) so a
	// census needs two consecutive observations by the same primary —
	// the failover guard in reclaimCandidates.
	gcSweepN atomic.Uint64

	// Lifecycle: Stop -> Start is a supported restart cycle (the crashed
	// daemon rejoining the cluster); stopCh is replaced on each Start so
	// background loops always select on the channel of their own
	// incarnation.
	lifeMu  sync.Mutex
	stopCh  chan struct{} // guarded by lifeMu
	running bool          // guarded by lifeMu
	// restored records that the backend's log has been replayed
	// into memory; Start replays once per process, and a graceful
	// Stop→Start keeps the in-memory state it already has.
	restored bool // guarded by lifeMu
	wg       sync.WaitGroup
}

// NewOSD constructs an OSD bound to the fabric.
func NewOSD(net *wire.Network, cfg OSDConfig) *OSD {
	cfg.defaults()
	addr := OSDAddr(cfg.ID)
	o := &OSD{
		cfg:       cfg,
		addr:      addr,
		net:       net,
		monc:      mon.NewClient(net, addr, cfg.Mons),
		rt:        newClassRuntime(),
		rng:       rand.New(rand.NewSource(int64(cfg.ID)*7919 + 17)),
		fwdWake:   make(chan struct{}),
		replay:    make(map[replayKey]OpReply, replayCacheSize),
		wits:      make(map[witKey][]*witnessRecord),
		gates:     make(map[PGID]chan struct{}),
		classLive: make(map[string]uint64),
		stopCh:    make(chan struct{}),
	}
	if cfg.Backend != nil {
		o.backend = cfg.Backend
	} else {
		o.backend = MemBackend{}
	}
	o.pgs.Store(&map[PGID]*pg{})
	o.view.Store(newMapView(types.NewOSDMap()))
	o.gcSeq.Store(clientIncarnation.Add(1) << 40)
	return o
}

// Addr returns this OSD's wire address.
func (o *OSD) Addr() wire.Addr { return o.addr }

// OnClassLive registers a hook invoked whenever a new class version
// becomes live on this daemon (benchmark instrumentation).
func (o *OSD) OnClassLive(fn func(name string, version uint64)) {
	o.mu.Lock()
	o.onClassLive = fn
	o.mu.Unlock()
}

// ScrubRepairs reports how many divergent replicas scrub has repaired.
func (o *OSD) ScrubRepairs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.scrubRepairs
}

// ScrubNow runs one synchronous scrub pass over the placement groups
// this daemon leads and reports how many divergent replicas it repaired
// during the pass. Scrub runs only on demand: harnesses call it to drive
// convergence checks.
func (o *OSD) ScrubNow() int {
	before := o.ScrubRepairs()
	o.scrubOnce()
	return o.ScrubRepairs() - before
}

// Start registers the daemon, joins the cluster (mon.Client.Join: boot
// into the OSD map while subscribing to its pushes), reads the map
// once, and launches its background loops. Starting after a Stop
// restarts the daemon: booting marks it up again (bumping the map
// epoch), it refetches the current map, and peers backfill it the data
// it missed while down.
func (o *OSD) Start(ctx context.Context) error {
	o.lifeMu.Lock()
	if o.running {
		o.lifeMu.Unlock()
		return fmt.Errorf("osd.%d: already running", o.cfg.ID)
	}
	o.stopCh = make(chan struct{})
	o.running = true
	stop := o.stopCh
	needRestore := !o.restored
	o.restored = true
	o.lifeMu.Unlock()

	// Replay the backend before taking traffic: the in-memory index must
	// be rebuilt before any op or backfill can observe it.
	if needRestore {
		if err := o.restore(); err != nil {
			o.lifeMu.Lock()
			o.running = false
			o.restored = false
			close(o.stopCh)
			o.lifeMu.Unlock()
			return fmt.Errorf("osd.%d: restore: %w", o.cfg.ID, err)
		}
	}

	fail := func(err error) error {
		o.net.Unlisten(o.Addr())
		o.lifeMu.Lock()
		o.running = false
		close(o.stopCh)
		o.lifeMu.Unlock()
		return err
	}
	o.net.Listen(o.Addr(), o.handle)
	maps, err := o.monc.Join(ctx, types.MapOSD, mon.OSDBootOp(o.cfg.ID, o.Addr()))
	if err != nil {
		return fail(fmt.Errorf("osd.%d: %w", o.cfg.ID, err))
	}
	o.updateMap(maps.OSD, noPeer)

	o.wg.Add(2)
	go o.gossipLoop(stop)
	go o.witnessLoop(stop)
	if o.cfg.BeaconInterval > 0 {
		o.wg.Add(1)
		go o.beaconLoop(stop)
	}
	if o.cfg.GCInterval > 0 {
		o.wg.Add(1)
		go o.gcLoop(stop)
	}
	if o.cfg.CheckpointInterval > 0 {
		o.wg.Add(1)
		go o.checkpointLoop(stop)
	}
	return nil
}

// Stop halts the daemon and removes it from the fabric (a crash, from
// the cluster's point of view). Idempotent; a stopped daemon can be
// restarted with Start.
func (o *OSD) Stop() {
	o.lifeMu.Lock()
	if !o.running {
		o.lifeMu.Unlock()
		return
	}
	o.running = false
	close(o.stopCh)
	o.lifeMu.Unlock()
	o.net.Unlisten(o.Addr())
	o.wg.Wait()
}

// Epoch returns the daemon's current map epoch.
func (o *OSD) Epoch() types.Epoch { return o.view.Load().m.Epoch }

// handle is the single fabric endpoint.
func (o *OSD) handle(ctx context.Context, from wire.Addr, req any) (any, error) {
	switch r := req.(type) {
	case *OpRequest:
		rep, later := o.handleOp(ctx, from, r)
		if later != nil {
			return later, nil
		}
		return rep, nil
	case *replicaAck:
		o.acks.note(r.OpID, from)
		return nil, nil
	case *relayAck:
		o.acks.note(r.OpID, r.Peer)
		return nil, nil
	case *witnessCopy:
		return o.acceptWitness(ctx, from, r), nil
	case *witnessDrop:
		o.dropWitness(r)
		return true, nil
	case *witnessCollect:
		return o.collectWitnesses(r), nil
	case *censusReq:
		return o.answerCensus(r)
	case *witnessResolve:
		// A replica settling a record: served as the op its client sent.
		rep, later := o.handleOp(ctx, r.Client, (*OpRequest)(r))
		if later != nil {
			return later, nil
		}
		return rep, nil
	case mon.MapNotify:
		if r.OSD != nil {
			o.updateMap(r.OSD, noPeer)
		}
		return nil, nil
	case gossipMsg:
		return o.handleGossip(r), nil
	case backfillMsg:
		o.applyBackfill(r)
		return true, nil
	case scrubMsg:
		return o.handleScrub(r), nil
	}
	return nil, fmt.Errorf("osd.%d: unknown request %T from %s", o.cfg.ID, req, from)
}

// updateMap installs a newer OSD map, floods it to this daemon's tree
// neighbours (all but from, the OSD it came from; noPeer when it came
// from a monitor), fires class-liveness hooks, performs placement-group
// splitting for resized pools, and pushes every PG it held before the
// split to that PG's acting set, on every new epoch, whether or not the
// acting set changed. The installed map is shared, never written.
func (o *OSD) updateMap(m *types.OSDMap, from int) {
	o.mu.Lock()
	oldView := o.view.Load()
	old := oldView.m
	if m.Epoch <= old.Epoch {
		o.mu.Unlock()
		return
	}
	v := newMapView(m)
	promoted := o.gatePromotions(oldView, v) // before any op can see v
	o.view.Store(v)
	// Detect pool growth: those pools re-shard in the background
	// ("placement group splitting", §4.4).
	var splitPools []string
	for name, pi := range m.Pools {
		if opi, ok := old.Pools[name]; ok && pi.PGNum > opi.PGNum {
			splitPools = append(splitPools, name)
		}
	}
	var liveEvents []types.ClassDef
	for name, def := range m.Classes {
		if o.classLive[name] < def.Version {
			o.classLive[name] = def.Version
			liveEvents = append(liveEvents, def)
		}
	}
	hook := o.onClassLive
	o.mu.Unlock()
	o.floodMap(v, from) // first: every peer's install waits on this, nothing below does
	held := o.heldPGs() // before the split below creates new ones
	o.rewitness(v, promoted)

	if hook != nil {
		for _, def := range liveEvents {
			hook(def.Name, def.Version)
		}
	}
	// Re-shard resized pools first: objects whose PG changed move to the
	// new PG's acting set via direct daemon-to-daemon pushes.
	for _, pool := range splitPools {
		o.splitPool(v.pools[pool], m.Epoch)
	}
	// Re-replicate any PG data we hold to the (possibly new) acting set.
	for _, id := range held {
		o.backfillPG(id, v)
	}
}

// noPeer is updateMap's source when the map did not come from an OSD.
const noPeer = -1

// floodMap forwards a map this daemon has just installed to its
// neighbours in the dissemination tree of that map: the gossipFanout-ary
// tree laid over the map's own up set (ascending ids), rotated by epoch
// so the interior load moves — position pos has parent (pos-1)/k and
// children k·pos+1 .. k·pos+k. Every daemon installing epoch e derives
// the same tree from the same map, and each forwards exactly once, on
// install, to every neighbour except the one it heard from; so whatever
// daemons the monitors (or a pull) hand the map to, it crosses each tree
// edge at most once per direction and reaches every up OSD within twice
// the tree's depth in hops. A receiver that already has the epoch drops
// it (updateMap), which loses nothing: having it means having forwarded
// it. Drops, partitions and crashed interior nodes are gossipLoop's job.
func (o *OSD) floodMap(v *mapView, from int) {
	n := len(v.up)
	idx := sort.SearchInts(v.up, o.cfg.ID)
	if idx == n || v.up[idx] != o.cfg.ID || !o.track() {
		return // not in this map's up set, or stopped: nothing more may be sent
	}
	defer o.wg.Done()
	root := int(uint64(v.m.Epoch) % uint64(n))
	pos := (idx - root + n) % n
	k := gossipFanout
	msg := gossipMsg{From: o.cfg.ID, Epoch: v.m.Epoch, Map: v.m}
	sendTo := func(p int) {
		if peer := v.up[(p+root)%n]; peer != from {
			o.net.Send(o.addr, OSDAddr(peer), msg)
		}
	}
	if pos > 0 {
		sendTo((pos - 1) / k)
	}
	for child := k*pos + 1; child <= k*pos+k && child < n; child++ {
		sendTo(child)
	}
}

// track registers the caller on the daemon's WaitGroup so Stop waits
// for it; false when the daemon is not running. The caller must call
// o.wg.Done. lifeMu orders the wg.Add before Stop's wg.Wait.
func (o *OSD) track() bool {
	o.lifeMu.Lock()
	defer o.lifeMu.Unlock()
	if o.running {
		o.wg.Add(1)
	}
	return o.running
}

// splitPool moves objects whose placement group changed under the new
// PG count to their new homes. Daemons converge pairwise, without the
// monitor in the loop, exactly as the paper describes the mechanism.
func (o *OSD) splitPool(pv *poolView, epoch types.Epoch) {
	pool, pi := pv.name, pv.info
	var held []*pg
	for id, p := range *o.pgs.Load() {
		if id.Pool == pool {
			held = append(held, p)
		}
	}

	for _, p := range held {
		p.mu.Lock()
		moved := make(map[int][]*Object)
		for name, e := range p.objects {
			npg := PGForObject(name, pi.PGNum)
			if npg != p.id.PG {
				e.mu.Lock()
				if e.obj != nil {
					moved[npg] = append(moved[npg], e.obj.clone())
				}
				if e.ver > 0 {
					// The slot leaves this PG entirely; replaying its
					// earlier records must not resurrect it here, and a
					// later return to this PG starts from version 0.
					o.backend.Record(Mutation{Kind: RecRemove, Pool: pool, PG: p.id.PG,
						Object: name, Force: true})
				}
				e.mu.Unlock()
				delete(p.objects, name)
			}
		}
		p.mu.Unlock()

		for npg, objs := range moved {
			for _, peer := range pv.actingFor(npg) {
				msg := backfillMsg{Pool: pool, PG: npg, Objects: objs, Epoch: epoch}
				if peer == o.cfg.ID {
					o.applyBackfill(msg)
				} else {
					o.net.Send(o.Addr(), OSDAddr(peer), msg)
				}
			}
		}
	}
	o.commitBackground("split")
}

// backfillPG pushes this daemon's copy of a PG to acting-set members.
func (o *OSD) backfillPG(id PGID, v *mapView) {
	acting := v.actingFor(id)
	p := (*o.pgs.Load())[id]
	if p == nil {
		return
	}
	objs := p.snapshot()
	if len(objs) == 0 {
		return
	}
	for _, peer := range acting {
		if peer == o.cfg.ID {
			continue
		}
		o.net.Send(o.Addr(), OSDAddr(peer), backfillMsg{
			Pool: id.Pool, PG: id.PG, Objects: objs, Epoch: v.m.Epoch,
		})
	}
}

// applyBackfill merges pushed objects, keeping the newer version of
// each (a tombstone's version counts: a deletion newer than the pushed
// copy is not resurrected). Force replaces unconditionally — scrub
// repair, where the primary's copy is authoritative.
func (o *OSD) applyBackfill(b backfillMsg) {
	p := o.getPG(PGID{Pool: b.Pool, PG: b.PG})
	pushed := make(map[string]bool, len(b.Objects))
	for _, obj := range b.Objects {
		pushed[obj.Name] = true
		e := p.entry(obj.Name)
		e.mu.Lock()
		if b.Force || e.ver < obj.Version {
			e.obj = obj.clone()
			e.ver = obj.Version
			e.obj.Version = e.ver
			o.backend.Record(Mutation{Kind: RecSnapshot, Pool: b.Pool, PG: b.PG,
				Object: obj.Name, Version: e.ver, Force: b.Force, Obj: e.obj})
			e.signalLocked()
		}
		e.mu.Unlock()
	}
	if !b.Force {
		o.commitBackground("backfill")
		return
	}
	// Force makes the sender authoritative for the whole PG, deletions
	// included: a live object here that the sender has deleted would
	// re-diverge scrub on every pass. But "not in the push" alone is not
	// proof of deletion — a forward for an object created after the
	// sender's scan can apply here before this pass, and purging it
	// would re-diverge the replica the other way. So deletions are
	// ordered: a name the sender's Tombstones map carries is deleted
	// only when the local version does not exceed the tombstone's (a
	// newer local mutation means a forward raced the scan), and a name
	// the sender has no slot for at all is purged only once it has sat
	// unmutated past forcePurgeGrace, long enough that no forward from
	// the scan-time window can still be in flight.
	p.mu.Lock()
	extra := make(map[string]*objEntry)
	for name, e := range p.objects {
		if !pushed[name] {
			extra[name] = e
		}
	}
	p.mu.Unlock()
	for name, e := range extra {
		tombVer, known := b.Tombstones[name]
		e.mu.Lock()
		switch {
		case e.obj == nil:
			// Already deleted locally; nothing to order.
		case known && e.ver <= tombVer:
			// Adopt the sender's tombstone at its version so later
			// forwards keep their PrevVersion ordering.
			e.obj = nil
			e.ver = tombVer
			o.backend.Record(Mutation{Kind: RecRemove, Pool: b.Pool, PG: b.PG,
				Object: name, Version: tombVer})
			e.signalLocked()
		case known:
			// Local state is newer than the sender's scan; the next
			// scrub pass re-compares against fresher state.
		case time.Since(e.touch) >= forcePurgeGrace:
			e.obj = nil
			e.bumpLocked()
			o.backend.Record(Mutation{Kind: RecRemove, Pool: b.Pool, PG: b.PG,
				Object: name, Version: e.ver})
		}
		e.mu.Unlock()
	}
	o.commitBackground("backfill")
}

// forcePurgeGrace is how long a replica-only object with no ordering
// information (the Force sender has no slot for its name) must sit
// unmutated before a Force pass purges it. The replication fan-out
// delivers forwards within milliseconds, so anything older is genuine
// divergence, not a racing create.
const forcePurgeGrace = 2 * time.Second

// replayCacheSize bounds the per-daemon replay cache; old entries are
// evicted first-in-first-out.
const replayCacheSize = 1024

// replayKey identifies one logical client operation at the primary.
type replayKey struct {
	from wire.Addr
	id   uint64
}

// replayGet returns the recorded reply for a duplicate delivery.
func (o *OSD) replayGet(from wire.Addr, id uint64) (OpReply, bool) {
	o.replayMu.Lock()
	defer o.replayMu.Unlock()
	rep, ok := o.replay[replayKey{from: from, id: id}]
	return rep, ok
}

// replayPut records the reply of an applied mutation, evicting the
// oldest entry once the cache is full. Every cached key occupies one
// ring slot, so a full map means the next slot holds the oldest key.
func (o *OSD) replayPut(from wire.Addr, id uint64, rep OpReply) {
	o.replayMu.Lock()
	defer o.replayMu.Unlock()
	k := replayKey{from: from, id: id}
	if _, ok := o.replay[k]; ok {
		return
	}
	if len(o.replay) == replayCacheSize {
		delete(o.replay, o.replayRing[o.replayNext])
	}
	o.replay[k] = rep
	o.replayRing[o.replayNext] = k
	o.replayNext = (o.replayNext + 1) % replayCacheSize
}

// replaySettle records that the fan-out of (from, id) has finished: a
// re-send answered from the cache now has no peer left to wait for.
func (o *OSD) replaySettle(from wire.Addr, id uint64) {
	o.replayMu.Lock()
	defer o.replayMu.Unlock()
	k := replayKey{from: from, id: id}
	if rep, ok := o.replay[k]; ok && rep.Forwards != 0 {
		rep.Forwards = 0
		o.replay[k] = rep
	}
}

// heldPGs snapshots the ids of the placement groups this daemon holds.
func (o *OSD) heldPGs() []PGID {
	pgs := *o.pgs.Load()
	ids := make([]PGID, 0, len(pgs))
	for id := range pgs {
		ids = append(ids, id)
	}
	return ids
}

// getPG returns the placement group id, creating it on first use: one
// atomic load unless it is new, when mu orders its creation against a
// racing one.
func (o *OSD) getPG(id PGID) *pg {
	if p := (*o.pgs.Load())[id]; p != nil {
		return p
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	old := *o.pgs.Load()
	if p := old[id]; p != nil {
		return p
	}
	grown := maps.Clone(old)
	p := &pg{id: id, objects: make(map[string]*objEntry)}
	grown[id] = p
	o.pgs.Store(&grown)
	return p
}

// ---- gossip ----

func (o *OSD) gossipLoop(stop chan struct{}) {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		o.gossipOnce(stop)
	}
}

// gossipOnce exchanges epochs with random up peers; whichever side is
// behind receives the full map.
func (o *OSD) gossipOnce(stop chan struct{}) {
	var candidates []int
	for _, p := range o.view.Load().up {
		if p != o.cfg.ID {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return
	}
	o.rngMu.Lock()
	o.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	o.rngMu.Unlock()
	n := gossipFanout
	if n > len(candidates) {
		n = len(candidates)
	}
	for _, peer := range candidates[:n] {
		peer := peer
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			ctx, cancel := stopctx.WithTimeout(stop, o.cfg.GossipInterval*4)
			defer cancel()
			resp, err := o.net.Call(ctx, o.Addr(), OSDAddr(peer), gossipMsg{From: o.cfg.ID, Epoch: o.Epoch()})
			if err != nil {
				return
			}
			g, ok := resp.(gossipMsg)
			if !ok {
				return
			}
			if g.Map != nil {
				o.updateMap(g.Map, g.From)
			} else if mine := o.view.Load().m; g.Epoch < mine.Epoch {
				// Peer is behind: push our map.
				o.net.Send(o.Addr(), OSDAddr(peer), gossipMsg{From: o.cfg.ID, Epoch: mine.Epoch, Map: mine})
			}
		}()
	}
}

func (o *OSD) handleGossip(g gossipMsg) gossipMsg {
	if g.Map != nil {
		o.updateMap(g.Map, g.From)
		return gossipMsg{From: o.cfg.ID, Epoch: o.Epoch()}
	}
	mine := o.view.Load().m
	if g.Epoch < mine.Epoch {
		// Sender is behind: attach our map to the reply.
		return gossipMsg{From: o.cfg.ID, Epoch: mine.Epoch, Map: mine}
	}
	return gossipMsg{From: o.cfg.ID, Epoch: mine.Epoch}
}

// ---- beacons ----

func (o *OSD) beaconLoop(stop chan struct{}) {
	defer o.wg.Done()
	// Register with the failure detector immediately so a daemon that
	// dies young is still noticed.
	ctx0, cancel0 := context.WithTimeout(context.Background(), o.cfg.BeaconInterval*2)
	o.monc.Beacon(ctx0, types.EntityOSD, o.cfg.ID)
	cancel0()
	ticker := time.NewTicker(o.cfg.BeaconInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.cfg.BeaconInterval*2)
		o.monc.Beacon(ctx, types.EntityOSD, o.cfg.ID)
		cancel()
	}
}

// ---- scrub ----

// scrubOnce compares replica digests for each PG this daemon leads and
// repairs divergent replicas by pushing its authoritative copy.
func (o *OSD) scrubOnce() {
	v := o.view.Load()
	for _, id := range o.heldPGs() {
		acting := v.actingFor(id)
		if len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		local := o.getPG(id).digests()
		for _, peer := range acting[1:] {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			resp, err := o.net.Call(ctx, o.Addr(), OSDAddr(peer), scrubMsg{Pool: id.Pool, PG: id.PG})
			cancel()
			if err != nil {
				continue
			}
			rep, ok := resp.(scrubReply)
			if !ok {
				continue
			}
			if !digestsEqual(local, rep.Digests) {
				o.mu.Lock()
				o.scrubRepairs++
				o.mu.Unlock()
				p := o.getPG(id)
				o.net.Send(o.Addr(), OSDAddr(peer), backfillMsg{
					Pool: id.Pool, PG: id.PG, Objects: p.snapshot(), Epoch: v.m.Epoch,
					Force: true, Tombstones: p.tombstones(),
				})
				ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
				o.monc.Log(ctx2, "warn", fmt.Sprintf("scrub repaired %s on osd.%d", id, peer)) //nolint:errcheck
				cancel2()
			}
		}
	}
}

func (o *OSD) handleScrub(s scrubMsg) scrubReply {
	return scrubReply{Digests: o.getPG(PGID{Pool: s.Pool, PG: s.PG}).digests()}
}

func digestsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
