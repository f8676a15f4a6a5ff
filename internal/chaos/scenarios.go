package chaos

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/zlog"
)

// scenarioList registers the fault scripts in the order `-scenario all`
// runs them. Each script draws every randomized decision from r.rng on
// its own goroutine, in source order, so the fault plan — and with it
// the event log — is a pure function of the seed.
var scenarioList = []scenario{
	{
		name:  "osd-crash-restart",
		about: "crash a random OSD mid-write, restart it, require backfill to full convergence",
		fn:    runOSDCrashRestart,
	},
	{
		name:  "primary-partition",
		about: "partition one OSD from its peers during replicated writes, heal, require scrub convergence",
		fn:    runPrimaryPartition,
	},
	{
		name:  "mon-leader-isolation",
		about: "isolate the Paxos leader during service-metadata commits, require re-election and no lost acks",
		fn:    runMonLeaderIsolation,
	},
	{
		name:  "sequencer-failover",
		about: "kill the MDS hosting the ZLog sequencer mid-append, recover, require sealed epochs and no lost appends",
		fn:    runSequencerFailover,
	},
	{
		name:  "drop-latency-spike",
		about: "sweep message-loss and latency spikes across the fabric under mixed load",
		fn:    runDropLatencySpike,
	},
	{
		name:  "dedup-churn",
		about: "overwrite deduped objects through an OSD restart, require zero leaked or dangling block refs after GC",
		fn:    runDedupChurn,
	},
	{
		name:  "replica-client-partition",
		about: "sever one OSD from every client endpoint, not from its peers, during replicated writes and ZLog appends; its acks must reach the clients as the primaries' relays",
		fn:    runReplicaClientPartition,
	},
	{
		name:  "zlog-primary-crash",
		about: "crash the primary OSD of one ZLog stripe while two clients append at 1 ms fabric delay, mark it down, recover the log; the promoted replica replays its witness records and the ZLog history must check",
		fn:    runZlogPrimaryCrash,
	},
	{
		name:  "process-crash",
		about: "hard-kill a WAL-backed OSD mid-write (torn tail), rebuild it from the log, require replay to full convergence while deduped writers run through the kill",
		fn:    runProcessCrash,
	},
}

// fastOSD is the OSD tuning every scenario uses: quick gossip so map
// convergence after heal is bounded by protocol, not by timers.
func fastOSD() rados.OSDConfig {
	return rados.OSDConfig{GossipInterval: 20 * time.Millisecond}
}

// dedupOSD adds an aggressive GC cadence on top of fastOSD. The grace
// window stays well above the restart's down-window, so a block a
// writer statted on the stopped daemon cannot be reclaimed before the
// manifest citing it lands — the same relationship a production
// deployment must maintain between grace and its failover detection
// time.
func dedupOSD() rados.OSDConfig {
	c := fastOSD()
	c.GCInterval = 20 * time.Millisecond
	c.GCGrace = 2 * time.Second
	return c
}

// runOSDCrashRestart pins satellite 5 (Stop → Start as a supported
// lifecycle): a random OSD crashes under write load, is marked down (so
// writes remap), restarts, and must rejoin gossip, catch up to the
// current epoch, and backfill to a state where scrub repairs nothing.
func runOSDCrashRestart(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 4, MDSs: 0,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
	}); err != nil {
		return err
	}
	victim := r.rng.Intn(len(r.cl.OSDs))
	w := r.watchMaps()
	monc := r.cl.NewMonClient("client.chaos.admin")
	writers := []*radosWriter{
		newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 5),
		newRadosWriter("w2", r.radosClient("client.chaos.w2"), "data", 5),
	}
	crew := newCrew()
	for _, wr := range writers {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	pause(ctx, 150*time.Millisecond)

	r.event("crash", fmt.Sprintf("osd.%d stops", victim))
	r.cl.OSDs[victim].Stop()
	if err := monc.MarkOSDDown(ctx, victim); err != nil {
		return fmt.Errorf("mark osd.%d down: %w", victim, err)
	}
	pause(ctx, 400*time.Millisecond) // degraded writes remap and continue

	r.event("restart", fmt.Sprintf("osd.%d rejoins", victim))
	if err := r.cl.OSDs[victim].Start(ctx); err != nil {
		return fmt.Errorf("restart osd.%d: %w", victim, err)
	}
	pause(ctx, 300*time.Millisecond)
	crew.halt()
	w.finish()

	monc2 := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc2) {
		r.checkReplicasConverge(ctx)
	}
	r.checkRadosDurable(ctx, writers...)
	return nil
}

// runPrimaryPartition cuts one OSD off from its peer daemons (clients
// and monitors still reach it) while replicated writes stream: replica
// forwards die in the partition, and after heal the scrub machinery
// must reconverge every PG without losing an acked write.
func runPrimaryPartition(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 3, MDSs: 0,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
	}); err != nil {
		return err
	}
	victim := r.rng.Intn(len(r.cl.OSDs))
	w := r.watchMaps()
	writers := []*radosWriter{
		newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 6),
		newRadosWriter("w2", r.radosClient("client.chaos.w2"), "data", 6),
	}
	crew := newCrew()
	for _, wr := range writers {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	pause(ctx, 150*time.Millisecond)

	for i := range r.cl.OSDs {
		if i != victim {
			r.cl.Net.Partition(rados.OSDAddr(victim), rados.OSDAddr(i))
		}
	}
	pause(ctx, 400*time.Millisecond) // divergence accumulates
	r.cl.Net.HealAll()
	pause(ctx, 200*time.Millisecond)
	crew.halt()
	w.finish()

	monc := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc) {
		r.checkReplicasConverge(ctx)
	}
	r.checkRadosDurable(ctx, writers...)
	return nil
}

// runMonLeaderIsolation partitions the initial Paxos leader (mon.0 —
// the bootstrap election is deterministic) away from its peers while
// clients commit service metadata and object writes: the survivors
// must elect a new leader, keep accepting commits, and after heal every
// acknowledged commit must be in the final map with no monitor's epoch
// ever regressing.
func runMonLeaderIsolation(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 3, OSDs: 2, MDSs: 0,
		Pools: []string{"data"}, PGNum: 8, Replicas: 2,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
	}); err != nil {
		return err
	}
	w := r.watchMaps()
	mw := newMetaWriter("m1", r.cl.NewMonClient("client.chaos.m1"))
	rw := newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 5)
	crew := newCrew()
	crew.go_(func(stop <-chan struct{}) { mw.run(ctx, stop) })
	crew.go_(func(stop <-chan struct{}) { rw.run(ctx, stop) })
	pause(ctx, 150*time.Millisecond)

	const leader = 0 // Boot elects mon.0 deterministically
	for i := 1; i < len(r.cl.Mons); i++ {
		r.cl.Net.Partition(mon.Addr(leader), mon.Addr(i))
	}
	pause(ctx, 500*time.Millisecond) // > ElectionTimeout: survivors re-elect
	r.cl.Net.HealAll()
	pause(ctx, 300*time.Millisecond) // old leader rejoins and catches up
	crew.halt()
	w.finish()

	monc := r.cl.NewMonClient("client.chaos.check")
	r.checkServiceMetaDurable(ctx, monc, mw)
	r.checkEpochsConverge(ctx, monc)
	r.checkRadosDurable(ctx, rw)
	return nil
}

// chaosLogName names the shared log the ZLog scenarios drive.
const chaosLogName = "chaoslog"

// runSequencerFailover kills the MDS rank holding the ZLog sequencer
// capability while two clients append, lets the standby rank take over,
// runs sequencer recovery, and then audits the full CORFU contract:
// sealed epochs reject stale writes, every acked append is intact, and
// no rank ever had two concurrent capability holders.
func runSequencerFailover(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 3, MDSs: 2,
		Pools: []string{"data"}, PGNum: 8, Replicas: 2,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
		MDS: mds.Config{
			RecallTimeout: 150 * time.Millisecond,
			JournalEvery:  8,
		},
	}); err != nil {
		return err
	}
	const width = 4
	openLog := func(self string) (*zlog.Log, error) {
		return zlog.Open(ctx, r.cl.Net, wire.Addr(self), r.cl.MonIDs(), zlog.Options{
			Name: chaosLogName, Pool: "data", Width: width,
			SeqPolicy: mds.CapPolicy{Cacheable: true, Quota: 32},
		})
	}
	admin, err := openLog("client.chaos.admin")
	if err != nil {
		return fmt.Errorf("open admin log: %w", err)
	}
	defer admin.Close()
	var appenders []*zlogAppender
	crew := newCrew()
	for i := 1; i <= 2; i++ {
		l, err := openLog(fmt.Sprintf("client.chaos.a%d", i))
		if err != nil {
			return fmt.Errorf("open appender log: %w", err)
		}
		defer l.Close()
		a := newZlogAppender(fmt.Sprintf("a%d", i), l)
		appenders = append(appenders, a)
		crew.go_(func(stop <-chan struct{}) { a.run(ctx, stop) })
	}
	w := r.watchMaps()
	monc := r.cl.NewMonClient("client.chaos.adminmon")
	pause(ctx, 300*time.Millisecond)

	r.event("crash", "mds.0 (sequencer authority) stops")
	r.cl.MDSs[0].Stop()
	if err := monc.MarkMDSDown(ctx, 0); err != nil {
		return fmt.Errorf("mark mds.0 down: %w", err)
	}
	pause(ctx, 500*time.Millisecond) // rank 1 replays the journal and adopts

	if err := r.recoverLog(ctx, admin, monc, width); err != nil {
		return err
	}
	pause(ctx, 300*time.Millisecond) // stale appenders resync and continue
	crew.halt()
	w.finish()

	rc := r.radosClient("client.chaos.probe")
	r.checkSealedEpochRejects(ctx, rc, monc, admin, "data", chaosLogName, width)
	r.checkZlogHistory(ctx, admin, appenders...)
	r.checkCapHistories()
	r.checkEpochsConverge(ctx, monc)
	return nil
}

// recoverLog runs sequencer recovery: the healthy protocol by default,
// or — when the fixture knob SkipSealOnRecovery is set — a deliberately
// broken variant that publishes the new epoch and reinstalls the tail
// WITHOUT sealing the stripes, exactly the lost-update bug the
// sealed-epoch checker exists to catch.
func (r *run) recoverLog(ctx context.Context, l *zlog.Log, monc *mon.Client, width int) error {
	if r.opts.SkipSealOnRecovery {
		r.event("recover", "BROKEN: epoch bump without seal (fixture mode)")
		return r.brokenRecover(ctx, l, monc, width)
	}
	r.event("recover", "sequencer recovery (seal + tail reinstall)")
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = l.Recover(ctx); err == nil {
			return nil
		}
		pause(ctx, 50*time.Millisecond)
	}
	return fmt.Errorf("recovery never succeeded: %w", err)
}

// brokenRecover mimics a recovery implementation that forgot the seal
// step: it bumps the published epoch and recomputes the tail from the
// stripes' max positions, but never installs the epoch on the stripe
// objects — so stale clients' writes still land.
func (r *run) brokenRecover(ctx context.Context, l *zlog.Log, monc *mon.Client, width int) error {
	cur, err := publishedEpoch(ctx, monc, chaosLogName)
	if err != nil {
		return err
	}
	next := cur + 1
	if err := monc.SetService(ctx, types.MapOSD, zlog.EpochKey(chaosLogName),
		strconv.FormatUint(next, 10)); err != nil {
		return err
	}
	// Read each stripe's max position under the new epoch — but never
	// seal, so the old epoch stays valid on the storage class.
	rc := r.radosClient("client.chaos.brokenrec")
	epochArg := []byte(strconv.FormatUint(next, 10))
	maxPos := int64(-1)
	for i := 0; i < width; i++ {
		obj := chaosLogName + "." + strconv.Itoa(i)
		out, err := rc.Call(ctx, "data", obj, zlog.ClassName, "maxpos", epochArg)
		if err != nil {
			return fmt.Errorf("maxpos %s: %w", obj, err)
		}
		mp, perr := strconv.ParseInt(string(out), 10, 64)
		if perr != nil {
			return fmt.Errorf("maxpos %s returned %q", obj, out)
		}
		if mp > maxPos {
			maxPos = mp
		}
	}
	return l.MDS().SetValue(ctx, zlog.SeqPath(chaosLogName), uint64(maxPos+1))
}

// runZlogPrimaryCrash kills the primary OSD of one stripe of a shared
// log while two clients append through a round-trip sequencer at a 1 ms
// fabric delay. The appends are witnessed class calls
// (rados.Client.CallWitnessed), and the crash lands between an append's
// answer and its forwards: the victim is cut off from its peers, then
// stopped as soon as a replica of the stripe holds a witness record, so
// that append lives on only in its replicas' records. Marking the victim
// down promotes a replica, which must replay the records before serving
// the stripe. A sequencer
// recovery then seals every stripe — a mutation that is not witnessed,
// which must not overtake a witnessed one still in flight. After heal
// the ZLog history must check, the replicas converge, and the sealed
// epoch reject a stale write. The victim stays down.
func runZlogPrimaryCrash(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 4, MDSs: 1,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
		MDS:              mds.Config{RecallTimeout: 150 * time.Millisecond},
	}); err != nil {
		return err
	}
	const width = 4
	openLog := func(self string) (*zlog.Log, error) {
		return zlog.Open(ctx, r.cl.Net, wire.Addr(self), r.cl.MonIDs(), zlog.Options{
			Name: chaosLogName, Pool: "data", Width: width, SeqPolicy: mds.CapPolicy{},
		})
	}
	admin, err := openLog("client.chaos.admin")
	if err != nil {
		return fmt.Errorf("open admin log: %w", err)
	}
	defer admin.Close()
	stripe := fmt.Sprintf("%s.%d", chaosLogName, r.rng.Intn(width))
	probe := r.radosClient("client.chaos.probe")
	if err := probe.RefreshMap(ctx); err != nil {
		return err
	}
	_, acting, err := rados.Locate(probe.CachedMap(), "data", stripe)
	if err != nil {
		return err
	}
	victim := acting[0]
	r.cl.Net.SetLatency(time.Millisecond, 0)
	var appenders []*zlogAppender
	crew := newCrew()
	for i := 1; i <= 2; i++ {
		l, err := openLog(fmt.Sprintf("client.chaos.a%d", i))
		if err != nil {
			return fmt.Errorf("open appender log: %w", err)
		}
		defer l.Close()
		a := newZlogAppender(fmt.Sprintf("a%d", i), l)
		appenders = append(appenders, a)
		crew.go_(func(stop <-chan struct{}) { a.run(ctx, stop) })
	}
	w := r.watchMaps()
	monc := r.cl.NewMonClient("client.chaos.adminmon")
	pause(ctx, 300*time.Millisecond)

	r.event("crash", fmt.Sprintf("osd.%d (primary of %s) cut off from its peers and stopped", victim, stripe))
	for id := range r.cl.OSDs {
		if id != victim {
			r.cl.Net.Partition(rados.OSDAddr(victim), rados.OSDAddr(id))
		}
	}
	// Stop it once a replica of the stripe holds a witness record there:
	// that append's forwards now fail, so it lives on only in the victim
	// and in its replicas' records. Stopping at once keeps the window
	// short in which the victim answers appends it cannot replicate.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if r.cl.OSDs[acting[1]].HoldsWitness("data", stripe) || r.cl.OSDs[acting[2]].HoldsWitness("data", stripe) {
			break
		}
	}
	r.stopOSD(victim)
	if err := monc.MarkOSDDown(ctx, victim); err != nil {
		return fmt.Errorf("mark osd.%d down: %w", victim, err)
	}
	r.cl.Net.HealAll()
	pause(ctx, 400*time.Millisecond) // the promoted replica replays; appends go on

	if err := r.recoverLog(ctx, admin, monc, width); err != nil {
		return err
	}
	pause(ctx, 300*time.Millisecond)
	crew.halt()
	w.finish()
	r.cl.Net.SetLatency(0, 0)

	if r.checkEpochsConverge(ctx, monc) {
		r.checkReplicasConverge(ctx)
	}
	r.checkSealedEpochRejects(ctx, probe, monc, admin, "data", chaosLogName, width)
	r.checkZlogHistory(ctx, admin, appenders...)
	return nil
}

// runDedupChurn drives the content-addressed write path under churn:
// two writers overwrite deduped objects (sliding windows over
// duplicate-heavy corpora, so every overwrite cites some new blocks and
// drops others) while the background GC sweeps and one OSD restarts
// gracefully. Afterwards every acked manifest must reassemble
// byte-for-byte, and once the GC quiesces a cluster-wide audit must
// find no leaked, dangling or corrupt block.
func runDedupChurn(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 4, MDSs: 0,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              dedupOSD(),
	}); err != nil {
		return err
	}
	victim := r.rng.Intn(len(r.cl.OSDs))
	seed1, seed2 := r.rng.Int63(), r.rng.Int63()
	w := r.watchMaps()
	monc := r.cl.NewMonClient("client.chaos.admin")
	writers := []*dedupWriter{
		newDedupWriter("d1", r.radosClient("client.chaos.d1"), "data", 3, seed1),
		newDedupWriter("d2", r.radosClient("client.chaos.d2"), "data", 3, seed2),
	}
	crew := newCrew()
	for _, wr := range writers {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	pause(ctx, 250*time.Millisecond)

	r.event("crash", fmt.Sprintf("osd.%d stops gracefully", victim))
	r.cl.OSDs[victim].Stop()
	if err := monc.MarkOSDDown(ctx, victim); err != nil {
		return fmt.Errorf("mark osd.%d down: %w", victim, err)
	}
	pause(ctx, 400*time.Millisecond) // degraded deduped writes remap and continue

	r.event("restart", fmt.Sprintf("osd.%d rejoins", victim))
	if err := r.cl.OSDs[victim].Start(ctx); err != nil {
		return fmt.Errorf("restart osd.%d: %w", victim, err)
	}
	pause(ctx, 300*time.Millisecond)
	crew.halt()
	w.finish()

	monc2 := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc2) {
		r.checkReplicasConverge(ctx)
	}
	r.checkDedupDurable(ctx, writers...)
	r.checkDedupGC(ctx, "data")
	// Reclaims travel the ordinary replicated op path, so a final scrub
	// pass must still find nothing to repair.
	r.checkReplicasConverge(ctx)
	return nil
}

// walOSD tunes a durably backed daemon for the process-crash scenario:
// fast gossip, frequent checkpoint compaction, and no background GC
// sweeper, so every reclaim happens in the checker's zero-grace sweeps,
// after the writers stop, against the manifests the rebuilt daemon
// replayed. The grace window still dwarfs the down-window, as in
// dedupOSD.
func walOSD() rados.OSDConfig {
	c := fastOSD()
	c.GCGrace = 2 * time.Second
	c.CheckpointInterval = 100 * time.Millisecond
	return c
}

// runProcessCrash is the durable-backend gate: every daemon journals to
// a write-ahead log on disk, one is hard-killed mid-write — kill -9
// semantics: buffered appends drop and the log tail tears — and a fresh
// daemon is rebuilt over the same WAL directory while the flat and the
// deduped writers run through the kill and the rebuild. The rebuilt
// daemon must replay the journal past its last checkpoint, truncate the
// torn tail, rejoin, and converge: every acked write (flat and deduped)
// survives, and the dedup audit comes up clean — the manifests it
// replayed are the only record of which blocks they cite.
func runProcessCrash(ctx context.Context, r *run) error {
	root, cleanup, err := r.walRoot()
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := walOSD()
	cfg.SkipRemoteCensus = r.opts.SkipRemoteCensus
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 4, MDSs: 0,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              cfg,
		OSDBackend: func(id int) (rados.Backend, error) {
			return rados.OpenWALBackend(filepath.Join(root, fmt.Sprintf("osd.%d", id)), rados.WALBackendOptions{})
		},
	}); err != nil {
		return err
	}
	victim := r.rng.Intn(len(r.cl.OSDs))
	seed1, seed2 := r.rng.Int63(), r.rng.Int63()
	w := r.watchMaps()
	monc := r.cl.NewMonClient("client.chaos.admin")
	dws := []*dedupWriter{
		newDedupWriter("d1", r.radosClient("client.chaos.d1"), "data", 3, seed1),
		newDedupWriter("d2", r.radosClient("client.chaos.d2"), "data", 3, seed2),
	}
	rws := []*radosWriter{
		newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 5),
		newRadosWriter("w2", r.radosClient("client.chaos.w2"), "data", 5),
	}
	crew := newCrew()
	for _, wr := range dws {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	for _, wr := range rws {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	pause(ctx, 250*time.Millisecond)

	r.event("crash", fmt.Sprintf("osd.%d killed (kill -9: WAL tail torn)", victim))
	r.cl.OSDs[victim].Crash()
	if err := monc.MarkOSDDown(ctx, victim); err != nil {
		return fmt.Errorf("mark osd.%d down: %w", victim, err)
	}
	pause(ctx, 400*time.Millisecond) // degraded writes remap and continue

	r.event("restart", fmt.Sprintf("osd.%d rebuilt from its WAL", victim))
	if err := r.cl.RebuildOSD(ctx, victim); err != nil {
		return fmt.Errorf("rebuild osd.%d: %w", victim, err)
	}
	rep := r.cl.OSDs[victim].ReplayReport()
	pause(ctx, 300*time.Millisecond)
	crew.halt()
	w.finish()

	monc2 := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc2) {
		r.checkReplicasConverge(ctx)
	}
	r.checkRadosDurable(ctx, rws...)
	r.checkDedupDurable(ctx, dws...)
	r.checkWALReplay(rep)
	r.checkDedupGC(ctx, "data")
	// Reclaims travel the ordinary replicated op path, so a final scrub
	// pass must still find nothing to repair.
	r.checkReplicasConverge(ctx)
	// Stop the cluster before the deferred cleanup removes the journal
	// directories out from under the daemons (Run's own Stop is an
	// idempotent no-op after this).
	r.cl.Stop()
	return nil
}

// runDropLatencySpike sweeps rounds of global loss, per-link loss, and
// latency spikes (all magnitudes drawn from the seed) across the fabric
// while a ZLog appender and an object writer stream, then clears every
// fault and audits the full invariant set.
func runDropLatencySpike(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 3, MDSs: 1,
		Pools: []string{"data"}, PGNum: 8, Replicas: 2,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
		MDS:              mds.Config{RecallTimeout: 150 * time.Millisecond},
	}); err != nil {
		return err
	}
	l, err := zlog.Open(ctx, r.cl.Net, wire.Addr("client.chaos.a1"), r.cl.MonIDs(), zlog.Options{
		Name: chaosLogName, Pool: "data", Width: 4,
		SeqPolicy: mds.CapPolicy{Cacheable: true, Quota: 32},
	})
	if err != nil {
		return fmt.Errorf("open log: %w", err)
	}
	defer l.Close()
	w := r.watchMaps()
	a := newZlogAppender("a1", l)
	rw := newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 5)
	crew := newCrew()
	crew.go_(func(stop <-chan struct{}) { a.run(ctx, stop) })
	crew.go_(func(stop <-chan struct{}) { rw.run(ctx, stop) })
	pause(ctx, 100*time.Millisecond)

	for round := 0; round < 3; round++ {
		// All draws happen here, in fixed order, on this goroutine.
		drop := 0.10 + 0.25*r.rng.Float64()
		lat := time.Duration(r.rng.Intn(3)) * time.Millisecond
		x := r.rng.Intn(len(r.cl.OSDs))
		y := (x + 1 + r.rng.Intn(len(r.cl.OSDs)-1)) % len(r.cl.OSDs)
		linkDrop := 0.2 + 0.4*r.rng.Float64()

		r.event("spike", fmt.Sprintf("round %d: drop=%.2f latency=%s link osd.%d<->osd.%d drop=%.2f",
			round, drop, lat, x, y, linkDrop))
		r.cl.Net.SetDropRate(drop)
		r.cl.Net.SetLatency(lat, lat/2)
		r.cl.Net.SetLinkDropRate(rados.OSDAddr(x), rados.OSDAddr(y), linkDrop)
		pause(ctx, 250*time.Millisecond)

		r.cl.Net.SetDropRate(0)
		r.cl.Net.SetLatency(0, 0)
		r.cl.Net.SetLinkDropRate(rados.OSDAddr(x), rados.OSDAddr(y), 0)
		pause(ctx, 150*time.Millisecond)
	}
	r.cl.Net.HealAll()
	pause(ctx, 200*time.Millisecond)
	crew.halt()
	w.finish()

	monc := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc) {
		r.checkReplicasConverge(ctx)
	}
	r.checkRadosDurable(ctx, rw)
	r.checkZlogHistory(ctx, l, a)
	r.checkCapHistories()
	return nil
}

// runReplicaClientPartition severs one OSD from every client endpoint of
// the scenario while replicated writes and ZLog appends stream, and
// leaves it connected to its peers and the monitor. As a replica it
// still applies every forward, but its acks cannot reach the clients,
// so each op it replicates completes on its primary's relay (or, when a
// relay is lost too, on the client's re-send answered by the replay
// cache). As a primary it is unreachable: those ops fail for the window
// with their fate unknown, which the checkers allow. After heal every
// acknowledged write and append must be durable and every replica
// converged.
func runReplicaClientPartition(ctx context.Context, r *run) error {
	if err := r.boot(core.Options{
		Mons: 1, OSDs: 3, MDSs: 1,
		Pools: []string{"data"}, PGNum: 8, Replicas: 3,
		ProposalInterval: 5 * time.Millisecond,
		OSD:              fastOSD(),
		MDS:              mds.Config{RecallTimeout: 150 * time.Millisecond},
	}); err != nil {
		return err
	}
	const appender = "client.chaos.a1"
	l, err := zlog.Open(ctx, r.cl.Net, appender, r.cl.MonIDs(), zlog.Options{
		Name: chaosLogName, Pool: "data", Width: 4,
		SeqPolicy: mds.CapPolicy{Cacheable: true, Quota: 32},
	})
	if err != nil {
		return fmt.Errorf("open log: %w", err)
	}
	defer l.Close()
	victim := r.rng.Intn(len(r.cl.OSDs))
	w := r.watchMaps()
	a := newZlogAppender("a1", l)
	writers := []*radosWriter{
		newRadosWriter("w1", r.radosClient("client.chaos.w1"), "data", 6),
		newRadosWriter("w2", r.radosClient("client.chaos.w2"), "data", 6),
	}
	crew := newCrew()
	crew.go_(func(stop <-chan struct{}) { a.run(ctx, stop) })
	for _, wr := range writers {
		wr := wr
		crew.go_(func(stop <-chan struct{}) { wr.run(ctx, stop) })
	}
	pause(ctx, 150*time.Millisecond)

	// The log's storage client listens at its address plus ".rados".
	for _, c := range []wire.Addr{"client.chaos.w1", "client.chaos.w2", appender, appender + ".rados"} {
		r.cl.Net.Partition(rados.OSDAddr(victim), c)
	}
	pause(ctx, 500*time.Millisecond)
	r.cl.Net.HealAll()
	pause(ctx, 200*time.Millisecond)
	crew.halt()
	w.finish()

	monc := r.cl.NewMonClient("client.chaos.check")
	if r.checkEpochsConverge(ctx, monc) {
		r.checkReplicasConverge(ctx)
	}
	r.checkRadosDurable(ctx, writers...)
	r.checkZlogHistory(ctx, l, a)
	return nil
}
