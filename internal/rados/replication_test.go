package rados

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mon"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// clusterOpts parameterizes bootClusterOpts beyond what bootCluster
// fixes: fabric shaping, daemon configuration, and gossip cadence (the
// message-complexity tests need a quiet fabric).
type clusterOpts struct {
	osds     int
	replicas int
	netOpts  []wire.Option
	osd      OSDConfig // template; ID/Mons filled per daemon
	// monFanout is the monitor's direct-push bound (0 = every subscriber).
	monFanout int
}

func bootClusterOpts(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	net := wire.NewNetwork(opts.netOpts...)
	tc := &testCluster{net: net}

	m := mon.New(net, mon.Config{
		ID: 0, Peers: []int{0},
		ProposalInterval: 5 * time.Millisecond,
		GossipFanout:     opts.monFanout,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   200 * time.Millisecond,
		},
	})
	m.Start()
	if err := m.Lead(context.Background()); err != nil {
		t.Fatal(err)
	}
	tc.mons = append(tc.mons, m)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	boot := mon.NewClient(net, "client.boot", []int{0})
	if err := boot.CreatePool(ctx, "data", 8, opts.replicas); err != nil {
		t.Fatal(err)
	}
	// The daemons start concurrently, as core.Boot starts them.
	tc.osds = make([]*OSD, opts.osds)
	errs := make([]error, opts.osds)
	var wg sync.WaitGroup
	for i := range tc.osds {
		cfg := opts.osd
		cfg.ID = i
		cfg.Mons = []int{0}
		if cfg.GossipInterval == 0 {
			cfg.GossipInterval = 20 * time.Millisecond
		}
		tc.osds[i] = NewOSD(net, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tc.osds[i].Start(ctx)
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, o := range tc.osds {
			o.Stop()
		}
		m.Stop()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	tc.client = NewClient(net, "client.0", []int{0})
	if err := tc.client.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	return tc
}

// samePGName finds an object name in the same placement group as base
// (pool "data" has PGNum 8 in these tests).
func samePGName(base, prefix string, pgnum int) string {
	want := PGForObject(base, pgnum)
	for i := 0; ; i++ {
		s := fmt.Sprintf("%s-%d", prefix, i)
		if PGForObject(s, pgnum) == want {
			return s
		}
	}
}

// TestReplicatedWriteMessageComplexity pins down the message cost of a
// replicas=3 mutation on a healthy fabric: exactly 1 client→primary
// call, 2 primary→replica forwards in flight concurrently (the
// per-endpoint high-water mark reaches 2), 1 ack from each replica to
// the client, and no relay.
func TestReplicatedWriteMessageComplexity(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		osd: OSDConfig{GossipInterval: time.Hour}, // quiet fabric: only op traffic
	})
	ctx := ctxT(t, 10*time.Second)

	// Warm-up settles the client's map epoch so the measured write needs
	// no EMapStale resync round-trips.
	if err := tc.client.WriteFull(ctx, "data", "counted", []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	m := tc.client.CachedMap()
	_, acting, err := Locate(m, "data", "counted")
	if err != nil {
		t.Fatal(err)
	}
	if len(acting) != 3 {
		t.Fatalf("acting set = %v, want 3 OSDs", acting)
	}
	primary := OSDAddr(acting[0])

	// Give the fabric real latency so the two replica forwards overlap
	// in flight (instant delivery would let one finish before the other
	// starts and hide the concurrency from the gauge).
	tc.net.SetLatency(time.Millisecond, 0)
	before := tc.net.Stats()
	if err := tc.client.WriteFull(ctx, "data", "counted", []byte("measured")); err != nil {
		t.Fatal(err)
	}
	after := tc.net.Stats()
	calls := func(a wire.Addr) uint64 { return after.Outbound[a].Calls - before.Outbound[a].Calls }

	if got := calls("client.0"); got != 1 {
		t.Errorf("client calls = %d, want exactly 1", got)
	}
	if got := calls(primary); got != 2 {
		t.Errorf("primary calls = %d, want exactly 2 forwards and no relay", got)
	}
	for _, id := range acting[1:] {
		if got := calls(OSDAddr(id)); got != 1 {
			t.Errorf("osd.%d calls = %d, want exactly 1 ack to the client", id, got)
		}
	}
	if got := after.Outbound[primary].MaxInflight; got < 2 {
		t.Errorf("primary outbound MaxInflight = %d, want >= 2 (parallel fan-out)", got)
	}
}

// An uncontended witnessed replicas=3 call costs the client one call to
// the primary and one witness call per replica, and the primary its two
// forwards; the replicas, whose acceptances answered the client, send no
// ack, and the primary relays nothing.
func TestWitnessedCallMessageComplexity(t *testing.T) {
	tc := witnessCluster(t, time.Millisecond, "wc")
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wc")
	primary := OSDAddr(acting[0])
	before := tc.net.Stats()
	if _, err := tc.client.CallWitnessed(ctx, "data", "wc", "wk", "put", []byte("1")); err != nil {
		t.Fatal(err)
	}
	settleFanOut(t, tc, primary)
	after := tc.net.Stats()
	calls := func(a wire.Addr) uint64 { return after.Outbound[a].Calls - before.Outbound[a].Calls }
	if got := calls(tc.client.self); got != 3 {
		t.Errorf("client calls = %d, want 3: the primary and 2 witness copies", got)
	}
	if got := calls(primary); got != 2 {
		t.Errorf("primary calls = %d, want 2 forwards and no relay", got)
	}
	for _, id := range acting[1:] {
		if got := calls(OSDAddr(id)); got != 0 {
			t.Errorf("osd.%d calls = %d, want 0: its acceptance answered the client", id, got)
		}
	}
	checkCopiesEqual(t, tc, "wc")
}

// A replica holding another op's record on the object rejects the
// witness copy; the call then costs that replica's ack of the install,
// and nothing else.
func TestRejectedWitnessCostsTheInstallAck(t *testing.T) {
	tc := witnessCluster(t, time.Millisecond, "wr")
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wr")
	primary, busy := OSDAddr(acting[0]), tc.osds[acting[1]]
	k := witKey{"data", "wr"}
	other := &witnessRecord{op: OpRequest{Pool: "data", Object: "wr", Client: "client.other", OpID: 1}, at: time.Now().Add(time.Hour)}
	busy.witMu.Lock()
	busy.wits[k] = other
	busy.witN.Add(1)
	busy.witMu.Unlock()
	defer func() {
		busy.witMu.Lock()
		busy.deleteWitnessLocked(k, other)
		busy.witMu.Unlock()
	}()

	before := tc.net.Stats()
	if _, err := tc.client.CallWitnessed(ctx, "data", "wr", "wk", "put", []byte("1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for records(tc.osds[acting[2]]) > 0 || tc.net.Stats().Outbound[primary].Inflight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("fan-out not settled")
		}
		time.Sleep(time.Millisecond)
	}
	after := tc.net.Stats()
	calls := func(a wire.Addr) uint64 { return after.Outbound[a].Calls - before.Outbound[a].Calls }
	if got := calls(tc.client.self); got != 3 {
		t.Errorf("client calls = %d, want 3", got)
	}
	if got := calls(primary); got != 2 {
		t.Errorf("primary calls = %d, want 2 forwards and no relay", got)
	}
	if got := calls(busy.Addr()); got != 1 {
		t.Errorf("rejecting osd.%d calls = %d, want 1: its install ack", busy.cfg.ID, got)
	}
	if got := calls(OSDAddr(acting[2])); got != 0 {
		t.Errorf("accepting osd.%d calls = %d, want 0", acting[2], got)
	}
	if records(busy) != 1 {
		t.Errorf("osd.%d lost the record it held for another op", busy.cfg.ID)
	}
	checkCopiesEqual(t, tc, "wr")
}

// Rule 1: a witnessed call that fails at the primary is answered only
// once no replica holds its record, so no takeover can replay what its
// client was told failed.
func TestWitnessedFailureLeavesNoRecord(t *testing.T) {
	tc := witnessCluster(t, 2*time.Millisecond, "wf")
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wf")
	if _, err := tc.client.CallWitnessed(ctx, "data", "wf", "wk", "put", []byte("1")); err != nil {
		t.Fatal(err)
	}
	settleFanOut(t, tc, OSDAddr(acting[0]))
	_, err := tc.client.CallWitnessed(ctx, "data", "wf", "wk", "put", []byte("1"))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("second write of one position = %v, want ErrExists", err)
	}
	for _, id := range acting[1:] {
		if n := records(tc.osds[id]); n != 0 {
			t.Errorf("osd.%d holds %d witness records after the client saw EEXIST", id, n)
		}
	}
}

// TestReplicatedWriteIsThreeHops shapes the fabric at 20ms one-way and
// shows a replicas=3 write costs three one-way hops: client to primary,
// primary to replicas in parallel, replicas to client (~60ms). A primary
// that waited for its replicas before replying would add a fourth
// (~80ms), and forwards sent one after another more. At 20ms the 1.09ms
// timer quantum of each sleep is noise next to the 10ms a hop's margin
// leaves.
func TestReplicatedWriteIsThreeHops(t *testing.T) {
	const hop = 20 * time.Millisecond
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		osd: OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 30*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "timed", []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	tc.net.SetLatency(hop, 0)
	const rounds = 5
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := tc.client.WriteFull(ctx, "data", "timed", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	avg := time.Since(start) / rounds
	t.Logf("avg write latency at %v fabric: %v", hop, avg)
	if limit := 7 * hop / 2; avg >= limit {
		t.Errorf("write took %v, want < %v (3.5 hops)", avg, limit)
	}
}

// TestPerObjectConcurrency holds one object's slot lock (a stand-in for
// a slow write or class call on it) and shows operations on a sibling
// object in the same PG proceed unimpeded — the property the PG-wide
// lock could not give.
func TestPerObjectConcurrency(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 15*time.Second)

	m := tc.client.CachedMap()
	pgnum := m.Pools["data"].PGNum
	blocked := "blocked"
	sibling := samePGName(blocked, "free", pgnum)
	for _, name := range []string{blocked, sibling} {
		if err := tc.client.WriteFull(ctx, "data", name, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	_, acting, err := Locate(m, "data", blocked)
	if err != nil {
		t.Fatal(err)
	}
	primary := tc.osds[acting[0]]
	pgid := PGID{Pool: "data", PG: PGForObject(blocked, pgnum)}
	e := primary.getPG(pgid).entry(blocked)

	e.mu.Lock()
	writeDone := make(chan error, 1)
	go func() {
		wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		writeDone <- tc.client.WriteFull(wctx, "data", blocked, []byte("stalled"))
	}()

	// While the write on "blocked" is stuck behind its object lock, a
	// read of the sibling in the same PG must complete promptly.
	rctx, rcancel := context.WithTimeout(ctx, 2*time.Second)
	got, err := tc.client.Read(rctx, "data", sibling)
	rcancel()
	if err != nil {
		e.mu.Unlock()
		t.Fatalf("sibling read blocked behind another object's lock: %v", err)
	}
	if string(got) != "seed" {
		e.mu.Unlock()
		t.Fatalf("sibling read = %q", got)
	}
	select {
	case err := <-writeDone:
		e.mu.Unlock()
		t.Fatalf("write to locked object completed while lock held (err=%v)", err)
	default:
	}
	e.mu.Unlock()
	if err := <-writeDone; err != nil {
		t.Fatalf("write after release: %v", err)
	}
}

// TestOpPathTakesNoDaemonLock holds every daemon's OSD-wide mutex and
// shows a replicated write and a read of an existing object complete
// anyway: an op finds its placement group with one atomic load of the
// copy-on-write PG table, and only creating a PG takes o.mu.
func TestOpPathTakesNoDaemonLock(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 15*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "obj", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	for _, o := range tc.osds {
		o.mu.Lock()
	}
	unlock := func() {
		for _, o := range tc.osds {
			o.mu.Unlock()
		}
	}
	done := make(chan error, 1)
	go func() {
		err := tc.client.WriteFull(ctx, "data", "obj", []byte("again"))
		if err == nil {
			_, err = tc.client.Read(ctx, "data", "obj")
		}
		done <- err
	}()
	select {
	case err := <-done:
		unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		unlock()
		<-done
		t.Fatal("a write and a read of an existing object waited for the daemon-wide lock")
	}
}

// TestReplicaConvergenceConcurrentWriters races writers against one hot
// object and sibling objects in the same PG over a jittery fabric (so
// parallel fan-outs genuinely cross), then asserts every replica holds
// byte-identical state in the primary's per-object version order and
// that a scrub round finds nothing to repair.
func TestReplicaConvergenceConcurrentWriters(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		netOpts: []wire.Option{wire.WithLatency(200*time.Microsecond, 300*time.Microsecond)},
		osd:     OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 60*time.Second)

	m := tc.client.CachedMap()
	pgnum := m.Pools["data"].PGNum
	hot := "hot"
	siblings := []string{
		samePGName(hot, "sib-a", pgnum),
		samePGName(hot, "sib-b", pgnum),
	}

	const writers, opsPerWriter = 4, 20
	var wg sync.WaitGroup
	errCh := make(chan error, writers+len(siblings))
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(tc.net, wire.Addr(fmt.Sprintf("client.w%d", w)), []int{0})
			if err := cl.RefreshMap(ctx); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < opsPerWriter; i++ {
				if err := cl.Append(ctx, "data", hot, []byte(fmt.Sprintf("[w%d:%d]", w, i))); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for si, name := range siblings {
		si, name := si, name
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(tc.net, wire.Addr(fmt.Sprintf("client.s%d", si)), []int{0})
			if err := cl.RefreshMap(ctx); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < opsPerWriter; i++ {
				if err := cl.WriteFull(ctx, "data", name, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Acks are synchronous, so once every client op returned the
	// replicas have applied everything. Compare them to the primary.
	for _, name := range append([]string{hot}, siblings...) {
		_, acting, err := Locate(m, "data", name)
		if err != nil {
			t.Fatal(err)
		}
		wantData, wantVer := replicaState(tc.osds[acting[0]], name)
		if name == hot && wantVer != writers*opsPerWriter {
			t.Errorf("%s: primary version = %d, want %d", name, wantVer, writers*opsPerWriter)
		}
		for _, rep := range acting[1:] {
			gotData, gotVer := replicaState(tc.osds[rep], name)
			if gotVer != wantVer {
				t.Errorf("%s: osd.%d version = %d, primary has %d", name, rep, gotVer, wantVer)
			}
			if gotData != wantData {
				t.Errorf("%s: osd.%d data diverged from primary (len %d vs %d)", name, rep, len(gotData), len(wantData))
			}
		}
	}

	// A scrub round across the cluster must find nothing to repair.
	for _, osd := range tc.osds {
		osd.scrubOnce()
	}
	for _, osd := range tc.osds {
		if n := osd.ScrubRepairs(); n != 0 {
			t.Errorf("osd repaired %d divergent replicas, want 0", n)
		}
	}
}

// TestClientTypedRetryError exhausts the client's retry budget against
// an unreachable primary and checks the typed sentinel surfaces.
func TestClientTypedRetryError(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 1, replicas: 1, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 15*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Kill the only OSD; with no beacons the map never changes, so every
	// retry re-targets the dead primary until the budget runs out.
	tc.osds[0].Stop()
	err := tc.client.WriteFull(ctx, "data", "obj", []byte("y"))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}
