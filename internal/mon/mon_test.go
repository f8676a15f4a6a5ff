package mon

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/types"
	"repro/internal/wire"
)

// testQuorum boots n monitors with fast timing and elects monitor 0.
func testQuorum(t *testing.T, net *wire.Network, n int) []*Monitor {
	t.Helper()
	return testQuorumFanout(t, net, n, 0)
}

// testQuorumFanout is testQuorum with a direct-push bound per monitor.
func testQuorumFanout(t *testing.T, net *wire.Network, n, fanout int) []*Monitor {
	t.Helper()
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	var mons []*Monitor
	for i := 0; i < n; i++ {
		m := New(net, Config{
			ID:               i,
			Peers:            peers,
			ProposalInterval: 5 * time.Millisecond,
			GossipFanout:     fanout,
			Paxos: paxos.Config{
				HeartbeatInterval: 10 * time.Millisecond,
				ElectionTimeout:   100 * time.Millisecond,
			},
		})
		m.Start()
		mons = append(mons, m)
	}
	if err := mons[0].Lead(context.Background()); err != nil {
		t.Fatalf("initial election: %v", err)
	}
	t.Cleanup(func() {
		for _, m := range mons {
			m.Stop()
		}
	})
	return mons
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestServiceMetadataRoundTrip(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.SetService(ctx, types.MapOSD, "zlog.epoch", "7"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service["zlog.epoch"] != "7" {
		t.Fatalf("service data = %v", m.Service)
	}
	if m.Epoch == 0 {
		t.Fatal("epoch not bumped")
	}
}

func TestEpochMonotonic(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 10*time.Second)

	var last types.Epoch
	for i := 0; i < 5; i++ {
		if err := c.SetService(ctx, types.MapOSD, "k", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
		m, err := c.GetOSDMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Epoch <= last {
			t.Fatalf("epoch %d not greater than %d", m.Epoch, last)
		}
		last = m.Epoch
	}
}

func TestAllMonitorsConverge(t *testing.T) {
	net := wire.NewNetwork()
	mons := testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.InstallClass(ctx, "zlog", "function seal() end", "logging"); err != nil {
		t.Fatal(err)
	}
	// Every monitor's local state machine must converge to the same map.
	deadline := time.Now().Add(3 * time.Second)
	for _, m := range mons {
		for {
			m.mu.Lock()
			_, ok := m.osdMap.Classes["zlog"]
			m.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mon.%d never learned the class", m.cfg.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestClassVersioningIncrements(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	for i := 0; i < 3; i++ {
		if err := c.InstallClass(ctx, "seq", fmt.Sprintf("-- v%d", i), "metadata"); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cls := m.Classes["seq"]
	if cls.Version != 3 {
		t.Fatalf("class version = %d, want 3", cls.Version)
	}
	if cls.Script != "-- v2" {
		t.Fatalf("script = %q", cls.Script)
	}
}

func TestSubmitViaFollowerForwards(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	// Talk only to a follower; it must forward to the leader.
	c := NewClient(net, "client.0", []int{2})
	ctx := ctxT(t, 5*time.Second)
	if err := c.SetService(ctx, types.MapOSD, "via", "follower"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service["via"] != "follower" {
		t.Fatal("forwarded update not applied")
	}
}

func TestBeaconSilenceMarksDaemonsDown(t *testing.T) {
	// The failure detector: an OSD and an MDS rank that beaconed once
	// and then went silent are both proposed down once BeaconTimeout
	// passes.
	net := wire.NewNetwork()
	m := New(net, Config{
		ID: 0, Peers: []int{0},
		ProposalInterval: 5 * time.Millisecond,
		BeaconTimeout:    60 * time.Millisecond,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   100 * time.Millisecond,
		},
	})
	m.Start()
	t.Cleanup(m.Stop)
	ctx := ctxT(t, 5*time.Second)
	if err := m.Lead(ctx); err != nil {
		t.Fatal(err)
	}
	c := NewClient(net, "client.0", []int{0})
	if _, err := c.Submit(ctx, types.Update{Ops: []types.Op{
		OSDBootOp(0, "osd.0"), MDSBootOp(0, "mds.0"),
	}}); err != nil {
		t.Fatal(err)
	}
	c.Beacon(ctx, types.EntityOSD, 0)
	c.Beacon(ctx, types.EntityMDS, 0)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		osdMap, err := c.GetOSDMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mdsMap, err := c.GetMDSMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if osdMap.OSDs[0].State == types.StateDown && mdsMap.Ranks[0].State == types.StateDown {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("silent daemons not marked down: osd.0 %v, mds.0 %v", osdMap.OSDs[0].State, mdsMap.Ranks[0].State)
		case <-tick.C:
		}
	}
}

func TestSubscriberReceivesPush(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	var mu sync.Mutex
	var got []MapNotify
	net.Listen("osd.0", func(_ context.Context, _ wire.Addr, req any) (any, error) {
		if n, ok := req.(MapNotify); ok {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
		}
		return nil, nil
	})
	if _, err := c.Subscribe(ctx, "osd.0", types.MapOSD); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallClass(ctx, "counter", "-- body", "metadata"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no push received")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].OSD == nil || got[0].OSD.Classes["counter"].Script != "-- body" {
		t.Fatalf("notify = %+v", got[0])
	}
}

func TestClusterLog(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "mds.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.Log(ctx, "warn", "balancer version changed"); err != nil {
		t.Fatal(err)
	}
	entries, err := c.GetLog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Source == "mds.0" && strings.Contains(e.Msg, "balancer version") {
			found = true
		}
	}
	if !found {
		t.Fatalf("log entries = %+v", entries)
	}
}

func TestBalancerVersionInMDSMap(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.SetBalancerVersion(ctx, "balancer-v3"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetMDSMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.BalancerVersion != "balancer-v3" {
		t.Fatalf("balancer version = %q", m.BalancerVersion)
	}
}

func TestDaemonLifecycleOps(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	for i := 0; i < 4; i++ {
		if err := c.submit(ctx, OSDBootOp(i, wire.Addr(fmt.Sprintf("osd.%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MarkOSDDown(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.submit(ctx, MDSBootOp(0, "mds.0")); err != nil {
		t.Fatal(err)
	}
	osd, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := osd.UpOSDs(); len(got) != 3 {
		t.Fatalf("up OSDs = %v", got)
	}
	mds, err := c.GetMDSMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mds.UpRanks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("up MDS ranks = %v", got)
	}
}

func TestBatchedProposals(t *testing.T) {
	// Many concurrent submits within one proposal interval commit in few
	// Paxos rounds — the batching behavior Fig. 8 depends on.
	net := wire.NewNetwork()
	mons := testQuorum(t, net, 3)
	_ = mons
	c := NewClient(net, "client.0", []int{0})
	ctx := ctxT(t, 10*time.Second)

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- c.SetService(ctx, types.MapOSD, fmt.Sprintf("k%d", i), "v")
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if m.Service[fmt.Sprintf("k%d", i)] != "v" {
			t.Fatalf("k%d missing", i)
		}
	}
}

func TestLeaderFailoverServiceContinues(t *testing.T) {
	net := wire.NewNetwork()
	mons := testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 15*time.Second)

	if err := c.SetService(ctx, types.MapOSD, "pre", "1"); err != nil {
		t.Fatal(err)
	}
	// Kill the leader.
	mons[0].Stop()

	// Remaining monitors elect a new leader; the service keeps working.
	c2 := NewClient(net, "client.0", []int{1, 2})
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c2.SetService(ctx, types.MapOSD, "post", "2")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	m, err := c2.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service["pre"] != "1" || m.Service["post"] != "2" {
		t.Fatalf("service = %v", m.Service)
	}
}

func TestGossipFanoutLimitsPushes(t *testing.T) {
	net := wire.NewNetwork()
	peers := []int{0}
	m := New(net, Config{
		ID: 0, Peers: peers,
		ProposalInterval: 5 * time.Millisecond,
		GossipFanout:     2,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   100 * time.Millisecond,
		},
	})
	m.Start()
	defer m.Stop()
	if err := m.Lead(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := NewClient(net, "client.0", []int{0})
	ctx := ctxT(t, 5*time.Second)

	var mu sync.Mutex
	pushed := map[wire.Addr]int{}
	for i := 0; i < 6; i++ {
		addr := wire.Addr(fmt.Sprintf("osd.%d", i))
		a := addr
		net.Listen(addr, func(_ context.Context, _ wire.Addr, req any) (any, error) {
			if _, ok := req.(MapNotify); ok {
				mu.Lock()
				pushed[a]++
				mu.Unlock()
			}
			return nil, nil
		})
		if _, err := c.Subscribe(ctx, addr, types.MapOSD); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetService(ctx, types.MapOSD, "x", "1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range pushed {
		total += n
	}
	if total == 0 || total > 2 {
		t.Fatalf("pushes = %d (fanout 2), map %v", total, pushed)
	}
}

// Each monitor of a quorum pushes to its own window of the sorted
// subscribers: 3 monitors x fanout 2 over 6 subscribers hand every
// subscriber every epoch exactly once, two of them from each monitor.
// (Drawn independently per monitor, as they used to be, three pairs out
// of 6 are disjoint about one epoch in 37.)
func TestQuorumPushesDisjointWindows(t *testing.T) {
	const subs, epochs = 6, 5
	net := wire.NewNetwork()
	testQuorumFanout(t, net, 3, 2)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 10*time.Second)

	type push struct {
		epoch    types.Epoch
		from, to wire.Addr
	}
	var mu sync.Mutex
	var pushes []push
	for i := 0; i < subs; i++ {
		addr := wire.Addr(fmt.Sprintf("osd.%d", i))
		net.Listen(addr, func(_ context.Context, from wire.Addr, req any) (any, error) {
			if n, ok := req.(MapNotify); ok && n.OSD != nil {
				mu.Lock()
				pushes = append(pushes, push{n.OSD.Epoch, from, addr})
				mu.Unlock()
			}
			return nil, nil
		})
		if _, err := c.Subscribe(ctx, addr, types.MapOSD); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < epochs; i++ {
		if err := c.SetService(ctx, types.MapOSD, "x", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	for {
		mu.Lock()
		n := len(pushes)
		mu.Unlock()
		if n >= subs*epochs {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("%d pushes arrived, want %d", n, subs*epochs)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a push too many would land by now

	mu.Lock()
	defer mu.Unlock()
	perTarget := map[push]int{} // from left empty
	perSource := map[push]int{} // to left empty
	for _, p := range pushes {
		perTarget[push{epoch: p.epoch, to: p.to}]++
		perSource[push{epoch: p.epoch, from: p.from}]++
	}
	if len(pushes) != subs*epochs || len(perTarget) != subs*epochs || len(perSource) != 3*epochs {
		t.Fatalf("%d pushes over %d (epoch, subscriber) and %d (epoch, monitor) pairs, want %d, %d, %d: %v",
			len(pushes), len(perTarget), len(perSource), subs*epochs, subs*epochs, 3*epochs, pushes)
	}
}

func TestPushTargets(t *testing.T) {
	subs := []wire.Addr{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		fanout, rank int
		epoch        types.Epoch
		want         string
	}{
		{0, 0, 7, "abcde"}, // unbounded
		{5, 1, 7, "abcde"}, // bound covers everyone
		{2, 0, 5, "ab"},
		{2, 1, 5, "cd"}, // the next rank's window starts where the last ended
		{2, 2, 5, "ea"}, // and wraps
		{2, 0, 6, "bc"}, // the next epoch rotates every window by one
		{2, 1, 6, "de"},
	} {
		got := ""
		for _, a := range pushTargets(subs, tc.fanout, tc.rank, tc.epoch) {
			got += string(a)
		}
		if got != tc.want {
			t.Errorf("fanout %d rank %d epoch %d: pushes to %q, want %q", tc.fanout, tc.rank, tc.epoch, got, tc.want)
		}
	}
	if got := fmt.Sprint(subs); got != "[a b c d e]" {
		t.Errorf("pushTargets wrote its input: %s", got)
	}
}

func TestGetLogSinceFilter(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	for i := 0; i < 3; i++ {
		if err := c.Log(ctx, "info", fmt.Sprintf("msg-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := c.GetLog(ctx, 0)
	if err != nil || len(all) < 3 {
		t.Fatalf("all = %d entries, %v", len(all), err)
	}
	// Tail after the first entry's Seq.
	tail, err := c.GetLog(ctx, all[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(all)-1 {
		t.Fatalf("tail = %d entries, want %d", len(tail), len(all)-1)
	}
}

// TestClusterLogIsBounded appends ten times the ring's capacity: the
// monitor keeps at most logCap entries, and GetLog(0) returns the newest
// ones with contiguous Seqs, the missed ones showing as a jump from 0.
func TestClusterLogIsBounded(t *testing.T) {
	net := wire.NewNetwork()
	mons := testQuorum(t, net, 1)
	c := NewClient(net, "client.0", []int{0})
	ctx := ctxT(t, 30*time.Second)

	for i := 0; i < 10*logCap; i++ {
		if err := c.Log(ctx, "info", fmt.Sprintf("msg-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mons[0].mu.Lock()
	held, last := len(mons[0].log), mons[0].logSeq
	mons[0].mu.Unlock()
	if held > logCap {
		t.Fatalf("monitor holds %d log entries, want at most %d", held, logCap)
	}
	all, err := c.GetLog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(all) > logCap {
		t.Fatalf("GetLog(0) = %d entries, want 1..%d", len(all), logCap)
	}
	for i, e := range all {
		if want := last - len(all) + 1 + i; e.Seq != want {
			t.Fatalf("entry %d has Seq %d, want %d (contiguous, ending at %d)", i, e.Seq, want, last)
		}
	}
	if all[0].Seq == 1 {
		t.Fatal("GetLog(0) starts at Seq 1 after 10 rings' worth of appends")
	}
	tail, err := c.GetLog(ctx, last-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 5 || tail[0].Seq != last-4 {
		t.Fatalf("GetLog(last-5) = %+v, want the 5 entries from Seq %d", tail, last-4)
	}
}

func TestServiceDelete(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.SetService(ctx, types.MapOSD, "temp", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DelService(ctx, types.MapOSD, "temp"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Service["temp"]; ok {
		t.Fatal("deleted key still present")
	}
	// Deleting on the MDS map bucket too.
	if err := c.SetService(ctx, types.MapMDS, "t2", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DelService(ctx, types.MapMDS, "t2"); err != nil {
		t.Fatal(err)
	}
	mm, _ := c.GetMDSMap(ctx)
	if _, ok := mm.Service["t2"]; ok {
		t.Fatal("mds-map key survived delete")
	}
}

func TestClassRemove(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if err := c.InstallClass(ctx, "temp-cls", "function f(cls) end", "other"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveClass(ctx, "temp-cls"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Classes["temp-cls"]; ok {
		t.Fatal("removed class still in map")
	}
}

func TestUnknownOpLoggedAndIgnored(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)

	if _, err := c.Submit(ctx, types.Update{Ops: []types.Op{{Code: "bogus.op"}}}); err != nil {
		t.Fatal(err) // commits fine; the op itself is a logged no-op
	}
	entries, err := c.GetLog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Level == "error" && strings.Contains(e.Msg, "bogus.op") {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown op not logged")
	}
}

// TestSubscribeFansOut pins Subscribe to one round trip: the monitors
// are asked in parallel, so all three requests are in flight at once.
// With one monitor cut off from the subscriber, the call still succeeds,
// and the two monitors that took the subscription push to it.
func TestSubscribeFansOut(t *testing.T) {
	net := wire.NewNetwork(wire.WithLatency(time.Millisecond, 0))
	mons := testQuorum(t, net, 3)
	ctx := ctxT(t, 5*time.Second)

	c := NewClient(net, "client.sub", []int{0, 1, 2})
	if _, err := c.Subscribe(ctx, "osd.0", types.MapOSD); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Outbound["client.sub"].MaxInflight; got != 3 {
		t.Fatalf("subscribe max in flight = %d, want 3 (one round trip to 3 monitors)", got)
	}

	pushed := make(chan wire.Addr, 16)
	net.Listen("osd.1", func(_ context.Context, from wire.Addr, req any) (any, error) {
		if _, ok := req.(MapNotify); ok {
			pushed <- from
		}
		return nil, nil
	})
	cut := NewClient(net, "client.cut", []int{0, 1, 2})
	net.Partition("client.cut", Addr(0))
	if _, err := cut.Subscribe(ctx, "osd.1", types.MapOSD); err != nil {
		t.Fatalf("subscribe with one monitor unreachable: %v", err)
	}
	for i, m := range mons {
		m.mu.Lock()
		has := m.subscribers["osd.1"][types.MapOSD]
		m.mu.Unlock()
		if has != (i != 0) {
			t.Fatalf("mon.%d holds the subscription: %v", i, has)
		}
	}
	if err := c.SetService(ctx, types.MapOSD, "k", "v"); err != nil {
		t.Fatal(err)
	}
	from := map[wire.Addr]bool{}
	for !from[Addr(1)] || !from[Addr(2)] {
		select {
		case a := <-pushed:
			from[a] = true
		case <-ctx.Done():
			t.Fatalf("pushes received from %v, want mon.1 and mon.2", from)
		}
	}
}

// TestSubmitAnswersWithTheMapsItChanged pins the commit reply: an
// update is answered with the published map of each kind it changed,
// holding the change, and with no map of a kind it left alone.
func TestSubmitAnswersWithTheMapsItChanged(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{1, 2, 0}) // a follower forwards
	ctx := ctxT(t, 5*time.Second)

	got, err := c.Submit(ctx, types.Update{Ops: []types.Op{{Code: types.OpServiceSet, Map: types.MapOSD, Key: "k", Value: "v"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got.OSD == nil || got.OSD.Service["k"] != "v" || got.MDS != nil {
		t.Fatalf("osd-map commit answered with %+v", got)
	}
	leader, err := c.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.OSD.Epoch != leader.Epoch {
		t.Fatalf("commit answered with epoch %d, leader at %d", got.OSD.Epoch, leader.Epoch)
	}
	got, err = c.Submit(ctx, types.Update{Ops: []types.Op{MDSBootOp(0, "mds.0"), {Code: types.OpPoolCreate, Key: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got.MDS == nil || len(got.MDS.UpRanks()) != 1 || got.OSD == nil || got.OSD.Pools["p"].Name != "p" {
		t.Fatalf("two-map commit answered with %+v", got)
	}
}

// TestJoinAfterAnEpochStartsOnIt races Join's subscription against a
// commit: the monitor takes the subscription only after the joiner's
// boot has applied and then another client's commit has applied too,
// so the push of that later epoch never reaches the joiner and the
// boot's own answer predates it. Join must still return that epoch or
// a later one, from the subscription's answer.
func TestJoinAfterAnEpochStartsOnIt(t *testing.T) {
	net := wire.NewNetwork()
	mons := testQuorum(t, net, 1)
	m := mons[0]
	ctx := ctxT(t, 5*time.Second)
	other := NewClient(net, "client.other", []int{0})

	var atSubscribe types.Epoch
	net.Listen(Addr(0), func(ctx context.Context, from wire.Addr, req any) (any, error) {
		if _, ok := req.(SubscribeReq); ok {
			for booted := false; !booted; {
				m.mu.Lock()
				booted = m.osdMap.OSDs[7].State == types.StateUp
				m.mu.Unlock()
				if !booted {
					time.Sleep(time.Millisecond)
				}
			}
			if err := other.SetService(ctx, types.MapOSD, "late", "x"); err != nil {
				return nil, err
			}
			atSubscribe, _ = m.MapEpochs()
		}
		return m.handle(ctx, from, req)
	})
	got, err := NewClient(net, "osd.7", []int{0}).Join(ctx, types.MapOSD, OSDBootOp(7, "osd.7"))
	if err != nil {
		t.Fatal(err)
	}
	if got.OSD == nil || got.OSD.Epoch < atSubscribe {
		t.Fatalf("join returned %+v, want epoch >= %d (applied before the subscription)", got.OSD, atSubscribe)
	}
	if got.OSD.Service["late"] != "x" || got.OSD.OSDs[7].State != types.StateUp {
		t.Fatalf("join returned epoch %d without the earlier commit or its own boot", got.OSD.Epoch)
	}
}

// TestSubscribeAnswersWithTheCurrentMaps pins the subscription reply:
// the monitor's current map of each kind subscribed to, none of the
// others.
func TestSubscribeAnswersWithTheCurrentMaps(t *testing.T) {
	net := wire.NewNetwork()
	testQuorum(t, net, 3)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	ctx := ctxT(t, 5*time.Second)
	if err := c.SetService(ctx, types.MapMDS, "k", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Subscribe(ctx, "mds.client", types.MapMDS)
	if err != nil {
		t.Fatal(err)
	}
	if got.MDS == nil || got.MDS.Service["k"] != "v" || got.OSD != nil {
		t.Fatalf("mds subscription answered with %+v", got)
	}
}
