package rados

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// forwarderGoroutines counts live replica-forwarder goroutines in the
// process, from their stacks.
func forwarderGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("rados.(*OSD).forwarder("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// replicaState reads one daemon's copy of an object in pool "data"
// (PGNum 8 in these tests).
func replicaState(o *OSD, name string) (string, uint64) {
	e := slotOf(o, name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obj == nil {
		return "<tombstone>", e.ver
	}
	return string(e.obj.Data), e.ver
}

// TestForwarderLifecycle drives the reused fan-out goroutines through a
// daemon's whole life: concurrent writers to one object on a jittered
// fabric (forwards of different writes cross, and each fan-out must
// still overlap its two peers); the same at zero delay, where handlers
// run most forwards themselves and each peer must still get exactly one
// forward per write, none of them after the write was acked; then Stop
// leaves no forwarder behind, and a restarted daemon replicates again.
func TestForwarderLifecycle(t *testing.T) {
	if n := forwarderGoroutines(); n != 0 {
		t.Fatalf("%d forwarder goroutines alive before the test", n)
	}
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		netOpts: []wire.Option{wire.WithLatency(200*time.Microsecond, 300*time.Microsecond)},
		osd:     OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 60*time.Second)

	const writers, opsPerWriter = 4, 10
	// appendAll runs the concurrent writers of one phase; acked, when
	// set, is told each payload once its append is acknowledged.
	appendAll := func(phase string, acked func(payload string)) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := NewClient(tc.net, wire.Addr(fmt.Sprintf("client.%s%d", phase, w)), []int{0})
				if err := cl.RefreshMap(ctx); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < opsPerWriter; i++ {
					payload := fmt.Sprintf("[%s%d:%d]", phase, w, i)
					if err := cl.Append(ctx, "data", "hot", []byte(payload)); err != nil {
						t.Error(err)
						return
					}
					if acked != nil {
						acked(payload)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	appendAll("w", nil)

	_, acting, err := tc.client.view.Load().locate("data", "hot")
	if err != nil {
		t.Fatal(err)
	}
	checkConverged := func(wantVer uint64) {
		t.Helper()
		wantData, ver := replicaState(tc.osds[acting[0]], "hot")
		if ver != wantVer {
			t.Fatalf("primary at version %d, want %d", ver, wantVer)
		}
		for _, rep := range acting[1:] {
			if data, ver := replicaState(tc.osds[rep], "hot"); ver != wantVer || data != wantData {
				t.Errorf("osd.%d holds version %d (%d bytes), primary version %d (%d bytes)", rep, ver, len(data), wantVer, len(wantData))
			}
		}
	}
	checkConverged(writers * opsPerWriter)
	if got := tc.net.Stats().Outbound[OSDAddr(acting[0])].MaxInflight; got < 2 {
		t.Errorf("primary outbound MaxInflight = %d, want >= 2: the two forwards of a fan-out must overlap", got)
	}
	if forwarderGoroutines() == 0 {
		t.Error("no forwarder goroutine outlived the writes; the fan-out is not reusing them")
	}

	// Zero delay: a replica records every forward as it starts, and a
	// forward of a write whose ack the writer already holds started
	// after its fan-out returned.
	tc.net.SetLatency(0, 0)
	var mu sync.Mutex
	ackedSet, late := map[string]bool{}, 0
	for _, rep := range acting[1:] {
		o := tc.osds[rep]
		tc.net.Listen(o.Addr(), func(ctx context.Context, from wire.Addr, req any) (any, error) {
			if r, ok := req.(*OpRequest); ok && r.Replica {
				mu.Lock()
				if ackedSet[string(r.Data)] {
					late++
				}
				mu.Unlock()
			}
			return o.handle(ctx, from, req)
		})
	}
	primary := OSDAddr(acting[0])
	before := tc.net.Stats().Outbound[primary].Calls
	appendAll("z", func(payload string) {
		mu.Lock()
		ackedSet[payload] = true
		mu.Unlock()
	})
	if got, want := tc.net.Stats().Outbound[primary].Calls-before, uint64(2*writers*opsPerWriter); got != want {
		t.Errorf("primary sent %d forwards for %d zero-delay writes, want exactly %d", got, writers*opsPerWriter, want)
	}
	checkConverged(2 * writers * opsPerWriter)
	mu.Lock()
	if late != 0 {
		t.Errorf("%d forwards started after their write was acked", late)
	}
	mu.Unlock()

	for _, o := range tc.osds {
		o.Stop()
	}
	if n := forwarderGoroutines(); n != 0 {
		t.Fatalf("%d forwarder goroutines alive after every OSD stopped", n)
	}

	for _, o := range tc.osds {
		if err := o.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.client.Append(ctx, "data", "hot", []byte("[after restart]")); err != nil {
		t.Fatal(err)
	}
	checkConverged(2*writers*opsPerWriter + 1)
}

// slowCommitBackend is a MemBackend whose every journal commit takes d,
// as an fsync would.
type slowCommitBackend struct {
	MemBackend
	d time.Duration
}

func (b slowCommitBackend) Commit() error {
	time.Sleep(b.d)
	return nil
}

// TestFanOutOverlapsBlockingReplicaCommit shows that a fan-out keeps its
// overlap at zero fabric delay when a replica blocks in its journal
// commit: the handler's in-line forward parks in the commit, and the
// forwarder takes the other peer's forward meanwhile. Every commit takes
// D, so a replicas=3 WriteFull costs the primary's commit plus one
// replica commit (~2·D) when the forwards overlap, and at least 3·D when
// they run one after the other. Then the forwarder's replica is held on
// the object's slot lock: the handler is back from its in-line forward
// after one commit, and the write must not return until the forward the
// forwarder took has.
func TestFanOutOverlapsBlockingReplicaCommit(t *testing.T) {
	const d = 20 * time.Millisecond
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		osd: OSDConfig{GossipInterval: time.Hour, Backend: slowCommitBackend{d: d}},
	})
	ctx := ctxT(t, 30*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "slow", []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	took := make([]time.Duration, rounds)
	for i := range took {
		start := time.Now()
		if err := tc.client.WriteFull(ctx, "data", "slow", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	t.Logf("replicas=3 WriteFull with a %v commit: %v", d, took)
	if med := took[rounds/2]; med >= 5*d/2 {
		t.Errorf("median write took %v, want < %v (2.5 commits): the replica commits did not overlap", med, 5*d/2)
	}

	// The handed peer is acting[1]; acting[2] is the handler's own.
	_, acting, err := Locate(tc.client.CachedMap(), "data", "slow")
	if err != nil {
		t.Fatal(err)
	}
	e := slotOf(tc.osds[acting[1]], "slow")
	e.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- tc.client.WriteFull(ctx, "data", "slow", []byte("held")) }()
	select {
	case err := <-done:
		e.mu.Unlock()
		t.Fatalf("write returned (err=%v) while the forward a forwarder took was still blocked", err)
	case <-time.After(4 * d):
	}
	e.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOpPathAllocations pins the allocation count of a replicas=3
// WriteFull, of a Read and of a script-class Call on the in-process
// cluster. At the commit before placement was memoized and the fan-out
// goroutines reused, the first two cost 74 and 24 allocations; a call
// cost 88 while every replica re-ran the method. With a deadline timer
// per fan-out and an address string built per call they cost 14, 3 and
// 29; then 7, 2 and 21. A mutation's fan-out now runs after the
// primary's reply (the replication a handler hands the fabric, one
// allocation), and each replica acks the client by echoing the forward,
// which allocates nothing: 8, 2 and 22. The guard leaves room for the
// runtime's background noise but not for a goroutine per peer, an
// acting-set computation per op, a channel per mutation, a second
// execution of the method, a boxed request per forward, a timer per
// fan-out or an address per call to come back. Nor for a forwarder
// started per op: AllocsPerRun runs on one P, where a handler that runs
// its forwards itself never parks, so the forwarder it woke is not
// scheduled before the next op — were that op to start another, each
// would cost a goroutine and its sudogs. The write's bytes are pinned
// too: the primary's clone of the client's 4 KiB is the one payload
// copy in the cluster — replicas share it — where each copy used to
// clone its own (≈ 14.2 kB per write); the timer and the addresses cost
// another ≈ 290 B (5.4 kB per write, then 5.1 kB, now 5.2 kB with the
// 80 B replication). The fan-out's claim counter and the forward's
// client address fit in the 320 B size class its fanout already had, and
// a reply stays within 128 B, past which the replay cache's map would
// store every entry behind a pointer of its own.
func TestOpPathAllocations(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 30*time.Second)
	installClass(t, tc.client, tc.osds, "bench", `
function touch(cls)
	local v = tonumber(cls.omap_get("n")) or 0
	cls.omap_set("n", tostring(v + 1))
	return tostring(v + 1)
end`)
	call := func() {
		if _, err := tc.client.Call(ctx, "data", "probe", "bench", "touch", nil); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 4<<10)
	write := func() {
		if err := tc.client.WriteFull(ctx, "data", "probe", data); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := tc.client.Read(ctx, "data", "probe"); err != nil {
			t.Fatal(err)
		}
	}
	write() // settle the client's epoch and start the forwarder
	call()  // compile the class and warm its VM pool
	const maxWrite, maxRead = 9, 3
	maxCall := 24.0
	if raceEnabled {
		// A quarter of the calls build a fresh class VM (see raceEnabled);
		// three executions per call would still cost twice this.
		maxCall = 80
	}
	if got := testing.AllocsPerRun(200, write); got >= maxWrite {
		t.Errorf("replicas=3 WriteFull: %.1f allocs/op, want < %d", got, maxWrite)
	} else {
		t.Logf("replicas=3 WriteFull: %.1f allocs/op", got)
	}
	maxWriteBytes := 1.3 * float64(len(data))
	if got := bytesPerRun(200, write); got >= maxWriteBytes {
		t.Errorf("replicas=3 WriteFull of %d B: %.0f B/op allocated, want < %.0f", len(data), got, maxWriteBytes)
	} else {
		t.Logf("replicas=3 WriteFull of %d B: %.0f B/op allocated", len(data), got)
	}
	// The bytes guard has 190 B of headroom, more than one size-class
	// step, so the fanout's class is pinned on its own.
	if size := unsafe.Sizeof(fanout{}); size > 320 {
		t.Errorf("fanout is %d B, past the 320 B size class", size)
	}
	if size := unsafe.Sizeof(OpReply{}); size > 128 {
		t.Errorf("OpReply is %d B, past the 128 B the replay cache's map stores inline", size)
	}
	if got := testing.AllocsPerRun(200, read); got >= maxRead {
		t.Errorf("Read: %.1f allocs/op, want < %d", got, maxRead)
	} else {
		t.Logf("Read: %.1f allocs/op", got)
	}
	if got := testing.AllocsPerRun(200, call); got >= maxCall {
		t.Errorf("replicas=3 Call: %.1f allocs/op, want < %.0f", got, maxCall)
	} else {
		t.Logf("replicas=3 Call: %.1f allocs/op", got)
	}
}

// bytesPerRun is the heap bytes allocated per call of fn over runs calls,
// by MemStats delta as bench's allocsPer measures them.
func bytesPerRun(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
