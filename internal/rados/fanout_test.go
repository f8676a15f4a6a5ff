package rados

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
// still overlap its two peers), then Stop leaves no forwarder behind,
// and a restarted daemon replicates again.
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
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(tc.net, wire.Addr(fmt.Sprintf("client.w%d", w)), []int{0})
			if err := cl.RefreshMap(ctx); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < opsPerWriter; i++ {
				if err := cl.Append(ctx, "data", "hot", []byte(fmt.Sprintf("[w%d:%d]", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

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
	checkConverged(writers*opsPerWriter + 1)
}

// TestOpPathAllocations pins the allocation count of a replicas=3
// WriteFull, of a Read and of a script-class Call on the in-process
// cluster. At the commit before placement was memoized and the fan-out
// goroutines reused, the first two cost 74 and 24 allocations; a call
// cost 88 while every replica re-ran the method. With a deadline timer
// per fan-out and an address string built per call they cost 14, 3 and
// 29; they now cost 7, 2 and 21. The guard leaves room for the
// runtime's background noise but not for a goroutine per peer, an
// acting-set computation per op, a channel per mutation, a second
// execution of the method, a boxed request per forward, a timer per
// fan-out or an address per call to come back. The write's bytes are
// pinned too: the primary's clone of the client's 4 KiB is the one
// payload copy in the cluster — replicas share it — where each copy
// used to clone its own (≈ 14.2 kB per write); the timer and the
// addresses cost another ≈ 290 B (5.4 kB per write, now 5.1 kB).
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
