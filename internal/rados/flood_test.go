package rados

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mon"
	"repro/internal/types"
)

// These tests pin map dissemination (OSD.floodMap) by message count and
// coverage, not by the clock: the monitor pushes each epoch to one OSD,
// and unless a test says otherwise the gossip tick is an hour away, so
// the flood is the only way a map can travel.

// liveWatch records the highest version of one class each daemon has
// made live. updateMap fires the hook after it has flooded the map, so
// once every daemon reports a version, every send of that epoch's flood
// has been counted by the fabric.
type liveWatch struct {
	class string
	live  []atomic.Uint64
	wake  chan struct{}
}

func watchClass(osds []*OSD, class string) *liveWatch {
	w := &liveWatch{class: class, live: make([]atomic.Uint64, len(osds)), wake: make(chan struct{}, 1)}
	for i, o := range osds {
		i := i
		o.OnClassLive(func(name string, v uint64) {
			if name != class {
				return
			}
			w.live[i].Store(v)
			select {
			case w.wake <- struct{}{}:
			default:
			}
		})
	}
	return w
}

// install commits version v of the watched class and waits until every
// daemon but skip (noPeer for none) runs it.
func (w *liveWatch) install(t *testing.T, ctx context.Context, c *mon.Client, v uint64, skip int) {
	t.Helper()
	if err := c.InstallClass(ctx, w.class, "function f(cls) return "+strconv.FormatUint(v, 10)+" end", "other"); err != nil {
		t.Fatal(err)
	}
	w.wait(t, ctx, v, skip)
}

func (w *liveWatch) wait(t *testing.T, ctx context.Context, v uint64, skip int) {
	t.Helper()
	for {
		behind := noPeer
		for i := range w.live {
			if i != skip && w.live[i].Load() < v {
				behind = i
				break
			}
		}
		if behind == noPeer {
			return
		}
		select {
		case <-w.wake:
		case <-ctx.Done():
			t.Fatalf("osd.%d never made %s v%d live (has v%d)", behind, w.class, v, w.live[behind].Load())
		}
	}
}

// waitEpoch polls until every daemon but skip has installed epoch e.
func waitEpoch(t *testing.T, ctx context.Context, osds []*OSD, e types.Epoch, skip int) {
	t.Helper()
	for i, o := range osds {
		for i != skip && o.Epoch() < e {
			if ctx.Err() != nil {
				t.Fatalf("osd.%d stuck at epoch %d < %d", i, o.Epoch(), e)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// With one entry point and no tick, every daemon still installs every
// epoch, and an epoch costs exactly N messages: the monitor's push plus
// one per tree edge. One more would mean some daemon forwarded an epoch
// twice or a known epoch was forwarded again; one fewer cannot cover.
func TestFloodOneMessagePerTreeEdge(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 40} {
		n := n
		t.Run(fmt.Sprintf("osds=%d", n), func(t *testing.T) {
			tc := bootClusterOpts(t, clusterOpts{
				osds: n, replicas: 1, monFanout: 1,
				osd: OSDConfig{GossipInterval: time.Hour},
			})
			ctx := ctxT(t, 60*time.Second)
			w := watchClass(tc.osds, "flooded")
			// The first install is a barrier: once it is live everywhere,
			// the floods of the boot epochs are over.
			w.install(t, ctx, tc.client.Mon(), 1, noPeer)
			for v := uint64(2); v <= 21; v++ {
				before := tc.net.Stats().Sends
				w.install(t, ctx, tc.client.Mon(), v, noPeer)
				if got := tc.net.Stats().Sends - before; got != uint64(n) {
					t.Fatalf("install %d: %d one-way messages, want %d (1 push + %d tree edges)", v, got, n, n-1)
				}
			}
		})
	}
}

// The tick is still the anti-entropy path: cut an interior node of one
// epoch's tree off the fabric and the flood cannot cross it, so its
// subtree learns the epoch from gossipLoop, and the node itself once the
// partition heals.
func TestGossipTickRepairsCutSubtree(t *testing.T) {
	const n = 8
	tc := bootClusterOpts(t, clusterOpts{
		osds: n, replicas: 1, monFanout: 1,
		osd: OSDConfig{GossipInterval: 10 * time.Millisecond},
	})
	ctx := ctxT(t, 30*time.Second)
	w := watchClass(tc.osds, "flooded")
	w.install(t, ctx, tc.client.Mon(), 1, noPeer)

	// All n are up, so the next epoch's tree is rooted at osd.(next mod n)
	// — which is also where the monitor pushes — and the daemon one id up
	// sits at position 1, parent of positions 3 and 4.
	next := tc.osds[0].Epoch() + 1
	victim := int((uint64(next) + 1) % n)
	tc.net.Partition(mon.Addr(0), OSDAddr(victim))
	for i := 0; i < n; i++ {
		if i != victim {
			tc.net.Partition(OSDAddr(i), OSDAddr(victim))
		}
	}
	w.install(t, ctx, tc.client.Mon(), 2, victim)
	if got := tc.osds[victim].Epoch(); got >= next {
		t.Fatalf("partitioned osd.%d reached epoch %d", victim, got)
	}
	tc.net.HealAll()
	w.wait(t, ctx, 2, noPeer)
}

// The tree is laid over the up set of the map being flooded, not of the
// one before it: after a daemon is marked down the survivors flood over
// a tree of themselves alone, and after it boots again, over all.
func TestFloodFollowsNewMapsUpSet(t *testing.T) {
	const n = 8
	tc := bootClusterOpts(t, clusterOpts{
		osds: n, replicas: 1, monFanout: 1,
		osd: OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 30*time.Second)
	monc := tc.client.Mon()
	w := watchClass(tc.osds, "flooded")
	w.install(t, ctx, monc, 1, noPeer)

	// The monitor pushes epoch e to its (e mod n)th subscriber, stopped
	// or not; pick a victim it will not pick while the victim is down.
	next := tc.osds[0].Epoch() + 1
	victim := int((uint64(next) + 4) % n)
	tc.osds[victim].Stop()
	if err := monc.MarkOSDDown(ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, ctx, tc.osds, next, victim)

	// Each count follows a barrier install, so no send of the epoch that
	// changed the up set is still to come.
	count := func(v uint64, skip int) uint64 {
		w.install(t, ctx, monc, v, skip)
		before := tc.net.Stats().Sends
		w.install(t, ctx, monc, v+1, skip)
		return tc.net.Stats().Sends - before
	}
	if got := count(2, victim); got != n-1 {
		t.Fatalf("%d one-way messages with %d daemons up, want %d", got, n-1, n-1)
	}
	if err := tc.osds[victim].Start(ctx); err != nil {
		t.Fatal(err)
	}
	if got := count(4, noPeer); got != n {
		t.Fatalf("%d one-way messages with all %d daemons up again, want %d", got, n, n)
	}
}
