package rados

import (
	"testing"
	"time"
)

// TestStopQuiescesGossip is the regression test for the gossip fan-out
// lifecycle: the per-peer goroutines gossipOnce spawns are tracked by
// the daemon's WaitGroup and carry a stop-cancelled context, so once
// Stop() returns the OSD sends nothing more into the fabric. Before the
// fix they were untracked and bounded only by their own
// Background-rooted timeout, so a stopped OSD could keep calling peers
// for several gossip intervals. The same holds for the flood: a handler
// still in flight when Stop returns may install a newer map, and must
// not forward it.
func TestStopQuiescesGossip(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	target := tc.osds[0]

	// Let a few gossip rounds run so the fan-out path is active.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if tc.net.Stats().Outbound[target.Addr()].Calls > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tc.net.Stats().Outbound[target.Addr()].Calls == 0 {
		t.Fatal("no gossip traffic observed before Stop")
	}

	target.Stop()
	after := tc.net.Stats().Outbound[target.Addr()].Calls

	// Wait well past several gossip intervals (20 ms in bootCluster) and
	// past the in-flight call timeout window; a leaked fan-out goroutine
	// would land more calls here.
	time.Sleep(8 * 20 * time.Millisecond)
	if got := tc.net.Stats().Outbound[target.Addr()].Calls; got != after {
		t.Fatalf("stopped OSD kept calling the fabric: %d calls at Stop, %d after", after, got)
	}

	newer := target.view.Load().m.Clone()
	newer.Epoch++
	sends := tc.net.Stats().Sends
	target.updateMap(newer, noPeer)
	if target.Epoch() != newer.Epoch {
		t.Fatalf("stopped OSD did not install epoch %d", newer.Epoch)
	}
	if got := tc.net.Stats().Sends; got != sends {
		t.Fatalf("stopped OSD flooded a map: %d one-way messages at Stop, %d after", sends, got)
	}
}
