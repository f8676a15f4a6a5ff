package rados

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mon"
	"repro/internal/types"
)

// replicasAhead commits one map epoch that no daemon hears of and then
// installs it on every daemon but primary, bypassing updateMap so that
// nothing is flooded: the state a monitor push leaves behind in the
// moment it has reached the replicas and not yet the primary. The
// client stays on the old epoch, as the primary does.
func replicasAhead(t *testing.T, ctx context.Context, tc *testCluster, primary int) types.Epoch {
	t.Helper()
	if err := tc.client.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, ctx, tc.osds, tc.client.MapEpoch(), noPeer)
	for _, o := range tc.osds {
		tc.net.Partition(mon.Addr(0), o.Addr())
	}
	err := tc.client.Mon().SetService(ctx, types.MapOSD, "ahead", strconv.FormatUint(uint64(tc.client.MapEpoch()), 10))
	tc.net.HealAll()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tc.client.Mon().GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != tc.client.MapEpoch()+1 || tc.osds[primary].Epoch() != tc.client.MapEpoch() {
		t.Fatalf("monitor at epoch %d, client at %d, primary at %d", m.Epoch, tc.client.MapEpoch(), tc.osds[primary].Epoch())
	}
	for i, o := range tc.osds {
		if i != primary {
			o.mu.Lock()
			o.view.Store(newMapView(m))
			o.mu.Unlock()
		}
	}
	return m.Epoch
}

// A forward refused because the replica runs a newer map is sent again
// once the primary has caught up: when the client's ack arrives every
// copy holds the new version, with no scrub pass and no warning in the
// cluster log. Before the re-send the replicas kept the old version
// until scrub.
func TestStaleForwardIsResent(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 20*time.Second)

	// settled checks the primary caught up to epoch and that every copy
	// of each named object equals the primary's.
	settled := func(t *testing.T, primary int, epoch types.Epoch, names ...string) {
		t.Helper()
		if got := tc.osds[primary].Epoch(); got != epoch {
			t.Errorf("primary osd.%d at epoch %d after the op, want %d", primary, got, epoch)
		}
		for _, name := range names {
			checkCopiesEqual(t, tc, name)
		}
		for _, o := range tc.osds {
			if n := o.ScrubNow(); n != 0 {
				t.Errorf("osd.%d scrub repaired %d replicas", o.cfg.ID, n)
			}
		}
	}

	t.Run("WriteFull", func(t *testing.T) {
		primary := actingOf(t, tc, "w")[0]
		if err := tc.client.WriteFull(ctx, "data", "w", []byte("one")); err != nil {
			t.Fatal(err)
		}
		epoch := replicasAhead(t, ctx, tc, primary)
		if err := tc.client.WriteFull(ctx, "data", "w", []byte("two")); err != nil {
			t.Fatal(err)
		}
		settled(t, primary, epoch, "w")
		for _, o := range tc.osds {
			if data, ver := replicaState(o, "w"); data != "two" || ver != 2 {
				t.Errorf("osd.%d holds %q at version %d, want \"two\" at 2", o.cfg.ID, data, ver)
			}
		}
	})

	t.Run("Call", func(t *testing.T) {
		primary := actingOf(t, tc, "ctr")[0]
		epoch := replicasAhead(t, ctx, tc, primary)
		out, err := tc.client.Call(ctx, "data", "ctr", "counter", "incr", nil)
		if err != nil || string(out) != "1" {
			t.Fatalf("incr -> %q, %v", out, err)
		}
		settled(t, primary, epoch, "ctr")
	})

	t.Run("BlockWrite", func(t *testing.T) {
		primary, group := -1, []dedupBlock(nil)
		for id, g := range byPrimary(t, tc.client.CachedMap(), testBlocks("resent", 24)) {
			if len(g) > len(group) {
				primary, group = id, g
			}
		}
		epoch := replicasAhead(t, ctx, tc, primary)
		rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: group[0].name, Op: OpBlockWrite, Blocks: blockOps(group)})
		if err != nil || rep.Result != OK || len(rep.Keys) != len(group) {
			t.Fatalf("batch: %v / %v %s, %d of %d acked", err, rep.Result, rep.Detail, len(rep.Keys), len(group))
		}
		settled(t, primary, epoch, blockNamesOf(group)...)
	})

	entries, err := tc.client.Mon().GetLog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range entries {
		if strings.Contains(le.Msg, "replica write") {
			t.Errorf("cluster log: %s", le.Msg)
		}
	}
}
