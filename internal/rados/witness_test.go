package rados

import (
	"context"
	"testing"
	"time"

	"repro/internal/wire"
)

// writeKeyClass is a write-once store of many positions, the shape of
// ZLog's write: put stores its input under "e.<input>", once.
const writeKeyClass = `
function put(cls)
	local k = "e." .. cls.input
	if cls.omap_get(k) ~= nil then error("EEXIST: position written") end
	cls.omap_set(k, cls.input)
	return cls.input
end`

// witnessCluster is ackCluster with the keyed write-once class "wk"
// installed as well.
func witnessCluster(t *testing.T, d time.Duration, name string) *testCluster {
	t.Helper()
	tc := ackCluster(t, 0, name)
	installClass(t, tc.client, tc.osds, "wk", writeKeyClass)
	tc.net.SetLatency(d, 0)
	return tc
}

// records is how many witness records o holds.
func records(o *OSD) int { return int(o.witN.Load()) }

// settleFanOut waits until the primary's forwards have finished and no
// daemon holds a witness record.
func settleFanOut(t *testing.T, tc *testCluster, primary wire.Addr) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, o := range tc.osds {
			held += records(o)
		}
		if held == 0 && tc.net.Stats().Outbound[primary].Inflight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fan-out not settled: %d witness records held", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// Rule 2: a mutation that is not witnessed does not apply at the primary
// while a witnessed mutation of the object awaits a replica's install.
// One replica's install is stalled on its slot lock; the witnessed call
// still returns (both copies were accepted), and the next mutation of
// the object must wait for that install.
func TestUnwitnessedMutationWaitsForWitnessSync(t *testing.T) {
	for _, op := range []struct {
		name string
		run  func(ctx context.Context, c *Client) error
	}{
		{"Call", func(ctx context.Context, c *Client) error {
			_, err := c.Call(ctx, "data", "ws", "wk", "put", []byte("x"))
			return err
		}},
		{"SetXattr", func(ctx context.Context, c *Client) error {
			return c.SetXattr(ctx, "data", "ws", "a", []byte("x"))
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			tc := witnessCluster(t, time.Millisecond, "ws")
			ctx := ctxT(t, 10*time.Second)
			acting := actingOf(t, tc, "ws")
			primary, stalled := tc.osds[acting[0]], slotOf(tc.osds[acting[2]], "ws")
			stalled.mu.Lock()
			if _, err := tc.client.CallWitnessed(ctx, "data", "ws", "wk", "put", []byte("1")); err != nil {
				stalled.mu.Unlock()
				t.Fatal(err)
			}
			_, ver := replicaState(primary, "ws")
			done := make(chan error, 1)
			go func() { done <- op.run(ctx, tc.client) }()
			time.Sleep(30 * time.Millisecond)
			_, during := replicaState(primary, "ws")
			stalled.mu.Unlock()
			if during != ver {
				t.Errorf("primary at version %d while a replica had not installed the witnessed write (version %d)", during, ver)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			settleFanOut(t, tc, primary.Addr())
			checkCopiesEqual(t, tc, "ws")
		})
	}
}

// Rule 3: a replica promoted to primary replays the records it holds
// before it serves their objects, under the client's OpID. The old
// primary answered the call, and both replicas accepted it, but its
// forwards never arrived; it then stops. The write must be readable
// from the new primary, and a re-send of the call must find its outcome
// in the replay cache rather than fail EEXIST.
func TestPromotedReplicaReplaysWitnessRecords(t *testing.T) {
	tc := witnessCluster(t, time.Millisecond, "wp")
	ctx := ctxT(t, 20*time.Second)
	acting := actingOf(t, tc, "wp")
	old := tc.osds[acting[0]]
	for _, id := range acting[1:] {
		tc.net.Partition(old.Addr(), OSDAddr(id))
	}
	if _, err := tc.client.CallWitnessed(ctx, "data", "wp", "wk", "put", []byte("1")); err != nil {
		t.Fatal(err)
	}
	id := tc.client.opSeq.Load()
	for _, peer := range acting[1:] {
		if records(tc.osds[peer]) != 1 {
			t.Fatalf("osd.%d holds %d records, want the call's", peer, records(tc.osds[peer]))
		}
	}
	old.Stop()
	tc.net.HealAll()
	if err := tc.client.Mon().MarkOSDDown(ctx, old.cfg.ID); err != nil {
		t.Fatal(err)
	}
	kv, err := tc.client.OmapGet(ctx, "data", "wp", "e.1")
	if err != nil {
		t.Fatal(err)
	}
	if string(kv["e.1"]) != "1" {
		t.Fatalf("new primary holds e.1 = %q, want the acked write", kv["e.1"])
	}
	now := actingOf(t, tc, "wp")
	rep, err := tc.client.call(ctx, OSDAddr(now[0]), &OpRequest{Pool: "data", Object: "wp", Epoch: tc.client.MapEpoch(),
		Op: OpCall, OpID: id, Class: "wk", Method: "put", Input: []byte("1"), Witnessed: true})
	if err != nil || rep.Result != OK {
		t.Fatalf("re-send to the new primary = %v %v (%s), want the replayed OK", rep.Result, err, rep.Detail)
	}
	settleFanOut(t, tc, OSDAddr(now[0]))
}

// Rule 3, second half: a replica that leaves the object's acting set
// drops its record there, which nobody would clear or replay.
func TestWitnessRecordDroppedOnLeavingActingSet(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 4, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wl")
	leaving := tc.osds[acting[1]]
	leaving.witMu.Lock()
	leaving.wits[witKey{"data", "wl"}] = &witnessRecord{op: OpRequest{Pool: "data", Object: "wl", Client: "client.other", OpID: 1},
		at: time.Now().Add(time.Hour)}
	leaving.witN.Add(1)
	leaving.witMu.Unlock()
	if err := tc.client.Mon().MarkOSDDown(ctx, leaving.cfg.ID); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); records(leaving) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("osd.%d, out of the acting set at epoch %d, still holds its record", leaving.cfg.ID, leaving.Epoch())
		}
	}
}

// Rule 4: a record that no forward clears — the client's call never
// reached the primary — is resolved with the primary after ackWait, and
// the primary applies it once for all the replicas that resolve it.
func TestOverdueWitnessResolvesWithPrimary(t *testing.T) {
	tc := witnessCluster(t, time.Millisecond, "wo2")
	acting := actingOf(t, tc, "wo2")
	primary := tc.osds[acting[0]]
	_, ver := replicaState(primary, "wo2")
	tc.net.Partition(tc.client.self, primary.Addr())
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := tc.client.CallWitnessed(short, "data", "wo2", "wk", "put", []byte("1"))
	cancel()
	if err == nil {
		t.Fatal("call through a partitioned primary succeeded")
	}
	tc.net.HealAll()
	settleFanOut(t, tc, primary.Addr())
	if _, now := replicaState(primary, "wo2"); now != ver+1 {
		t.Fatalf("primary at version %d after the records resolved, want %d: applied once", now, ver+1)
	}
	checkCopiesEqual(t, tc, "wo2")
}

// Rule 5: on a durable backend the records, and their drops, are
// journaled, and a checkpoint carries the records still held; a daemon
// rebuilt from the journal holds exactly those.
func TestWitnessRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	net := wire.NewNetwork()
	open := func() *OSD {
		b, err := OpenWALBackend(dir, WALBackendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return NewOSD(net, OSDConfig{ID: 0, Backend: b})
	}
	o := open()
	held := &witnessRecord{pg: 2, op: OpRequest{Pool: "data", Object: "kept", Op: OpCall, OpID: 7, Epoch: 3,
		Client: "client.9", Class: "wk", Method: "put", Input: []byte("in"), Witnessed: true}}
	gone := &witnessRecord{pg: 5, op: OpRequest{Pool: "data", Object: "gone", Op: OpCall, OpID: 8, Client: "client.9", Witnessed: true}}
	o.witMu.Lock()
	for _, rec := range []*witnessRecord{held, gone} {
		o.wits[witKey{"data", rec.op.Object}] = rec
		o.witN.Add(1)
		o.backend.Record(rec.mutation(RecWitness))
	}
	o.deleteWitnessLocked(witKey{"data", "gone"}, gone)
	o.witMu.Unlock()
	check := func(stage string) {
		t.Helper()
		if err := o.backend.Close(); err != nil {
			t.Fatal(err)
		}
		o = open()
		if err := o.restore(); err != nil {
			t.Fatal(err)
		}
		if records(o) != 1 {
			t.Fatalf("%s: %d records restored, want 1", stage, records(o))
		}
		got := o.wits[witKey{"data", "kept"}]
		if got == nil || got.pg != held.pg || got.op.OpID != 7 || got.op.Client != "client.9" || got.op.Epoch != 3 ||
			got.op.Class != "wk" || got.op.Method != "put" || string(got.op.Input) != "in" || got.op.Op != OpCall {
			t.Fatalf("%s: restored record %+v, want %+v", stage, got, held)
		}
	}
	if err := o.backend.Commit(); err != nil {
		t.Fatal(err)
	}
	check("journal")
	if err := o.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint")
	o.backend.Close() //nolint:errcheck
}
