package rados

import (
	"context"
	"reflect"
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
			if _, err := tc.client.CallWitnessed(ctx, "data", "ws", "wk", "put", []byte("1"), nil); err != nil {
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
// primary answered the calls, and both replicas accepted them, but its
// forwards never arrived; it then stops. The writes must be readable
// from the new primary, and a re-send of each call must find its
// outcome in the replay cache rather than fail EEXIST: with one keyless
// record, and with two keyed records on the object, both replayed.
func TestPromotedReplicaReplaysWitnessRecords(t *testing.T) {
	for _, c := range []struct {
		name  string
		keyed bool
		pos   []string
	}{
		{"one keyless record", false, []string{"1"}},
		{"two keyed records", true, []string{"1", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := witnessCluster(t, time.Millisecond, "wp")
			ctx := ctxT(t, 20*time.Second)
			acting := actingOf(t, tc, "wp")
			old := tc.osds[acting[0]]
			for _, id := range acting[1:] {
				tc.net.Partition(old.Addr(), OSDAddr(id))
			}
			keys := func(pos string) []string {
				if !c.keyed {
					return nil
				}
				return []string{"e." + pos}
			}
			ids := make(map[string]uint64)
			for _, pos := range c.pos {
				if _, err := tc.client.CallWitnessed(ctx, "data", "wp", "wk", "put", []byte(pos), keys(pos)); err != nil {
					t.Fatal(err)
				}
				ids[pos] = tc.client.opSeq.Load()
			}
			for _, peer := range acting[1:] {
				if n := records(tc.osds[peer]); n != len(c.pos) {
					t.Fatalf("osd.%d holds %d records, want the %d calls'", peer, n, len(c.pos))
				}
			}
			old.Stop()
			tc.net.HealAll()
			if err := tc.client.Mon().MarkOSDDown(ctx, old.cfg.ID); err != nil {
				t.Fatal(err)
			}
			for _, pos := range c.pos {
				kv, err := tc.client.OmapGet(ctx, "data", "wp", "e."+pos)
				if err != nil {
					t.Fatal(err)
				}
				if string(kv["e."+pos]) != pos {
					t.Fatalf("new primary holds e.%s = %q, want the acked write", pos, kv["e."+pos])
				}
			}
			now := actingOf(t, tc, "wp")
			for _, pos := range c.pos {
				rep, err := tc.client.call(ctx, OSDAddr(now[0]), &OpRequest{Pool: "data", Object: "wp", Epoch: tc.client.CachedMap().Epoch,
					Op: OpCall, OpID: ids[pos], Class: "wk", Method: "put", Input: []byte(pos), Keys: keys(pos), Witnessed: true})
				if err != nil || rep.Result != OK {
					t.Fatalf("re-send of e.%s to the new primary = %v %v (%s), want the replayed OK", pos, rep.Result, err, rep.Detail)
				}
			}
			settleFanOut(t, tc, OSDAddr(now[0]))
		})
	}
}

// Rule 3, second half: a replica that leaves the object's acting set
// drops its record there, which nobody would clear or replay.
func TestWitnessRecordDroppedOnLeavingActingSet(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 4, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wl")
	leaving := tc.osds[acting[1]]
	leaving.witMu.Lock()
	leaving.wits[witKey{"data", "wl"}] = []*witnessRecord{{op: OpRequest{Pool: "data", Object: "wl", Client: "client.other", OpID: 1},
		at: time.Now().Add(time.Hour)}}
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
	_, err := tc.client.CallWitnessed(short, "data", "wo2", "wk", "put", []byte("1"), nil)
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
// rebuilt from the journal holds exactly those: here two keyed records
// on one object, in the order accepted, with their conflict keys.
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
	held := []*witnessRecord{
		{pg: 2, op: OpRequest{Pool: "data", Object: "kept", Op: OpCall, OpID: 7, Epoch: 3,
			Client: "client.9", Class: "wk", Method: "put", Input: []byte("in"), Keys: []string{"e.1"}, Witnessed: true}},
		{pg: 2, op: OpRequest{Pool: "data", Object: "kept", Op: OpCall, OpID: 4, Epoch: 3,
			Client: "client.8", Class: "wk", Method: "putv", Input: []byte("v"), Keys: []string{"e.2", "e.3"}, Witnessed: true}},
	}
	gone := &witnessRecord{pg: 5, op: OpRequest{Pool: "data", Object: "gone", Op: OpCall, OpID: 8, Client: "client.9", Witnessed: true}}
	o.witMu.Lock()
	for _, rec := range append(held[:2:2], gone) {
		k := witKey{"data", rec.op.Object}
		o.wits[k] = append(o.wits[k], rec)
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
		if records(o) != 2 {
			t.Fatalf("%s: %d records restored, want 2", stage, records(o))
		}
		got := o.wits[witKey{"data", "kept"}]
		if len(got) != 2 {
			t.Fatalf("%s: %d records restored on kept, want 2", stage, len(got))
		}
		for i, rec := range got {
			want := held[i].op
			if rec.pg != held[i].pg || !reflect.DeepEqual(rec.op, want) {
				t.Fatalf("%s: restored record %d %+v, want %+v", stage, i, rec.op, want)
			}
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

// Two witnessed calls on one object whose conflict keys are disjoint are
// both held: each replica accepts both copies, though neither install
// has landed, and sends no ack for either — the acceptances answered the
// client. Both replicas' installs are stalled on their slot locks until
// the two calls have returned.
func TestDisjointWitnessCopiesAreBothAccepted(t *testing.T) {
	tc := witnessCluster(t, time.Millisecond, "wd")
	ctx := ctxT(t, 10*time.Second)
	acting := actingOf(t, tc, "wd")
	primary := OSDAddr(acting[0])
	before := tc.net.Stats()
	var stalled []*objEntry
	for _, id := range acting[1:] {
		e := slotOf(tc.osds[id], "wd")
		e.mu.Lock()
		stalled = append(stalled, e)
	}
	for _, pos := range []string{"1", "2"} {
		if _, err := tc.client.CallWitnessed(ctx, "data", "wd", "wk", "put", []byte(pos), []string{"e." + pos}); err != nil {
			for _, e := range stalled {
				e.mu.Unlock()
			}
			t.Fatal(err)
		}
	}
	held := make(map[int]int)
	for _, id := range acting[1:] {
		held[id] = records(tc.osds[id])
	}
	for _, e := range stalled {
		e.mu.Unlock()
	}
	for id, n := range held {
		if n != 2 {
			t.Errorf("osd.%d held %d records before the installs, want both calls'", id, n)
		}
	}
	settleFanOut(t, tc, primary)
	after := tc.net.Stats()
	calls := func(a wire.Addr) uint64 { return after.Outbound[a].Calls - before.Outbound[a].Calls }
	if got := calls(tc.client.self); got != 6 {
		t.Errorf("client calls = %d, want 6: the primary and 2 witness copies, twice", got)
	}
	if got := calls(primary); got != 4 {
		t.Errorf("primary calls = %d, want 4 forwards and no relay", got)
	}
	for _, id := range acting[1:] {
		if got := calls(OSDAddr(id)); got != 0 {
			t.Errorf("osd.%d calls = %d, want 0: its acceptances answered the client", id, got)
		}
	}
	checkCopiesEqual(t, tc, "wd")
}
