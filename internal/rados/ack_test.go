package rados

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// writeOnceClass is the shape of ZLog's storage interface: put stores the
// input once under "e", and a second put fails EEXIST — so a call that
// applied twice would answer its client with an error.
const writeOnceClass = `
function put(cls)
	if cls.omap_get("e") ~= nil then error("EEXIST: position written") end
	cls.omap_set("e", cls.input)
	return "ok"
end`

// ackCluster boots a quiet replicas=3 cluster at a one-way fabric delay
// d with the write-once class installed, and writes name once so its
// slot exists on every daemon and the client listens.
func ackCluster(t *testing.T, d time.Duration, name string) *testCluster {
	t.Helper()
	tc := quietR3(t, OSDConfig{})
	installClass(t, tc.client, tc.osds, "wo", writeOnceClass)
	if err := tc.client.WriteFull(ctxT(t, 10*time.Second), "data", name, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	tc.net.SetLatency(d, 0)
	return tc
}

// outbound is how many Calls addr has made so far.
func outbound(tc *testCluster, addr wire.Addr) uint64 {
	return tc.net.Stats().Outbound[addr].Calls
}

// A replicated write or class call does not return before every replica
// has applied it. One replica's apply is stalled on the object's slot
// lock: at a nonzero fabric delay the primary's reply reaches the client
// after two hops while the stalled forward is still parked, so a client
// that took that reply alone would return here.
func TestOpWaitsForEveryReplica(t *testing.T) {
	const d = 2 * time.Millisecond
	tc := ackCluster(t, d, "held")
	ctx := ctxT(t, 30*time.Second)
	stalled := tc.osds[actingOf(t, tc, "held")[2]]

	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"WriteFull", func() error { return tc.client.WriteFull(ctx, "data", "held", []byte("x")) }},
		{"Call", func() error {
			_, err := tc.client.Call(ctx, "data", "held", "wo", "put", []byte("x"))
			return err
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			_, before := replicaState(stalled, "held")
			e := slotOf(stalled, "held")
			e.mu.Lock()
			done := make(chan error, 1)
			go func() { done <- op.run() }()
			select {
			case err := <-done:
				e.mu.Unlock()
				t.Fatalf("%s returned (err=%v) while osd.%d had not applied it", op.name, err, stalled.cfg.ID)
			case <-time.After(50 * d):
			}
			e.mu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if _, ver := replicaState(stalled, "held"); ver != before+1 {
				t.Fatalf("osd.%d at version %d after the op returned, want %d", stalled.cfg.ID, ver, before+1)
			}
			checkCopiesEqual(t, tc, "held")
		})
	}
}

// A replica cut off from the client, and from nobody else, applies the
// forward but cannot ack it; the primary relays for it, and the op
// completes on that relay, well inside the ack wait, with no re-send.
func TestRelayAnswersForUnreachableReplica(t *testing.T) {
	const d = 2 * time.Millisecond
	tc := ackCluster(t, d, "cut")
	ctx := ctxT(t, 30*time.Second)
	acting := actingOf(t, tc, "cut")
	primary, cut := OSDAddr(acting[0]), tc.osds[acting[2]]
	tc.net.Partition(tc.client.self, cut.Addr())

	clientBefore, primaryBefore := outbound(tc, tc.client.self), outbound(tc, primary)
	start := time.Now()
	if err := tc.client.WriteFull(ctx, "data", "cut", []byte("relayed")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= ackWait {
		t.Errorf("write took %v, want well under the %v ack wait: the relay did not answer", took, ackWait)
	}
	if got := outbound(tc, tc.client.self) - clientBefore; got != 1 {
		t.Errorf("client made %d calls, want 1 (no re-send)", got)
	}
	if got := outbound(tc, primary) - primaryBefore; got != 3 {
		t.Errorf("primary made %d calls, want 3: 2 forwards and 1 relay", got)
	}
	if data, _ := replicaState(cut, "cut"); data != "relayed" {
		t.Errorf("cut-off osd.%d holds %q, want the write", cut.cfg.ID, data)
	}
	checkCopiesEqual(t, tc, "cut")
}

// With every ack and relay lost, the op completes through its re-send
// after the ack wait: the primary's replay cache answers it, so an
// append lands once and a write-once call answers OK, not EEXIST.
func TestResendSettlesLostAcks(t *testing.T) {
	const d = 2 * time.Millisecond
	tc := ackCluster(t, d, "lost")
	ctx := ctxT(t, 30*time.Second)
	acting := actingOf(t, tc, "lost")
	// One replica's ack fails at the fabric, so its answer would be a
	// relay; the client endpoint loses that relay and the other ack, and
	// their senders see the loss, as they do a message the fabric drops.
	tc.net.Partition(tc.client.self, OSDAddr(acting[2]))
	var dropped atomic.Int32
	tc.net.Listen(tc.client.self, func(ctx context.Context, from wire.Addr, req any) (any, error) {
		switch req.(type) {
		case *replicaAck, *relayAck:
			dropped.Add(1)
			return nil, wire.ErrDropped
		}
		return tc.client.handle(ctx, from, req)
	})

	check := func(op string, run func() error) {
		t.Helper()
		before := outbound(tc, tc.client.self)
		dropped.Store(0)
		start := time.Now()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if took := time.Since(start); took < ackWait {
			t.Errorf("%s returned after %v, before the %v ack wait: nothing should have answered", op, took, ackWait)
		}
		if got := outbound(tc, tc.client.self) - before; got != 2 {
			t.Errorf("%s: client made %d calls, want 2 (the op and its re-send)", op, got)
		}
		if n := dropped.Load(); n != 3 {
			t.Errorf("%s: %d acks and relays lost, want 3: one replica's ack and a relay for each replica", op, n)
		}
		checkCopiesEqual(t, tc, "lost")
	}
	check("Append", func() error { return tc.client.Append(ctx, "data", "lost", []byte("+1")) })
	if data, ver := replicaState(tc.osds[acting[0]], "lost"); data != "seed+1" || ver != 2 {
		t.Fatalf("primary holds %q at version %d, want \"seed+1\" at 2: the append applied twice", data, ver)
	}
	check("Call", func() error {
		_, err := tc.client.Call(ctx, "data", "lost", "wo", "put", []byte("v"))
		return err
	})
	if _, ver := replicaState(tc.osds[acting[0]], "lost"); ver != 3 {
		t.Fatalf("primary at version %d after the call, want 3", ver)
	}
}

// Close removes the client's endpoint, fails an op still waiting for its
// replicas, and fails every later op.
func TestClientClose(t *testing.T) {
	tc := ackCluster(t, time.Millisecond, "closing")
	ctx := ctxT(t, 30*time.Second)
	if !slices.Contains(tc.net.Endpoints(), tc.client.self) {
		t.Fatalf("client endpoint %s missing after a write: %v", tc.client.self, tc.net.Endpoints())
	}
	// The ack the client waits for is stalled on a replica's slot lock.
	e := slotOf(tc.osds[actingOf(t, tc, "closing")[1]], "closing")
	e.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- tc.client.WriteFull(ctx, "data", "closing", []byte("x")) }()
	time.Sleep(20 * time.Millisecond)
	tc.client.Close()
	err := <-done
	e.mu.Unlock()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("write waiting at Close = %v, want ErrClosed", err)
	}
	if slices.Contains(tc.net.Endpoints(), tc.client.self) {
		t.Errorf("client endpoint %s still registered after Close", tc.client.self)
	}
	if err := tc.client.WriteFull(ctx, "data", "closing", []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after Close = %v, want ErrClosed", err)
	}
	if _, err := tc.client.Read(ctx, "data", "closing"); !errors.Is(err, ErrClosed) {
		t.Errorf("read after Close = %v, want ErrClosed", err)
	}
	tc.client.Close() // idempotent
}

// A forward the replica refuses is relayed as a failure: the client is
// not left waiting for an ack that will not come.
func TestRefusedForwardIsRelayed(t *testing.T) {
	tc := ackCluster(t, time.Millisecond, "refused")
	ctx := ctxT(t, 30*time.Second)
	acting := actingOf(t, tc, "refused")
	refuser := tc.osds[acting[1]]
	tc.net.Listen(refuser.Addr(), func(ctx context.Context, from wire.Addr, req any) (any, error) {
		if r, ok := req.(*OpRequest); ok && r.Replica {
			return OpReply{Result: EIO, Detail: "refused by test"}, nil
		}
		return refuser.handle(ctx, from, req)
	})
	primaryBefore := outbound(tc, OSDAddr(acting[0]))
	start := time.Now()
	if err := tc.client.WriteFull(ctx, "data", "refused", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= ackWait {
		t.Errorf("write took %v, want well under the %v ack wait", took, ackWait)
	}
	if got := outbound(tc, OSDAddr(acting[0])) - primaryBefore; got != 3 {
		t.Errorf("primary made %d calls, want 3: 2 forwards and 1 relay", got)
	}
}

// Ops whose OpIDs share a slot of the ack table (more than ackSlots in
// flight on one sender) keep separate tallies.
func TestAckTableSlotCollision(t *testing.T) {
	var tab ackTable
	ctx := ctxT(t, 10*time.Second)
	a, b := uint64(5), uint64(5+ackSlots)
	if !tab.expect(a) || !tab.expect(b) {
		t.Fatal("expect refused on an open table")
	}
	tab.note(b, "osd.1")
	tab.note(a, "osd.1")
	tab.note(a, "osd.2")
	if done, err := tab.wait(ctx, nil, a, 2); !done || err != nil {
		t.Fatalf("op %d with its 2 answers: done %v, err %v", a, done, err)
	}
	tab.note(b, "osd.2")
	if done, err := tab.wait(ctx, nil, b, 2); !done || err != nil {
		t.Fatalf("op %d with its 2 answers: done %v, err %v", b, done, err)
	}
	if tab.find(a) != nil || tab.find(b) != nil {
		t.Fatal("a settled op keeps its tally")
	}
	tab.close()
	if tab.expect(a) {
		t.Fatal("expect accepted on a closed table")
	}
}

// A peer's accept, ack and relay for one op count once: the tally is by
// peer, and it spills past its inline peers.
func TestAckTableCountsEachPeerOnce(t *testing.T) {
	var tab ackTable
	const id = 9
	tab.expect(id)
	for _, peer := range []wire.Addr{"osd.1", "osd.1", "osd.2", "osd.1", "osd.2"} {
		tab.note(id, peer)
	}
	if n := tab.find(id).heard.len(); n != 2 {
		t.Fatalf("2 peers answered 5 times: tally %d, want 2", n)
	}
	for i := range 2 * ackInline {
		tab.note(id, OSDAddr(i))
		tab.note(id, OSDAddr(i))
	}
	if n := tab.find(id).heard.len(); n != 2*ackInline {
		t.Fatalf("%d peers answered twice each: tally %d", 2*ackInline, n)
	}
}

// A stopped OSD hears no acks, so its own block ops stop waiting for
// them: a send in flight at Stop returns at once with an error (its
// delta stays queued for the next incarnation) instead of sitting out
// the ack wait while Stop waits for the sweep.
func TestStoppedOSDAbandonsAckWait(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	acting := actingOf(t, tc, "gc")
	sender := tc.osds[acting[1]]
	sender.Stop()
	start := time.Now()
	_, err := sender.sendBlockOp(OpRequest{Pool: "data", Object: "gc", Op: OpWriteFull, Data: []byte("x"), OpID: 1})
	if took := time.Since(start); took >= ackWait {
		t.Errorf("send from a stopped OSD took %v, want < the %v ack wait", took, ackWait)
	}
	if !errors.Is(err, errStopped) {
		t.Errorf("send from a stopped OSD = %v, want errStopped", err)
	}
}
