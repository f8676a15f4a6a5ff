package rados

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestReplayCacheDedupesResends pins the duplicate-apply fix: a client
// resend of a non-idempotent op (an append or a class call whose ack
// was lost) must hit the primary's replay cache, not apply twice — also
// when a read, which skips the cache, came in between. The test plays
// the client role directly so the second delivery is a byte-identical
// duplicate of the first, exactly what do() emits after a lost reply.
func TestReplayCacheDedupesResends(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)

	if err := tc.client.WriteFull(ctx, "data", "log", []byte("base-")); err != nil {
		t.Fatal(err)
	}
	m := tc.client.CachedMap()
	deliver := func(req *OpRequest) OpReply {
		t.Helper()
		_, acting, err := Locate(m, req.Pool, req.Object)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tc.net.Call(ctx, "client.0", OSDAddr(acting[0]), req)
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := resp.(OpReply)
		if !ok || rep.Result != OK {
			t.Fatalf("%s reply = %+v", req.Op, resp)
		}
		return rep
	}
	read := func(object string, opID uint64) []byte {
		t.Helper()
		return deliver(&OpRequest{Pool: "data", Object: object, Epoch: m.Epoch, Op: OpRead, OpID: opID}).Data
	}

	appendReq := OpRequest{
		Pool: "data", Object: "log",
		Epoch: m.Epoch, Op: OpAppend,
		Data: []byte("once"),
		OpID: 12345,
	}
	first := deliver(&appendReq)
	if got := read("log", 12346); string(got) != "base-once" {
		t.Fatalf("read between the deliveries = %q, want %q", got, "base-once")
	}
	second := deliver(&appendReq)
	if second.Version != first.Version {
		t.Fatalf("resent append applied again: version %d, first delivery stamped %d", second.Version, first.Version)
	}
	got, err := tc.client.Read(ctx, "data", "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "base-once" {
		t.Fatalf("read %q, want %q (duplicate delivery must not double-append)", got, "base-once")
	}

	callReq := OpRequest{
		Pool: "data", Object: "ctr",
		Epoch: m.Epoch, Op: OpCall,
		Class: "counter", Method: "incr",
		OpID: 12347,
	}
	first = deliver(&callReq)
	between := read("ctr", 12348)
	second = deliver(&callReq)
	if string(first.Data) != "1" || string(second.Data) != "1" || second.Version != first.Version {
		t.Fatalf("resent call applied again: first %q v%d, resend %q v%d", first.Data, first.Version, second.Data, second.Version)
	}
	if after := read("ctr", 12349); string(after) != string(between) || len(after) != 8 || after[7] != 1 {
		t.Fatalf("counter bytes %x after the resend, %x before it; want one increment", after, between)
	}
}

// TestReplayCacheScopedToSender: the cache key is (sender, OpID), so
// two different clients reusing an OpID are distinct operations.
func TestReplayCacheScopedToSender(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)

	if err := tc.client.Create(ctx, "data", "log"); err != nil {
		t.Fatal(err)
	}
	m := tc.client.CachedMap()
	_, acting, err := Locate(m, "data", "log")
	if err != nil {
		t.Fatal(err)
	}

	req := OpRequest{
		Pool: "data", Object: "log",
		Epoch: m.Epoch, Op: OpAppend,
		Data: []byte("x"),
		OpID: 7,
	}
	for _, from := range []wire.Addr{"client.a", "client.b"} {
		resp, err := tc.net.Call(ctx, from, OSDAddr(acting[0]), &req)
		if err != nil {
			t.Fatal(err)
		}
		if rep := resp.(OpReply); rep.Result != OK {
			t.Fatalf("append from %s = %+v", from, rep)
		}
	}
	got, err := tc.client.Read(ctx, "data", "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "xx" {
		t.Fatalf("read %q, want %q (distinct senders are distinct operations)", got, "xx")
	}
}

// TestReplayCacheSurvivesClientRestart: a recreated Client reusing its
// predecessor's wire address must not collide with the predecessor's
// OpIDs — each Client instance stamps ops in a disjoint incarnation
// range, so the second client's appends apply instead of being
// answered from the replay cache. (Caught by internal/query's
// property test, which opens a fresh client per table at one address.)
func TestReplayCacheSurvivesClientRestart(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)

	for i, cl := range []*Client{
		NewClient(tc.net, "client.q", []int{0}),
		NewClient(tc.net, "client.q", []int{0}),
	} {
		if err := cl.RefreshMap(ctx); err != nil {
			t.Fatal(err)
		}
		if err := cl.Append(ctx, "data", "log", []byte{byte('a' + i)}); err != nil {
			t.Fatalf("client %d append: %v", i, err)
		}
	}
	got, err := tc.client.Read(ctx, "data", "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ab" {
		t.Fatalf("read %q, want %q (restarted client's ops must not replay-hit its predecessor's)", got, "ab")
	}
}

// TestReplayCacheEviction exercises the bounded FIFO directly: the
// oldest entry leaves once the cache is full, and re-recording an
// existing key is a no-op. Past many wraps of the ring, exactly the
// newest replayCacheSize keys hit, the ring holds them oldest first from
// its next slot, and the map never outgrows the ring.
func TestReplayCacheEviction(t *testing.T) {
	o := NewOSD(wire.NewNetwork(), OSDConfig{ID: 0, Mons: []int{0}})
	for i := 0; i < replayCacheSize+1; i++ {
		o.replayPut("client.0", uint64(i+1), OpReply{Result: OK, Version: uint64(i + 1)})
	}
	if _, ok := o.replayGet("client.0", 1); ok {
		t.Error("oldest entry survived eviction")
	}
	if rep, ok := o.replayGet("client.0", 2); !ok || rep.Version != 2 {
		t.Errorf("second entry = %+v ok=%v, want version 2", rep, ok)
	}
	// Re-recording must not overwrite: the first reply is the one the
	// first delivery returned.
	o.replayPut("client.0", 2, OpReply{Result: OK, Version: 999})
	if rep, _ := o.replayGet("client.0", 2); rep.Version != 2 {
		t.Errorf("duplicate record overwrote the cached reply: %+v", rep)
	}

	const puts = 10 * replayCacheSize
	for i := replayCacheSize + 1; i < puts; i++ {
		o.replayPut("client.0", uint64(i+1), OpReply{Result: OK, Version: uint64(i + 1)})
		if n := len(o.replay); n > replayCacheSize {
			t.Fatalf("after %d puts the cache holds %d replies, want at most %d", i+1, n, replayCacheSize)
		}
	}
	for id := uint64(1); id <= puts; id++ {
		rep, ok := o.replayGet("client.0", id)
		if newest := id > puts-replayCacheSize; ok != newest || (ok && rep.Version != id) {
			t.Fatalf("OpID %d: hit %v (version %d), want hit %v", id, ok, rep.Version, newest)
		}
	}
	for i := 0; i < replayCacheSize; i++ {
		k := o.replayRing[(o.replayNext+i)%replayCacheSize]
		if want := uint64(puts - replayCacheSize + 1 + i); k.id != want {
			t.Fatalf("ring position %d from the next slot holds OpID %d, want %d (oldest first)", i, k.id, want)
		}
	}
}
