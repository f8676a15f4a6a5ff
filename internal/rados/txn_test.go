package rados

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Class calls are transactions: the method runs once, on the primary,
// and everything downstream of it — replica forward, journal record,
// replay — handles the call's write-set. These tests pin that from each
// side.

// slotOf returns one daemon's slot for an object of pool "data" (PGNum
// 8 in these tests).
func slotOf(o *OSD, name string) *objEntry {
	return o.getPG(PGID{Pool: "data", PG: PGForObject(name, 8)}).entry(name)
}

// copyState is one daemon's copy of an object: its scrub digest and
// slot version, with ok false for a tombstone.
func copyState(o *OSD, name string) (digest, ver uint64, ok bool) {
	e := slotOf(o, name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obj == nil {
		return 0, e.ver, false
	}
	return e.obj.digest(), e.ver, true
}

// actingOf returns the object's acting set under the client's map.
func actingOf(t *testing.T, tc *testCluster, name string) []int {
	t.Helper()
	_, acting, err := tc.client.view.Load().locate("data", name)
	if err != nil {
		t.Fatal(err)
	}
	return acting
}

// checkCopiesEqual fails unless every acting daemon holds the same
// digest at the same version, and returns that digest.
func checkCopiesEqual(t *testing.T, tc *testCluster, name string) uint64 {
	t.Helper()
	acting := actingOf(t, tc, name)
	want, wantVer, ok := copyState(tc.osds[acting[0]], name)
	if !ok {
		t.Fatalf("primary osd.%d holds no %s", acting[0], name)
	}
	for _, id := range acting[1:] {
		if got, ver, ok := copyState(tc.osds[id], name); !ok || got != want || ver != wantVer {
			t.Errorf("osd.%d holds %s as digest %x version %d (exists %v); primary osd.%d has %x version %d",
				id, name, got, ver, ok, acting[0], want, wantVer)
		}
	}
	return want
}

func quietR3(t *testing.T, osd OSDConfig) *testCluster {
	t.Helper()
	osd.GossipInterval = time.Hour
	return bootClusterOpts(t, clusterOpts{osds: 3, replicas: 3, osd: osd})
}

// installClass installs a script class and waits until the client and
// every daemon hold the map carrying it. Without the wait, a primary
// still on the older epoch forwards to replicas already on the newer
// one, they refuse the forward as stale, and the primary catches up and
// sends it again (TestStaleForwardIsResent) — real, but not what these
// tests are about, and it would perturb their message counts.
func installClass(t *testing.T, c *Client, osds []*OSD, name, src string) {
	t.Helper()
	ctx := ctxT(t, 10*time.Second)
	if err := c.Mon().InstallClass(ctx, name, src, "other"); err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	for _, o := range osds {
		for o.Epoch() < c.MapEpoch() {
			if ctx.Err() != nil {
				t.Fatalf("osd.%d never reached epoch %d", o.cfg.ID, c.MapEpoch())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

const stateDependentClass = `
function visit(cls)
	if cls.omap_get("seen") then
		cls.omap_set("path", "had")
	else
		cls.omap_set("path", "fresh")
	end
	cls.omap_set("seen", "1")
	cls.setxattr("at", tostring(cls.version()))
	return cls.omap_get("path")
end
`

// A method whose effect depends on the state it runs against must leave
// every copy as the primary's run left the primary's, even on a replica
// whose copy lacks that state: re-running the method there would take
// the other branch and stamp another version.
func TestCallConvergesOnStateDependentMethod(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 30*time.Second)
	installClass(t, tc.client, tc.osds, "visitor", stateDependentClass)
	if err := tc.client.OmapSet(ctx, "data", "o", map[string][]byte{"seen": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	acting := actingOf(t, tc, "o")
	// One replica loses the key the method branches on and reports a
	// version of its own, as a copy rebuilt from an older push might.
	e := slotOf(tc.osds[acting[1]], "o")
	e.mu.Lock()
	delete(e.obj.Omap, "seen")
	e.obj.Version = 99
	e.mu.Unlock()

	out, err := tc.client.Call(ctx, "data", "o", "visitor", "visit", nil)
	if err != nil || string(out) != "had" {
		t.Fatalf("visit: %q, %v", out, err)
	}
	checkCopiesEqual(t, tc, "o")
	for _, id := range acting {
		e := slotOf(tc.osds[id], "o")
		e.mu.Lock()
		path, at := string(e.obj.Omap["path"]), string(e.obj.Xattrs["at"])
		e.mu.Unlock()
		if path != "had" || at != "1" {
			t.Errorf("osd.%d: path %q at %q, want the primary's had/1", id, path, at)
		}
	}
	if n := tc.osds[acting[0]].ScrubNow(); n != 0 {
		t.Fatalf("scrub repaired %d replicas after the call", n)
	}
}

// With the replicas' class runtime gone — any use of it is a nil
// dereference — replicated script and native calls still succeed and
// converge: nothing executes off the primary.
func TestCallNeverExecutesOnReplicas(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 30*time.Second)
	installClass(t, tc.client, tc.osds, "visitor", stateDependentClass)
	if err := tc.client.WriteFull(ctx, "data", "o", []byte("settle")); err != nil {
		t.Fatal(err)
	}
	acting := actingOf(t, tc, "o")
	for _, id := range acting[1:] {
		tc.osds[id].rt = nil
	}
	for i := 0; i < 3; i++ {
		if _, err := tc.client.Call(ctx, "data", "o", "visitor", "visit", nil); err != nil {
			t.Fatalf("script call %d: %v", i, err)
		}
		if _, err := tc.client.Call(ctx, "data", "o", "log", "append", []byte("entry")); err != nil {
			t.Fatalf("native call %d: %v", i, err)
		}
	}
	checkCopiesEqual(t, tc, "o")
	if n := tc.osds[acting[0]].ScrubNow(); n != 0 {
		t.Fatalf("scrub repaired %d replicas", n)
	}
}

// An OpCall marked as a forward and an OpTxn from a client are both
// refused: the first would execute a method on a replica, the second
// would let a client write an object without its primary.
func TestCallForwardAndClientTxnRejected(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	acting := actingOf(t, tc, "o")
	epoch := tc.client.CachedMap().Epoch
	before := checkCopiesEqual(t, tc, "o")
	for _, req := range []OpRequest{
		{Op: OpCall, Class: "counter", Method: "incr", Replica: true, PrevVersion: 1, NewVersion: 2},
		{Op: OpTxn, Txn: []TxnOp{{Kind: TxnData, Val: []byte("forged")}}},
	} {
		req.Pool, req.Object, req.Epoch = "data", "o", epoch
		for _, id := range acting {
			resp, err := tc.net.Call(ctx, "client.forger", OSDAddr(id), &req)
			if err != nil {
				t.Fatal(err)
			}
			if rep := resp.(OpReply); rep.Result != EINVAL {
				t.Errorf("osd.%d answered %v (%s) to %v replica=%v, want EINVAL", id, rep.Result, rep.Detail, req.Op, req.Replica)
			}
		}
	}
	if after := checkCopiesEqual(t, tc, "o"); after != before {
		t.Fatalf("a refused request changed the object: digest %x -> %x", before, after)
	}
}

// writevClass is the shape of ZLog's vectored write: n write-once
// entries "<key>=<val>;..." plus a bytestream and an xattr update, all
// or nothing.
const writevClass = `
function writev(cls)
	cls.append("+")
	cls.setxattr("last", cls.input)
	local rest = cls.input
	while string.len(rest) > 0 do
		local semi = string.find(rest, ";")
		local entry = string.sub(rest, 1, semi - 1)
		rest = string.sub(rest, semi + 1)
		local eq = string.find(entry, "=")
		local k = string.sub(entry, 1, eq - 1)
		if cls.omap_get(k) then error("EEXIST: " .. k) end
		cls.omap_set(k, string.sub(entry, eq + 1))
	end
	cls.omap_del("scratch")
	return "ok"
end
`

// A method that fails after writing leaves no trace: the digest of
// every copy is what it was, keys it created are gone again, and an
// object the call itself brought into being disappears with it. Covers
// the script runtime past the touch list's inline and indexed sizes and
// a compiled-in method.
func TestFailedCallLeavesObjectUntouched(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 30*time.Second)
	installClass(t, tc.client, tc.osds, "vec", writevClass)
	for _, o := range tc.osds {
		o.rt.native["halfway"] = &NativeClass{Name: "halfway", Methods: map[string]NativeMethod{
			"fail": func(ctx *ClassCtx) ([]byte, ResultCode) {
				ctx.setData("clobbered")
				ctx.appendData("!")
				ctx.setOmap("e0", "overwritten")
				ctx.setOmap("created", "then rolled back")
				ctx.delOmap("e1")
				ctx.setXattr("last", "overwritten")
				ctx.delXattr("last")
				return []byte("gave up"), EIO
			},
		}}
	}
	batch := func(from, n int) []byte {
		var b strings.Builder
		for i := from; i < from+n; i++ {
			fmt.Fprintf(&b, "e%d=v%d;", i, i)
		}
		return []byte(b.String())
	}
	if err := tc.client.OmapSet(ctx, "data", "stripe", map[string][]byte{"scratch": []byte("s")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "stripe", "vec", "writev", batch(0, 70)); err != nil {
		t.Fatal(err)
	}
	before := checkCopiesEqual(t, tc, "stripe")
	_, verBefore, _ := copyState(tc.osds[actingOf(t, tc, "stripe")[0]], "stripe")

	for _, n := range []int{2, 70} { // inside the inline list; past the index threshold
		// Entries 100.. are new; the last one collides with e69.
		input := append(batch(100, n), "e69=again;"...)
		if _, err := tc.client.Call(ctx, "data", "stripe", "vec", "writev", input); !errors.Is(err, ErrExists) {
			t.Fatalf("colliding writev of %d: %v, want ErrExists", n+1, err)
		}
		if after := checkCopiesEqual(t, tc, "stripe"); after != before {
			t.Fatalf("failed writev of %d changed the object: digest %x -> %x", n+1, before, after)
		}
	}
	if _, err := tc.client.Call(ctx, "data", "stripe", "halfway", "fail", nil); !errors.Is(err, ErrIO) {
		t.Fatalf("halfway.fail: %v, want ErrIO", err)
	}
	if after := checkCopiesEqual(t, tc, "stripe"); after != before {
		t.Fatalf("failed native method changed the object: digest %x -> %x", before, after)
	}
	if _, ver, _ := copyState(tc.osds[actingOf(t, tc, "stripe")[0]], "stripe"); ver != verBefore {
		t.Fatalf("failed calls moved the version %d -> %d", verBefore, ver)
	}

	for _, call := range [][2]string{{"vec", "writev"}, {"halfway", "fail"}} {
		input := []byte("a=1;a=2;")
		if _, err := tc.client.Call(ctx, "data", "never", call[0], call[1], input); err == nil {
			t.Fatalf("%s.%s on a new object succeeded", call[0], call[1])
		}
		for _, o := range tc.osds {
			if _, ver, ok := copyState(o, "never"); ok || ver != 0 {
				t.Fatalf("osd.%d kept the object a failed %s.%s created (version %d)", o.cfg.ID, call[0], call[1], ver)
			}
		}
		if _, _, err := tc.client.Stat(ctx, "data", "never"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stat after failed %s.%s: %v, want ErrNotFound", call[0], call[1], err)
		}
	}
}

// Forwards of two calls on one object that cross on the fabric apply in
// the primary's version order, and a late duplicate of the older one is
// dropped. The waiter's channel exists only while it waits.
func TestTxnForwardsApplyInVersionOrder(t *testing.T) {
	tc := quietR3(t, OSDConfig{ReplicaWaitTimeout: 10 * time.Second})
	ctx := ctxT(t, 30*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "settle", []byte("x")); err != nil {
		t.Fatal(err)
	}
	replica := tc.osds[actingOf(t, tc, "o")[1]]
	forward := func(prev uint64, val string) OpReply {
		resp, err := tc.net.Call(ctx, "osd.primary", replica.Addr(), &OpRequest{
			Pool: "data", Object: "o", Epoch: tc.client.CachedMap().Epoch, Op: OpTxn, Replica: true,
			PrevVersion: prev, NewVersion: prev + 1,
			Txn: []TxnOp{
				{Kind: TxnOmapSet, Key: "k", Val: []byte(val)},
				{Kind: TxnOmapSet, Key: "only-" + val, Val: []byte("1")},
				{Kind: TxnOmapDel, Key: "only-first"},
			},
		})
		if err != nil {
			t.Error(err)
			return OpReply{}
		}
		return resp.(OpReply)
	}
	e := slotOf(replica, "o")
	waiting := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.applied != nil
	}
	if waiting() {
		t.Fatal("an idle slot holds an applied channel")
	}

	second := make(chan OpReply)
	go func() { second <- forward(1, "second") }()
	for deadline := time.Now().Add(5 * time.Second); !waiting(); {
		if time.Now().After(deadline) {
			t.Fatal("the early forward never parked on its predecessor")
		}
		time.Sleep(time.Millisecond)
	}
	if rep := forward(0, "first"); rep.Result != OK || rep.Version != 1 {
		t.Fatalf("first forward: %+v", rep)
	}
	if rep := <-second; rep.Result != OK || rep.Version != 2 {
		t.Fatalf("second forward: %+v", rep)
	}
	want := map[string][]byte{"k": []byte("second"), "only-second": []byte("1")}
	check := func(when string) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.ver != 2 || !reflect.DeepEqual(e.obj.Omap, want) {
			t.Fatalf("%s: version %d omap %q, want version 2 omap %q", when, e.ver, e.obj.Omap, want)
		}
		if e.applied != nil {
			t.Fatalf("%s: the applied channel outlived its waiter", when)
		}
	}
	check("after both forwards")
	if rep := forward(0, "first"); rep.Result != OK || rep.Version != 2 {
		t.Fatalf("stale duplicate: %+v", rep)
	}
	check("after the stale duplicate")
}

// A replica that answers a forward with anything but OK now differs
// from the primary; the primary says so in the cluster log instead of
// dropping the reply. (An overwrite's write-set lands on any copy, so
// the refused forward here is a remove.)
func TestReplicaRefusalIsLogged(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.OmapSet(ctx, "data", "o", map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	lagging := actingOf(t, tc, "o")[2]
	e := slotOf(tc.osds[lagging], "o")
	e.mu.Lock()
	e.obj = nil // this copy lost the object; a remove on it is ENOENT
	e.mu.Unlock()
	if err := tc.client.Remove(ctx, "data", "o"); err != nil {
		t.Fatal(err)
	}
	entries, err := tc.client.Mon().GetLog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "replica write to " + string(OSDAddr(lagging)) + " failed"
	for _, le := range entries {
		if le.Level == "warn" && strings.Contains(le.Msg, want) {
			return
		}
	}
	t.Fatalf("no %q warning in the cluster log: %+v", want, entries)
}

func TestCodeFromErrorFirstNamedWins(t *testing.T) {
	for _, tc := range []struct {
		msg  string
		want ResultCode
	}{
		{"EINVAL: expected ENOENT", EINVAL},
		{"ENOENT: expected EINVAL", ENOENT},
		{"line 3: ESTALE: sealed; retry returns EEXIST or ECANCELED", ESTALE},
		{"ECANCELED", ECANCELED},
		{"EEXIST: e69", EEXIST},
		{"attempt to add nil", EIO},
		{"", EIO},
	} {
		for i := 0; i < 20; i++ { // a map-ordered scan answered differently run to run
			if got := codeFromError(errors.New(tc.msg)); got != tc.want {
				t.Fatalf("codeFromError(%q) = %v, want %v", tc.msg, got, tc.want)
			}
		}
	}
}

// ---- the journal side ----

const stripeClass = `
function append(cls)
	local pos = tonumber(cls.omap_get("tail")) or 0
	cls.omap_set(string.format("e.%08d", pos), cls.input)
	cls.omap_set("tail", tostring(pos + 1))
	return tostring(pos)
end
`

// A call on a large object journals what the call wrote, on the primary
// and on the replica, not the object: a ZLog append to a 10,000-entry
// stripe object used to log all 10,000 entries again.
func TestWALCallJournalsWriteSetNotObject(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	_, osds, c := walPair(t, dirs)
	ctx := ctxT(t, 60*time.Second)
	installClass(t, c, osds[:], "stripe", stripeClass)
	const entries, entrySize = 10000, 128
	payload := bytes.Repeat([]byte("z"), entrySize)
	for base := 0; base < entries; base += 1000 {
		kv := make(map[string][]byte, 1000)
		for i := base; i < base+1000; i++ {
			kv[fmt.Sprintf("e.%08d", i)] = payload
		}
		if err := c.OmapSet(ctx, "data", "log.0", kv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.OmapSet(ctx, "data", "log.0", map[string][]byte{"tail": []byte(fmt.Sprint(entries))}); err != nil {
		t.Fatal(err)
	}
	tail := func(o *OSD) int64 { return o.backend.(*WALBackend).log.TailBytes() }
	before := [2]int64{tail(osds[0]), tail(osds[1])}
	out, err := c.Call(ctx, "data", "log.0", "stripe", "append", payload)
	if err != nil || string(out) != fmt.Sprint(entries) {
		t.Fatalf("append: %q, %v", out, err)
	}
	for i, o := range osds {
		if grew := tail(o) - before[i]; grew <= entrySize || grew > 4*entrySize {
			t.Errorf("osd.%d journaled %d bytes for one %d-byte append to a %d-entry object, want about one entry",
				i, grew, entrySize, entries)
		}
	}
}

// pgDigests is every PG's scrub digests and slot versions on one daemon.
func pgDigests(o *OSD) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, id := range o.heldPGs() {
		for name, e := range o.getPG(id).slots() {
			e.mu.Lock()
			if e.obj != nil {
				out[name] = [2]uint64{e.obj.digest(), e.ver}
			}
			e.mu.Unlock()
		}
	}
	return out
}

// Kill -9 right after the acks: the victim's journal alone rebuilds
// copies equal to the survivor's, whether the victim led the object
// (journaled its own call's write-set) or followed (journaled the
// forward). Replaying the same journal again changes nothing.
func TestWALCallSurvivesCrashAndReplaysIdempotently(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	net, osds, c := walPair(t, dirs)
	ctx := ctxT(t, 60*time.Second)
	installClass(t, c, osds[:], "stripe", stripeClass)
	installClass(t, c, osds[:], "vec", writevClass)
	led := [2]int{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("obj.%d", i)
		_, acting, err := c.view.Load().locate("data", name)
		if err != nil {
			t.Fatal(err)
		}
		led[acting[0]]++
		for j := 0; j < 3; j++ {
			if _, err := c.Call(ctx, "data", name, "stripe", "append", []byte(fmt.Sprintf("%s/%d", name, j))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Call(ctx, "data", name, "vec", "writev", []byte("a=1;b=2;")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(ctx, "data", name, "counter", "incr", nil); err != nil {
			t.Fatal(err)
		}
		// A failed call journals nothing and must not resurface on replay.
		if _, err := c.Call(ctx, "data", name, "vec", "writev", []byte("c=3;a=again;")); !errors.Is(err, ErrExists) {
			t.Fatalf("colliding writev: %v", err)
		}
	}
	if led[0] == 0 || led[1] == 0 {
		t.Fatalf("the victim must both lead and follow: primaries %v", led)
	}
	want := pgDigests(osds[0])
	if len(want) != 16 {
		t.Fatalf("survivor holds %d objects, want 16", len(want))
	}
	osds[1].Crash()

	be, err := OpenWALBackend(dirs[1], WALBackendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close() //nolint:errcheck
	rebuilt := NewOSD(net, OSDConfig{ID: 1, Mons: []int{0}, Backend: be})
	for pass := 1; pass <= 2; pass++ {
		if err := rebuilt.restore(); err != nil {
			t.Fatal(err)
		}
		if rep := rebuilt.ReplayReport(); rep.Skipped != 0 || rep.Records == 0 {
			t.Fatalf("replay pass %d: %+v", pass, rep)
		}
		if got := pgDigests(rebuilt); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay pass %d rebuilt %v, the survivor holds %v", pass, got, want)
		}
	}
}

// A RecTxn torn anywhere inside its frame is dropped whole; the records
// before it replay intact.
func TestWALTornTxnTail(t *testing.T) {
	txn := func(v string) Mutation {
		return Mutation{Kind: RecTxn, Pool: "data", PG: 3, Object: "o", Version: uint64(len(v)), Txn: []TxnOp{
			{Kind: TxnData, Val: []byte("bytes-" + v)},
			{Kind: TxnOmapSet, Key: "k", Val: []byte(v)},
			{Kind: TxnOmapDel, Key: "gone"},
			{Kind: TxnXattrSet, Key: "x", Val: nil},
			{Kind: TxnXattrDel, Key: "y"},
		}}
	}
	ref := t.TempDir()
	be, err := OpenWALBackend(ref, WALBackendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	be.Record(txn("a"))
	if err := be.Commit(); err != nil {
		t.Fatal(err)
	}
	lastOff := be.log.TailBytes()
	be.Record(txn("bb"))
	if err := be.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(ref, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if lastOff <= 0 || lastOff >= int64(len(full)) {
		t.Fatalf("last frame at %d of %d bytes", lastOff, len(full))
	}
	for cut := lastOff; cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWALBackend(dir, WALBackendOptions{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		var got []Mutation
		stats, err := re.Replay(func(m Mutation) { got = append(got, m) })
		if err != nil || stats.Skipped != 0 {
			t.Fatalf("cut at %d: %+v, %v", cut, stats, err)
		}
		want := []Mutation{txn("a")}
		if cut == int64(len(full)) {
			want = append(want, txn("bb"))
		}
		if len(got) != len(want) {
			t.Fatalf("cut at %d replayed %d records, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if !sameTxn(got[i].Txn, want[i].Txn) || got[i].Version != want[i].Version {
				t.Fatalf("cut at %d: record %d replayed as %+v", cut, i, got[i])
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameTxn compares write-sets, treating nil and empty values alike (the
// codec does not distinguish them).
func sameTxn(a, b []TxnOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Key != b[i].Key || !bytes.Equal(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}
