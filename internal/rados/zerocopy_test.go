package rados

import (
	"bytes"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// A replicated overwrite makes one copy of its payload: the primary
// clones the caller's buffer once, and every replica installs that clone
// (the OpTxn write-set) by reference. These tests pin that contract.

// valueOn reads one daemon's stored value of an object under the slot
// lock, returning its backing array and its bytes.
func valueOn(o *OSD, name string, get func(*Object) []byte) (*byte, string) {
	e := slotOf(o, name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obj == nil {
		return nil, "<tombstone>"
	}
	v := get(e.obj)
	return unsafe.SliceData(v), string(v)
}

// checkOneCopy fails unless every acting daemon's value shares one
// backing array that is not the caller's buffer, and overwriting that
// buffer changes no copy. The buffer is restored before returning.
func checkOneCopy(t *testing.T, tc *testCluster, name, what string, get func(*Object) []byte, caller []byte) {
	t.Helper()
	acting := actingOf(t, tc, name)
	shared, want := valueOn(tc.osds[acting[0]], name, get)
	if shared == nil || want != string(caller) {
		t.Fatalf("%s: primary osd.%d holds %.32q, want %.32q", what, acting[0], want, caller)
	}
	if shared == unsafe.SliceData(caller) {
		t.Fatalf("%s: the primary stored the caller's buffer itself", what)
	}
	for _, id := range acting[1:] {
		if p, got := valueOn(tc.osds[id], name, get); p != shared || got != want {
			t.Errorf("%s: osd.%d holds %.32q in its own array (shared %v), want the primary's", what, id, got, p == shared)
		}
	}
	flip := func() {
		for i := range caller {
			caller[i] ^= 0xff
		}
	}
	flip()
	defer flip()
	for _, id := range acting {
		if _, got := valueOn(tc.osds[id], name, get); got != want {
			t.Errorf("%s: reusing the caller's buffer changed osd.%d's copy to %.32q", what, id, got)
		}
	}
}

const putEverywhereClass = `
function put(cls)
	cls.write(cls.input)
	cls.omap_set("k", cls.input)
	cls.setxattr("x", cls.input)
	return "ok"
end
`

func TestReplicatedOverwritesShareOnePayloadCopy(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 30*time.Second)
	installClass(t, tc.client, tc.osds, "everywhere", putEverywhereClass)
	data := func(obj *Object) []byte { return obj.Data }
	omapK := func(obj *Object) []byte { return obj.Omap["k"] }
	xattrX := func(obj *Object) []byte { return obj.Xattrs["x"] }

	buf := bytes.Repeat([]byte("w"), 4<<10)
	if err := tc.client.WriteFull(ctx, "data", "o", buf); err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, tc, "o", "WriteFull", data, buf)

	val := []byte("xattr value")
	if err := tc.client.SetXattr(ctx, "data", "o", "x", val); err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, tc, "o", "SetXattr", xattrX, val)

	kv := map[string][]byte{"k": []byte("omap value"), "other": []byte("second key")}
	if err := tc.client.OmapSet(ctx, "data", "o", kv); err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, tc, "o", "OmapSet", omapK, kv["k"])
	checkOneCopy(t, tc, "o", "OmapSet", func(obj *Object) []byte { return obj.Omap["other"] }, kv["other"])

	input := []byte("the call's input")
	if _, err := tc.client.Call(ctx, "data", "c", "everywhere", "put", input); err != nil {
		t.Fatal(err)
	}
	for what, get := range map[string]func(*Object) []byte{"call data": data, "call omap": omapK, "call xattr": xattrX} {
		checkOneCopy(t, tc, "c", what, get, input)
	}

	if err := tc.client.OmapDel(ctx, "data", "o", "other"); err != nil {
		t.Fatal(err)
	}
	checkCopiesEqual(t, tc, "o")
	checkCopiesEqual(t, tc, "c")
	for _, o := range tc.osds {
		if n := o.ScrubNow(); n != 0 {
			t.Fatalf("osd.%d scrub repaired %d replicas", o.cfg.ID, n)
		}
	}
}

// The primary rewrites a call or an overwrite into its OpTxn on its own
// copy of the request: the sender's *OpRequest reads as sent after the
// reply.
func TestPrimaryRewritesOnlyItsOwnRequest(t *testing.T) {
	tc := quietR3(t, OSDConfig{})
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "o", []byte("settle")); err != nil {
		t.Fatal(err)
	}
	primary := OSDAddr(actingOf(t, tc, "o")[0])
	for i, req := range []*OpRequest{
		{Op: OpCall, Class: "counter", Method: "incr"},
		{Op: OpWriteFull, Data: []byte("payload")},
	} {
		req.Pool, req.Object, req.Epoch, req.OpID = "data", "o", tc.client.CachedMap().Epoch, uint64(i+1)
		sent := *req
		resp, err := tc.net.Call(ctx, "client.sender", primary, req)
		if err != nil {
			t.Fatal(err)
		}
		if rep := resp.(OpReply); rep.Result != OK {
			t.Fatalf("%v: %+v", sent.Op, rep)
		}
		if !reflect.DeepEqual(*req, sent) {
			t.Errorf("the primary wrote the sender's request: %+v, sent %+v", *req, sent)
		}
		checkCopiesEqual(t, tc, "o")
	}
}
