package rados

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mon"
	"repro/internal/paxos"
	"repro/internal/types"
	"repro/internal/wire"
)

// testCluster boots a 1-monitor quorum, numOSDs OSDs, and a pool.
type testCluster struct {
	net    *wire.Network
	mons   []*mon.Monitor
	osds   []*OSD
	client *Client
}

func bootCluster(t *testing.T, numOSDs, replicas int) *testCluster {
	t.Helper()
	return bootClusterOpts(t, clusterOpts{osds: numOSDs, replicas: replicas})
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestWriteReadRoundTrip(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "obj1", []byte("hello rados")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.client.Read(ctx, "data", "obj1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello rados" {
		t.Fatalf("read %q", got)
	}
	size, ver, err := tc.client.Stat(ctx, "data", "obj1")
	if err != nil {
		t.Fatal(err)
	}
	if size != 11 || ver == 0 {
		t.Fatalf("stat = %d bytes v%d", size, ver)
	}
}

func TestAppend(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	for _, part := range []string{"a", "b", "c"} {
		if err := tc.client.Append(ctx, "data", "log", []byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tc.client.Read(ctx, "data", "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("read %q", got)
	}
}

func TestCreateExclusive(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.Create(ctx, "data", "x"); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Create(ctx, "data", "x"); !errors.Is(err, ErrExists) {
		t.Fatalf("second create = %v, want ErrExists", err)
	}
}

func TestReadMissing(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if _, err := tc.client.Read(ctx, "data", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestReadsOfAbsentNamesCreateNoSlots: a read-class op on a name with
// no slot answers ENOENT and leaves none behind. Nothing deletes a slot
// but a PG split, so one slot per probe of an absent name would grow
// every primary without bound.
func TestReadsOfAbsentNamesCreateNoSlots(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 60*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "present", []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := slotCount(tc.osds)
	const n = 10000
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("absent-%d", i)
		if _, err := tc.client.Read(ctx, "data", name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read %s: %v, want ErrNotFound", name, err)
		}
		if _, _, err := tc.client.Stat(ctx, "data", name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stat %s: %v, want ErrNotFound", name, err)
		}
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("absent-%d", i)
		if _, err := tc.client.OmapGet(ctx, "data", name, "k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("omap-get %s: %v, want ErrNotFound", name, err)
		}
		if _, err := tc.client.OmapList(ctx, "data", name, ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("omap-list %s: %v, want ErrNotFound", name, err)
		}
		if _, err := tc.client.GetXattr(ctx, "data", name, "a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("getxattr %s: %v, want ErrNotFound", name, err)
		}
	}

	blocks := make([]dedupBlock, n)
	idx := make([]int, n)
	for i := range blocks {
		blocks[i] = dedupBlock{name: BlockName([]byte(fmt.Sprint(i)))}
		idx[i] = i
	}
	reported := 0
	if _, err := tc.client.blockBatch(ctx, OpRequest{Pool: "data", Op: OpBlockStat}, blocks, idx,
		func(int, *OpReply, int) { reported++ }); err != nil || reported != 0 {
		t.Fatalf("block stat of %d absent blocks: %d reported, err %v", n, reported, err)
	}
	if _, err := tc.client.blockBatch(ctx, OpRequest{Pool: "data", Op: OpBlockRead}, blocks, idx, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("block read of absent blocks: %v, want ErrNotFound", err)
	}
	if after := slotCount(tc.osds); after != before {
		t.Fatalf("reads of absent names grew the slots from %d to %d", before, after)
	}
}

// slotCount is the number of object slots the daemons hold, tombstones
// included.
func slotCount(osds []*OSD) int {
	n := 0
	for _, o := range osds {
		for _, p := range *o.pgs.Load() {
			n += len(p.slots())
		}
	}
	return n
}

func TestRemove(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "tmp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Remove(ctx, "data", "tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Read(ctx, "data", "tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after remove = %v", err)
	}
}

func TestOmapOperations(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	kv := map[string][]byte{
		"pos.3": []byte("three"),
		"pos.1": []byte("one"),
		"pos.2": []byte("two"),
		"meta":  []byte("m"),
	}
	if err := tc.client.OmapSet(ctx, "data", "idx", kv); err != nil {
		t.Fatal(err)
	}
	got, err := tc.client.OmapGet(ctx, "data", "idx", "pos.1", "pos.3", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["pos.1"]) != "one" || string(got["pos.3"]) != "three" {
		t.Fatalf("omap get = %v", got)
	}
	if _, ok := got["missing"]; ok {
		t.Fatal("missing key returned")
	}
	keys, err := tc.client.OmapList(ctx, "data", "idx", "pos.")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "pos.1" || keys[2] != "pos.3" {
		t.Fatalf("omap list = %v (must be sorted)", keys)
	}
	if err := tc.client.OmapDel(ctx, "data", "idx", "pos.2"); err != nil {
		t.Fatal(err)
	}
	keys, _ = tc.client.OmapList(ctx, "data", "idx", "pos.")
	if len(keys) != 2 {
		t.Fatalf("after del: %v", keys)
	}
}

func TestXattrs(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.SetXattr(ctx, "data", "o", "epoch", []byte("42")); err != nil {
		t.Fatal(err)
	}
	v, err := tc.client.GetXattr(ctx, "data", "o", "epoch")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "42" {
		t.Fatalf("xattr = %q", v)
	}
	if _, err := tc.client.GetXattr(ctx, "data", "o", "none"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing xattr err = %v", err)
	}
}

func TestNativeClassCounter(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	for i := 1; i <= 5; i++ {
		out, err := tc.client.Call(ctx, "data", "ctr", "counter", "incr", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != fmt.Sprint(i) {
			t.Fatalf("incr -> %q, want %d", out, i)
		}
	}
	out, err := tc.client.Call(ctx, "data", "ctr", "counter", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "5" {
		t.Fatalf("read -> %q", out)
	}
}

func TestNativeClassLock(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if _, err := tc.client.Call(ctx, "data", "res", "lock", "acquire", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	// Idempotent for the same owner.
	if _, err := tc.client.Call(ctx, "data", "res", "lock", "acquire", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	// Another owner is refused and told who holds it.
	out, err := tc.client.Call(ctx, "data", "res", "lock", "acquire", []byte("bob"))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("bob acquire = %v", err)
	}
	if string(out) != "alice" {
		t.Fatalf("holder = %q", out)
	}
	// Wrong owner cannot release.
	if _, err := tc.client.Call(ctx, "data", "res", "lock", "release", []byte("bob")); !errors.Is(err, ErrInval) {
		t.Fatalf("bob release = %v", err)
	}
	if _, err := tc.client.Call(ctx, "data", "res", "lock", "release", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "res", "lock", "acquire", []byte("bob")); err != nil {
		t.Fatalf("bob acquire after release: %v", err)
	}
}

func TestNativeClassLogAndSnap(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	for i := 0; i < 3; i++ {
		if _, err := tc.client.Call(ctx, "data", "events", "log", "append", []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	out, err := tc.client.Call(ctx, "data", "events", "log", "tail", []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `["e1","e2"]` {
		t.Fatalf("tail = %s", out)
	}

	if err := tc.client.WriteFull(ctx, "data", "blk", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "blk", "snapmeta", "create_snap", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.WriteFull(ctx, "data", "blk", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "blk", "snapmeta", "rollback_snap", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	got, _ := tc.client.Read(ctx, "data", "blk")
	if string(got) != "v1" {
		t.Fatalf("after rollback: %q", got)
	}
}

func TestChecksumClassCaches(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "big", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sum1, err := tc.client.Call(ctx, "data", "big", "checksum", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := tc.client.Call(ctx, "data", "big", "checksum", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(sum1) != string(sum2) {
		t.Fatalf("checksum changed: %s vs %s", sum1, sum2)
	}
	// Mutating the object invalidates the cache.
	if err := tc.client.WriteFull(ctx, "data", "big", []byte("different")); err != nil {
		t.Fatal(err)
	}
	sum3, err := tc.client.Call(ctx, "data", "big", "checksum", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(sum3) == string(sum1) {
		t.Fatal("checksum not recomputed after write")
	}
}

func TestRefcountAndGC(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "shared", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "shared", "refcount", "get", nil); err != nil {
		t.Fatal(err)
	}
	// Still referenced: gc refuses.
	if _, err := tc.client.Call(ctx, "data", "shared", "gc", "reap", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reap live = %v", err)
	}
	if _, err := tc.client.Call(ctx, "data", "shared", "refcount", "put", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "shared", "gc", "reap", nil); err != nil {
		t.Fatal(err)
	}
	got, _ := tc.client.Read(ctx, "data", "shared")
	if len(got) != 0 {
		t.Fatalf("after reap: %q", got)
	}
}

const scriptCounterV1 = `
function incr(cls)
	local v = tonumber(cls.omap_get("n")) or 0
	v = v + 1
	cls.omap_set("n", tostring(v))
	return tostring(v)
end
function get(cls)
	return cls.omap_get("n") or "0"
end
`

// waitClassLive blocks until every OSD has the class at version >= v.
func waitClassLive(t *testing.T, tc *testCluster, name string, v uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, o := range tc.osds {
		for {
			o.mu.Lock()
			live := o.classLive[name]
			o.mu.Unlock()
			if live >= v {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("osd.%d never saw class %s v%d", o.cfg.ID, name, v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestScriptClassInstallAndCall(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.Mon().InstallClass(ctx, "kcounter", scriptCounterV1, "metadata"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "kcounter", 1)
	if err := tc.client.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		out, err := tc.client.Call(ctx, "data", "kc", "kcounter", "incr", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != fmt.Sprint(i) {
			t.Fatalf("incr -> %q", out)
		}
	}
	out, err := tc.client.Call(ctx, "data", "kc", "kcounter", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "3" {
		t.Fatalf("get -> %q", out)
	}
}

func TestScriptClassUpgradeNoRestart(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.Mon().InstallClass(ctx, "greet", `function hello(cls) return "v1" end`, "other"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "greet", 1)
	tc.client.RefreshMap(ctx) //nolint:errcheck
	out, err := tc.client.Call(ctx, "data", "g", "greet", "hello", nil)
	if err != nil || string(out) != "v1" {
		t.Fatalf("v1 call = %q, %v", out, err)
	}
	// Upgrade in place; daemons keep running.
	if err := tc.client.Mon().InstallClass(ctx, "greet", `function hello(cls) return "v2" end`, "other"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "greet", 2)
	tc.client.RefreshMap(ctx) //nolint:errcheck
	out, err = tc.client.Call(ctx, "data", "g", "greet", "hello", nil)
	if err != nil || string(out) != "v2" {
		t.Fatalf("v2 call = %q, %v", out, err)
	}
}

func TestScriptClassAtomicAbort(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	script := `
function update(cls)
	cls.write("partial")
	error("ECANCELED: validation failed")
end
`
	if err := tc.client.Mon().InstallClass(ctx, "txn", script, "metadata"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "txn", 1)
	tc.client.RefreshMap(ctx) //nolint:errcheck
	if err := tc.client.WriteFull(ctx, "data", "doc", []byte("original")); err != nil {
		t.Fatal(err)
	}
	_, err := tc.client.Call(ctx, "data", "doc", "txn", "update", nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	got, _ := tc.client.Read(ctx, "data", "doc")
	if string(got) != "original" {
		t.Fatalf("aborted method leaked mutation: %q", got)
	}
}

func TestScriptClassRunawayIsKilled(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	if err := tc.client.Mon().InstallClass(ctx, "spin", `function loop(cls) while true do end end`, "other"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "spin", 1)
	tc.client.RefreshMap(ctx) //nolint:errcheck
	_, err := tc.client.Call(ctx, "data", "victim", "spin", "loop", nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("runaway script err = %v", err)
	}
	// The daemon survives and serves further requests.
	if err := tc.client.WriteFull(ctx, "data", "victim", []byte("alive")); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicMatrixIndexInterface(t *testing.T) {
	// The Section 4.2 example: atomically update a matrix in the
	// bytestream and its index in the omap.
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 10*time.Second)
	script := `
function put_row(cls)
	-- input: "<row>:<values>"
	local sep = string.find(cls.input, ":")
	if sep == nil then error("EINVAL: malformed input") end
	local row = string.sub(cls.input, 1, sep - 1)
	local vals = string.sub(cls.input, sep + 1)
	local off = cls.size()
	cls.append(vals .. "\n")
	cls.omap_set("row." .. row, tostring(off) .. "," .. tostring(string.len(vals) + 1))
	return tostring(off)
end
`
	if err := tc.client.Mon().InstallClass(ctx, "matrix", script, "metadata"); err != nil {
		t.Fatal(err)
	}
	waitClassLive(t, tc, "matrix", 1)
	tc.client.RefreshMap(ctx) //nolint:errcheck
	if _, err := tc.client.Call(ctx, "data", "m", "matrix", "put_row", []byte("0:1 2 3")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Call(ctx, "data", "m", "matrix", "put_row", []byte("1:4 5 6")); err != nil {
		t.Fatal(err)
	}
	kv, err := tc.client.OmapGet(ctx, "data", "m", "row.0", "row.1")
	if err != nil {
		t.Fatal(err)
	}
	if string(kv["row.0"]) != "0,6" || string(kv["row.1"]) != "6,6" {
		t.Fatalf("index = %v", map[string]string{"row.0": string(kv["row.0"]), "row.1": string(kv["row.1"])})
	}
	data, _ := tc.client.Read(ctx, "data", "m")
	if string(data) != "1 2 3\n4 5 6\n" {
		t.Fatalf("matrix = %q", data)
	}
}

func TestOSDFailureDataSurvives(t *testing.T) {
	tc := bootCluster(t, 4, 3)
	ctx := ctxT(t, 15*time.Second)
	// Write enough objects that every OSD is a primary for something.
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("obj%d", i)
		if err := tc.client.WriteFull(ctx, "data", name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash OSD 1 and mark it down (in production the beacon timeout
	// does this; the test does it explicitly for determinism).
	tc.osds[1].Stop()
	if err := tc.client.Mon().MarkOSDDown(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	// Give survivors a moment to learn the map and backfill.
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("obj%d", i)
		got, err := tc.client.Read(ctx, "data", name)
		if err != nil {
			t.Fatalf("read %s after failure: %v", name, err)
		}
		if string(got) != name {
			t.Fatalf("read %s = %q", name, got)
		}
	}
}

func TestBeaconTimeoutMarksDown(t *testing.T) {
	net := wire.NewNetwork()
	m := mon.New(net, mon.Config{
		ID: 0, Peers: []int{0},
		ProposalInterval: 5 * time.Millisecond,
		BeaconTimeout:    100 * time.Millisecond,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   200 * time.Millisecond,
		},
	})
	m.Start()
	defer m.Stop()
	if err := m.Lead(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 10*time.Second)
	boot := mon.NewClient(net, "client.boot", []int{0})
	if err := boot.CreatePool(ctx, "data", 4, 1); err != nil {
		t.Fatal(err)
	}
	osd := NewOSD(net, OSDConfig{
		ID: 0, Mons: []int{0},
		BeaconInterval: 20 * time.Millisecond,
	})
	if err := osd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash it; beacons stop; monitor marks it down.
	osd.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mm, err := boot.GetOSDMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(mm.UpOSDs()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never marked silent OSD down")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestScrubRepairsDivergence(t *testing.T) {
	tc := bootCluster(t, 3, 3)
	ctx := ctxT(t, 15*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "gold", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	// Find the acting set and corrupt a replica behind the system's back.
	m := tc.client.CachedMap()
	_, acting, err := Locate(m, "data", "gold")
	if err != nil {
		t.Fatal(err)
	}
	victim := tc.osds[acting[1]]
	pgid := PGID{Pool: "data", PG: PGForObject("gold", m.Pools["data"].PGNum)}
	ve := victim.getPG(pgid).entry("gold")
	ve.mu.Lock()
	ve.obj.Data = []byte("CORRUPT")
	ve.mu.Unlock()

	// Run a scrub round on the primary.
	primary := tc.osds[acting[0]]
	primary.scrubOnce()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ve.mu.Lock()
		data := string(ve.obj.Data)
		ve.mu.Unlock()
		if data == "pristine" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub never repaired replica (data=%q)", data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if primary.ScrubRepairs() == 0 {
		t.Fatal("repair not counted")
	}
}

// TestForceBackfillOrdersDeletions pins the Force purge discipline: a
// scrub repair deletes an entry the push omitted only when it can order
// the deletion — via the sender's tombstone version, or, for names the
// sender never saw, after the entry has sat unmutated past the purge
// grace. A just-applied forward (the create that raced the sender's
// scan) must survive.
func TestForceBackfillOrdersDeletions(t *testing.T) {
	o := NewOSD(wire.NewNetwork(), OSDConfig{ID: 0})
	p := o.getPG(PGID{Pool: "data", PG: 0})
	mk := func(name string, ver uint64, age time.Duration) *objEntry {
		e := p.entry(name)
		e.mu.Lock()
		obj := e.materializeLocked(name)
		obj.Data = []byte(name)
		e.ver = ver
		obj.Version = ver
		e.touch = time.Now().Add(-age)
		e.mu.Unlock()
		return e
	}
	// A forward applied after the sender's scan: live, fresh, unknown to
	// the sender.
	newborn := mk("newborn", 1, 0)
	// Genuine divergence: unknown to the sender and long unmutated.
	stale := mk("stale", 3, time.Minute)
	// Deleted by the sender at version 5; local version 4 predates it.
	deleted := mk("deleted", 4, time.Minute)
	// Rewritten locally (version 9) after the sender's tombstone at 7.
	rewritten := mk("rewritten", 9, time.Minute)

	o.applyBackfill(backfillMsg{
		Pool: "data", PG: 0, Force: true,
		Tombstones: map[string]uint64{"deleted": 5, "rewritten": 7},
	})

	check := func(e *objEntry, wantLive bool, wantVer uint64, what string) {
		t.Helper()
		e.mu.Lock()
		live, ver := e.obj != nil, e.ver
		e.mu.Unlock()
		if live != wantLive || ver != wantVer {
			t.Errorf("%s: live=%v ver=%d, want live=%v ver=%d", what, live, ver, wantLive, wantVer)
		}
	}
	check(newborn, true, 1, "racing create")
	check(stale, false, 4, "unordered stale divergence") // purge bumps 3 -> 4
	check(deleted, false, 5, "tombstoned by sender")     // adopts the tombstone version
	check(rewritten, true, 9, "locally newer than tombstone")
}

func TestGossipPropagatesMapWithLimitedFanout(t *testing.T) {
	// Monitor pushes to only 1 subscriber; the rest must learn the new
	// epoch via OSD-to-OSD gossip (Section 4.4 / Figure 8 pipeline).
	net := wire.NewNetwork()
	m := mon.New(net, mon.Config{
		ID: 0, Peers: []int{0},
		ProposalInterval: 5 * time.Millisecond,
		GossipFanout:     1,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   200 * time.Millisecond,
		},
	})
	m.Start()
	defer m.Stop()
	if err := m.Lead(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 15*time.Second)
	boot := mon.NewClient(net, "client.boot", []int{0})
	if err := boot.CreatePool(ctx, "data", 4, 1); err != nil {
		t.Fatal(err)
	}
	var osds []*OSD
	for i := 0; i < 8; i++ {
		o := NewOSD(net, OSDConfig{ID: i, Mons: []int{0}, GossipInterval: 10 * time.Millisecond})
		if err := o.Start(ctx); err != nil {
			t.Fatal(err)
		}
		osds = append(osds, o)
	}
	defer func() {
		for _, o := range osds {
			o.Stop()
		}
	}()
	if err := boot.InstallClass(ctx, "gossiped", "function f(cls) return 1 end", "other"); err != nil {
		t.Fatal(err)
	}
	target, err := boot.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, o := range osds {
		for o.Epoch() < target.Epoch {
			if time.Now().After(deadline) {
				t.Fatalf("osd.%d stuck at epoch %d < %d", o.cfg.ID, o.Epoch(), target.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// ---- placement properties ----

func TestPropPGForObjectInRange(t *testing.T) {
	f := func(name string, pgNum uint8) bool {
		n := int(pgNum%64) + 1
		pg := PGForObject(name, n)
		return pg >= 0 && pg < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mapWithOSDs(ids ...int) *types.OSDMap {
	m := types.NewOSDMap()
	for _, id := range ids {
		m.OSDs[id] = types.OSDInfo{ID: id, State: types.StateUp}
	}
	return m
}

func TestOSDsForPGDistinctAndSized(t *testing.T) {
	m := mapWithOSDs(0, 1, 2, 3, 4)
	for pg := 0; pg < 32; pg++ {
		set := rankOSDs(m.UpOSDs(), "p", pg, 3)
		if len(set) != 3 {
			t.Fatalf("pg %d: set %v", pg, set)
		}
		seen := map[int]bool{}
		for _, id := range set {
			if seen[id] {
				t.Fatalf("pg %d: duplicate in %v", pg, set)
			}
			seen[id] = true
		}
	}
}

func TestOSDsForPGMinimalMovement(t *testing.T) {
	// HRW property: removing an OSD that is not in a PG's acting set
	// must not change that acting set.
	full := mapWithOSDs(0, 1, 2, 3, 4, 5, 6, 7)
	for pg := 0; pg < 64; pg++ {
		set := rankOSDs(full.UpOSDs(), "p", pg, 3)
		inSet := map[int]bool{}
		for _, id := range set {
			inSet[id] = true
		}
		for victim := 0; victim < 8; victim++ {
			if inSet[victim] {
				continue
			}
			reduced := mapWithOSDs()
			for id := 0; id < 8; id++ {
				if id != victim {
					reduced.OSDs[id] = types.OSDInfo{ID: id, State: types.StateUp}
				}
			}
			after := rankOSDs(reduced.UpOSDs(), "p", pg, 3)
			for i := range set {
				if set[i] != after[i] {
					t.Fatalf("pg %d: removing uninvolved osd.%d moved set %v -> %v", pg, victim, set, after)
				}
			}
		}
	}
}

func TestPropPlacementBalanced(t *testing.T) {
	// Primaries spread across OSDs: no OSD is primary for more than half
	// of a reasonable number of PGs (loose bound; catches gross skew).
	m := mapWithOSDs(0, 1, 2, 3, 4, 5, 6, 7)
	counts := map[int]int{}
	const pgs = 256
	for pg := 0; pg < pgs; pg++ {
		set := rankOSDs(m.UpOSDs(), "pool", pg, 3)
		counts[set[0]]++
	}
	for id, n := range counts {
		if n > pgs/2 {
			t.Fatalf("osd.%d is primary for %d/%d PGs", id, n, pgs)
		}
	}
	if len(counts) < 6 {
		t.Fatalf("only %d OSDs ever primary", len(counts))
	}
}
