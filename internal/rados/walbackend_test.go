package rados

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/mon"
	"repro/internal/paxos"
	"repro/internal/wire"
)

func TestMutationCodecRoundTrip(t *testing.T) {
	snap := NewObject("snap-obj")
	snap.Data = []byte("snapshot bytes")
	snap.Omap["k1"] = []byte("v1")
	snap.Omap["k2"] = nil
	snap.Xattrs["dedup.refs"] = []byte("7:1:m")
	snap.Version = 42

	cases := []Mutation{
		{Kind: RecCreate, Pool: "data", PG: 3, Object: "a", Version: 1},
		{Kind: RecData, Pool: "data", PG: 0, Object: "b", Version: 9, Data: []byte("payload")},
		{Kind: RecData, Pool: "data", PG: 0, Object: "empty", Version: 2},
		{Kind: RecRemove, Pool: "p", PG: 7, Object: "gone", Version: 11},
		{Kind: RecPurge, Pool: "p", PG: 1, Object: "resplit", Version: 4},
		{Kind: RecOmapSet, Pool: "data", PG: 2, Object: "o", Version: 5,
			KV: map[string][]byte{"x": []byte("1"), "y": nil}},
		{Kind: RecOmapDel, Pool: "data", PG: 2, Object: "o", Version: 6, Keys: []string{"x", "y"}},
		{Kind: RecXattrSet, Pool: "data", PG: 2, Object: "o", Version: 7,
			Key: "attr", Data: []byte("val")},
		{Kind: RecSnapshot, Pool: "data", PG: 4, Object: "snap-obj", Version: 42,
			Force: true, Obj: snap},
		{Kind: RecVerPin, Pool: "data", PG: 5, Object: "pin", Version: 13},
		{Kind: RecTxn, Pool: "data", PG: 6, Object: "called", Version: 14, Txn: []TxnOp{
			{Kind: TxnData, Val: []byte("bytestream")},
			{Kind: TxnOmapSet, Key: "k", Val: []byte("v")},
			{Kind: TxnOmapSet, Key: "empty"},
			{Kind: TxnOmapDel, Key: "gone"},
			{Kind: TxnXattrSet, Key: "x", Val: []byte{0, 1, 2}},
			{Kind: TxnXattrDel, Key: "y"},
		}},
		{Kind: RecTxn, Pool: "data", PG: 6, Object: "called", Version: 15},
	}
	for _, want := range cases {
		enc := encodeMutation(nil, want)
		got, err := decodeMutation(enc)
		if err != nil {
			t.Fatalf("%v decode: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Pool != want.Pool || got.PG != want.PG ||
			got.Object != want.Object || got.Version != want.Version || got.Force != want.Force {
			t.Fatalf("%v header mismatch: got %+v want %+v", want.Kind, got, want)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Key != want.Key {
			t.Fatalf("%v payload mismatch: got %+v want %+v", want.Kind, got, want)
		}
		if len(got.Keys) != len(want.Keys) || (len(want.Keys) > 0 && !reflect.DeepEqual(got.Keys, want.Keys)) {
			t.Fatalf("%v keys mismatch: got %v want %v", want.Kind, got.Keys, want.Keys)
		}
		if len(want.KV) > 0 && !reflect.DeepEqual(got.KV, map[string][]byte{"x": []byte("1"), "y": {}}) &&
			!reflect.DeepEqual(got.KV, want.KV) {
			t.Fatalf("%v kv mismatch: got %v want %v", want.Kind, got.KV, want.KV)
		}
		if !sameTxn(got.Txn, want.Txn) {
			t.Fatalf("%v write-set mismatch: got %+v want %+v", want.Kind, got.Txn, want.Txn)
		}
		if want.Kind == RecSnapshot {
			if got.Obj == nil || got.Obj.Name != "snap-obj" ||
				!bytes.Equal(got.Obj.Data, snap.Data) ||
				!bytes.Equal(got.Obj.Omap["k1"], []byte("v1")) ||
				!bytes.Equal(got.Obj.Xattrs["dedup.refs"], []byte("7:1:m")) ||
				got.Obj.Version != 42 {
				t.Fatalf("snapshot object mismatch: %+v", got.Obj)
			}
		}
	}

	// Truncated records must fail to decode, never partially apply.
	for _, m := range []Mutation{cases[1], cases[10]} {
		full := encodeMutation(nil, m)
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeMutation(full[:cut]); err == nil {
				t.Fatalf("decode of %d/%d byte prefix of a %v record succeeded", cut, len(full), m.Kind)
			}
		}
	}
	if _, err := decodeMutation([]byte{255, 0, 0}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	badEntry := encodeMutation(nil, Mutation{Kind: RecTxn, Pool: "p", Object: "o", Version: 1,
		Txn: []TxnOp{{Kind: TxnXattrDel + 1, Key: "k"}}})
	if _, err := decodeMutation(badEntry); err == nil {
		t.Fatal("unknown write-set entry kind decoded")
	}
}

// Replay installs a decoded Mutation's slices as they are, which is safe
// only because decoding copies every value out of the frame: scribbling
// over the record afterwards (the log reuses its read buffer) must leave
// the Mutation's bytes unchanged.
func TestDecodedMutationOwnsItsBytes(t *testing.T) {
	for _, m := range []Mutation{
		{Kind: RecData, Pool: "data", Object: "o", Version: 1, Data: []byte("bytestream")},
		{Kind: RecOmapSet, Pool: "data", Object: "o", Version: 2, KV: map[string][]byte{"k": []byte("omap value")}},
		{Kind: RecXattrSet, Pool: "data", Object: "o", Version: 3, Key: "x", Data: []byte("xattr value")},
		{Kind: RecTxn, Pool: "data", Object: "o", Version: 4, Txn: []TxnOp{
			{Kind: TxnData, Val: []byte("bytestream")},
			{Kind: TxnOmapSet, Key: "k", Val: []byte("omap value")},
			{Kind: TxnXattrSet, Key: "x", Val: []byte("xattr value")},
		}},
	} {
		rec := encodeMutation(nil, m)
		got, err := decodeMutation(rec)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		for i := range rec {
			rec[i] = 0xee
		}
		if !bytes.Equal(got.Data, m.Data) || !reflect.DeepEqual(got.KV, m.KV) || !sameTxn(got.Txn, m.Txn) {
			t.Errorf("%v: overwriting the record changed the decoded mutation: %+v, want %+v", m.Kind, got, m)
		}
	}
}

func TestWALBackendCrashDropsUncommitted(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	be.Record(Mutation{Kind: RecData, Pool: "data", PG: 0, Object: "durable", Version: 1, Data: []byte("x")})
	if err := be.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	be.Record(Mutation{Kind: RecData, Pool: "data", PG: 0, Object: "lost", Version: 1, Data: []byte("y")})
	be.Abandon() // crash before commit

	re, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //nolint:errcheck
	var seen []string
	stats, err := re.Replay(func(m Mutation) { seen = append(seen, m.Object) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.TornBytes == 0 {
		t.Fatal("crash left no torn tail")
	}
	if stats.Skipped != 0 {
		t.Fatalf("skipped %d records", stats.Skipped)
	}
	if len(seen) != 1 || seen[0] != "durable" {
		t.Fatalf("replayed %v, want only the committed mutation", seen)
	}
}

func TestWALBackendCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 5; i++ {
		be.Record(Mutation{Kind: RecData, Pool: "data", PG: 0, Object: "obj",
			Version: uint64(i), Data: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := be.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	err = be.Checkpoint(func() []Mutation {
		return []Mutation{{Kind: RecData, Pool: "data", PG: 0, Object: "obj",
			Version: 5, Data: []byte("v5")}}
	})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	be.Record(Mutation{Kind: RecData, Pool: "data", PG: 0, Object: "obj",
		Version: 6, Data: []byte("v6")})
	if err := be.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //nolint:errcheck
	var vers []uint64
	stats, err := re.Replay(func(m Mutation) { vers = append(vers, m.Version) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.CheckpointRecords != 1 {
		t.Fatalf("checkpoint records = %d, want 1", stats.CheckpointRecords)
	}
	if stats.Records != 1 || vers[len(vers)-1] != 6 {
		t.Fatalf("journal replay = %d records %v, want just v6", stats.Records, vers)
	}
}

// walCluster boots one monitor and one single-replica OSD whose state
// persists in dir — the smallest cluster where recovery must come from
// the WAL alone (no peer holds a second copy to backfill from).
func walCluster(t *testing.T, dir string) (*wire.Network, *mon.Client, *OSD, *Client) {
	t.Helper()
	net := wire.NewNetwork()
	m := mon.New(net, mon.Config{
		ID: 0, Peers: []int{0},
		ProposalInterval: 5 * time.Millisecond,
		Paxos: paxos.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			ElectionTimeout:   200 * time.Millisecond,
		},
	})
	m.Start()
	t.Cleanup(m.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Lead(ctx); err != nil {
		t.Fatalf("lead: %v", err)
	}
	boot := mon.NewClient(net, "client.boot", []int{0})
	if err := boot.CreatePool(ctx, "data", 8, 1); err != nil {
		t.Fatalf("create pool: %v", err)
	}
	osd := startWALOSD(t, net, dir)
	return net, boot, osd, NewClient(net, "client.app", []int{0})
}

func startWALOSD(t *testing.T, net *wire.Network, dir string) *OSD {
	t.Helper()
	return startWALOSDAs(t, net, 0, dir)
}

// startWALOSDAs starts osd.<id> over the WAL directory dir.
func startWALOSDAs(t *testing.T, net *wire.Network, id int, dir string) *OSD {
	t.Helper()
	be, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("open backend: %v", err)
	}
	o := NewOSD(net, OSDConfig{ID: id, Mons: []int{0}, GossipInterval: 20 * time.Millisecond, Backend: be})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.Start(ctx); err != nil {
		t.Fatalf("start wal osd: %v", err)
	}
	t.Cleanup(o.Stop)
	return o
}

// A hard-killed WAL-backed OSD must recover every acked write — flat
// data, omap, xattrs, and a dedup manifest with its blocks — purely
// from its log: with replicas=1 there is no peer to backfill from.
func TestOSDWALCrashRecoversAckedWrites(t *testing.T) {
	dir := t.TempDir()
	net, _, osd, rc := walCluster(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := rc.WriteFull(ctx, "data", "flat", []byte("flat-bytes")); err != nil {
		t.Fatalf("write flat: %v", err)
	}
	if err := rc.OmapSet(ctx, "data", "meta", map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatalf("omap set: %v", err)
	}
	if err := rc.SetXattr(ctx, "data", "meta", "owner", []byte("alice")); err != nil {
		t.Fatalf("setxattr: %v", err)
	}

	// Checkpoint mid-history: recovery must stitch snapshot + journal.
	if err := osd.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	doc := bytes.Repeat([]byte("malacology shares subsystems. "), 512)
	if _, err := rc.WriteDeduped(ctx, "data", "doc", doc, nil); err != nil {
		t.Fatalf("write deduped: %v", err)
	}
	if err := rc.WriteFull(ctx, "data", "late", []byte("post-checkpoint")); err != nil {
		t.Fatalf("write late: %v", err)
	}

	osd.Crash()

	// Recover: a fresh daemon over the same WAL directory.
	re := startWALOSD(t, net, dir)
	rep := re.ReplayReport()
	if rep.Records == 0 && rep.CheckpointRecords == 0 {
		t.Fatalf("replay restored nothing: %+v", rep)
	}
	if rep.TornBytes == 0 {
		t.Fatalf("crash left no torn tail: %+v", rep)
	}
	if rep.Skipped != 0 {
		t.Fatalf("replay skipped %d records", rep.Skipped)
	}
	if rep.ManifestsRequeued == 0 || rep.RefDeltasQueued == 0 {
		t.Fatalf("reconciliation re-derived no manifest refs: %+v", rep)
	}
	if re.QueuedRefDeltas() == 0 {
		t.Fatal("reconciliation left the ref-delta queue empty")
	}

	if got, err := rc.Read(ctx, "data", "flat"); err != nil || !bytes.Equal(got, []byte("flat-bytes")) {
		t.Fatalf("read flat after crash: %q %v", got, err)
	}
	if kv, err := rc.OmapGet(ctx, "data", "meta", "k"); err != nil || !bytes.Equal(kv["k"], []byte("v")) {
		t.Fatalf("omap after crash: %v %v", kv, err)
	}
	if v, err := rc.GetXattr(ctx, "data", "meta", "owner"); err != nil || !bytes.Equal(v, []byte("alice")) {
		t.Fatalf("xattr after crash: %q %v", v, err)
	}
	if got, err := rc.ReadDeduped(ctx, "data", "doc"); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("deduped read after crash: %d bytes, %v", len(got), err)
	}
	if got, err := rc.Read(ctx, "data", "late"); err != nil || !bytes.Equal(got, []byte("post-checkpoint")) {
		t.Fatalf("read late after crash: %q %v", got, err)
	}

	// The dedup bookkeeping converges: deliver the re-derived deltas,
	// then the audit must find no dangling or leaked references.
	re.SweepBlocks(time.Hour)
	for i := 0; i < 50; i++ {
		if re.RefScrub("data") == 0 {
			break
		}
		re.SweepBlocks(time.Hour)
	}
	audit := AuditDedup([]*OSD{re}, "data")
	if len(audit.Dangling) != 0 || len(audit.Leaked) != 0 {
		t.Fatalf("audit after recovery: dangling=%v leaked=%v", audit.Dangling, audit.Leaked)
	}
}

// The broken-replay knob (SkipReconcileOnReplay) must actually skip
// reconciliation — the chaos fixture relies on the resulting dangling
// refs being caught by its checkers.
func TestOSDWALSkipReconcileLeavesQueueEmpty(t *testing.T) {
	dir := t.TempDir()
	net, _, osd, rc := walCluster(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	doc := bytes.Repeat([]byte("dedup me again and again. "), 512)
	if _, err := rc.WriteDeduped(ctx, "data", "doc", doc, nil); err != nil {
		t.Fatalf("write deduped: %v", err)
	}
	osd.Crash()

	be, err := OpenWALBackend(dir, WALBackendOptions{})
	if err != nil {
		t.Fatalf("open backend: %v", err)
	}
	re := NewOSD(net, OSDConfig{ID: 0, Mons: []int{0}, GossipInterval: 20 * time.Millisecond,
		Backend: be, SkipReconcileOnReplay: true})
	if err := re.Start(ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(re.Stop)
	rep := re.ReplayReport()
	if rep.ManifestsRequeued != 0 || rep.RefDeltasQueued != 0 {
		t.Fatalf("skip-reconcile still requeued: %+v", rep)
	}
	if re.QueuedRefDeltas() != 0 {
		t.Fatalf("skip-reconcile left %d queued deltas", re.QueuedRefDeltas())
	}
}

// A graceful Stop→Start keeps serving from memory without a second
// replay; the report stays that of the original recovery.
func TestOSDWALGracefulRestartSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	_, _, osd, rc := walCluster(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := rc.WriteFull(ctx, "data", "obj", []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	osd.Stop()
	if err := osd.Start(ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rep := osd.ReplayReport(); rep.Records != 0 || rep.CheckpointRecords != 0 {
		t.Fatalf("graceful restart replayed: %+v", rep)
	}
	if got, err := rc.Read(ctx, "data", "obj"); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("read after graceful restart: %q %v", got, err)
	}
}
