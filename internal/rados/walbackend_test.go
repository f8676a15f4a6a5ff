package rados

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
		{Kind: RecData, Pool: "data", PG: 0, Object: "b", Version: 9, Data: []byte("payload")},
		{Kind: RecData, Pool: "data", PG: 0, Object: "empty", Version: 2},
		{Kind: RecRemove, Pool: "p", PG: 7, Object: "gone", Version: 11},
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
		{Kind: RecTxn, Pool: "data", PG: 6, Object: "created", Version: 15}, // a create
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
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%v payload mismatch: got %+v want %+v", want.Kind, got, want)
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
	for _, m := range []Mutation{cases[0], cases[5]} {
		full := encodeMutation(nil, m)
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeMutation(full[:cut]); err == nil {
				t.Fatalf("decode of %d/%d byte prefix of a %v record succeeded", cut, len(full), m.Kind)
			}
		}
	}
	// Kind 0 is no record, and nothing lies past the last kind.
	for _, kind := range []byte{0, byte(RecWitnessDrop) + 1, 255} {
		rec := encodeMutation(nil, Mutation{Kind: RecRemove, Pool: "p", Object: "o", Version: 1})
		rec[0] = kind
		if _, err := decodeMutation(rec); err == nil {
			t.Fatalf("record of kind %d decoded", kind)
		}
	}
	// A witness record ends with its conflict key count, even a keyless
	// one: without it the record is short.
	witness := encodeMutation(nil, Mutation{Kind: RecWitness, Pool: "data", Object: "o",
		Op: &OpRequest{Op: OpCall, OpID: 3, Client: "client.1", Class: "wk", Method: "put", Input: []byte("1")}})
	if _, err := decodeMutation(witness[:len(witness)-1]); err == nil {
		t.Fatal("witness record without its key count decoded")
	}
	// A snapshot whose omap pair count exceeds what is left of the record
	// fails before anything is sized by the count (the fuzz corpus's
	// omap_set_pair_count_overflow).
	overflow := []byte{byte(RecSnapshot), 0, 1, 'p', 0, 1, 'o', 1, 0}
	overflow = binary.AppendUvarint(overflow, 1<<40)
	if _, err := decodeMutation(append(overflow, 1, 'k', 0)); err == nil || !strings.Contains(err.Error(), "pair count overflows") {
		t.Fatalf("snapshot with an overflowing omap pair count: err = %v", err)
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
		{Kind: RecSnapshot, Pool: "data", Object: "o", Version: 3, Obj: &Object{Name: "o", Version: 3,
			Data: []byte("bytestream"), Omap: map[string][]byte{"k": []byte("omap value")},
			Xattrs: map[string][]byte{"x": []byte("xattr value")}}},
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
		if !bytes.Equal(got.Data, m.Data) || !reflect.DeepEqual(got.Obj, m.Obj) || !sameTxn(got.Txn, m.Txn) {
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

// crashRow is one row of TestOSDWALCrashRecoversAckedWrites: before
// runs ahead of the mid-history checkpoint, run after it, and check
// reads the row's acked effect back once the daemon is rebuilt over its
// WAL. A nil before does nothing.
type crashRow struct {
	before, run, check func() error
}

// wantData fails unless object reads back as want.
func wantData(ctx context.Context, c *Client, object, want string) error {
	if got, err := c.Read(ctx, "data", object); err != nil || string(got) != want {
		return fmt.Errorf("read %s = %q, %v; want %q", object, got, err, want)
	}
	return nil
}

// A hard-killed WAL-backed OSD must recover every acked mutation of every
// op that journals, and a pool split's moves, purely from its log: with
// replicas=1 there is no peer to backfill from. Each mutating op of
// opSpecs has a row; the rows run around a mid-history checkpoint, so
// recovery stitches snapshot and journal. A zero-grace sweep after the
// rebuild must spare every block the replayed manifest cites.
func TestOSDWALCrashRecoversAckedWrites(t *testing.T) {
	dir := t.TempDir()
	net, boot, osd, rc := walCluster(t, dir)
	ctx := ctxT(t, 30*time.Second)
	var re *OSD // the daemon rebuilt over dir, for the checks

	doc := bytes.Repeat([]byte("malacology shares subsystems. "), 512)
	rows := map[OpCode]crashRow{
		OpWriteFull: {
			run:   func() error { return rc.WriteFull(ctx, "data", "flat", []byte("flat-bytes")) },
			check: func() error { return wantData(ctx, rc, "flat", "flat-bytes") },
		},
		OpAppend: {
			before: func() error { return rc.Append(ctx, "data", "log", []byte("one,")) },
			run:    func() error { return rc.Append(ctx, "data", "log", []byte("two")) },
			check:  func() error { return wantData(ctx, rc, "log", "one,two") },
		},
		OpRemove: {
			before: func() error { return rc.WriteFull(ctx, "data", "doomed", []byte("x")) },
			run:    func() error { return rc.Remove(ctx, "data", "doomed") },
			check: func() error {
				if got, err := rc.Read(ctx, "data", "doomed"); !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("removed object reads %q, %v", got, err)
				}
				return nil
			},
		},
		OpCreate: {
			run: func() error { return rc.Create(ctx, "data", "created") },
			check: func() error {
				if size, _, err := rc.Stat(ctx, "data", "created"); err != nil || size != 0 {
					return fmt.Errorf("stat of created object = %d bytes, %v", size, err)
				}
				return nil
			},
		},
		OpOmapSet: {
			run: func() error { return rc.OmapSet(ctx, "data", "meta", map[string][]byte{"k": []byte("v")}) },
			check: func() error {
				if kv, err := rc.OmapGet(ctx, "data", "meta", "k"); err != nil || string(kv["k"]) != "v" {
					return fmt.Errorf("omap k = %q, %v", kv["k"], err)
				}
				return nil
			},
		},
		OpOmapDel: {
			before: func() error {
				return rc.OmapSet(ctx, "data", "omap", map[string][]byte{"keep": []byte("1"), "drop": []byte("2")})
			},
			run: func() error { return rc.OmapDel(ctx, "data", "omap", "drop") },
			check: func() error {
				if keys, err := rc.OmapList(ctx, "data", "omap", ""); err != nil || !slices.Equal(keys, []string{"keep"}) {
					return fmt.Errorf("omap keys = %v, %v; want [keep]", keys, err)
				}
				return nil
			},
		},
		OpSetXattr: {
			run: func() error { return rc.SetXattr(ctx, "data", "meta", "owner", []byte("alice")) },
			check: func() error {
				if v, err := rc.GetXattr(ctx, "data", "meta", "owner"); err != nil || string(v) != "alice" {
					return fmt.Errorf("xattr owner = %q, %v", v, err)
				}
				return nil
			},
		},
		OpCall: {
			before: func() error { _, err := rc.Call(ctx, "data", "ctr", "counter", "incr", nil); return err },
			run:    func() error { _, err := rc.Call(ctx, "data", "ctr", "counter", "incr", nil); return err },
			check: func() error {
				if out, err := rc.Call(ctx, "data", "ctr", "counter", "read", nil); err != nil || string(out) != "2" {
					return fmt.Errorf("counter = %q, %v; want 2", out, err)
				}
				return nil
			},
		},
		OpBlockWrite: {
			run: func() error { _, err := rc.WriteDeduped(ctx, "data", "doc", doc, nil); return err },
			check: func() error {
				if got, err := rc.ReadDeduped(ctx, "data", "doc"); err != nil || !bytes.Equal(got, doc) {
					return fmt.Errorf("deduped read = %d bytes, %v", len(got), err)
				}
				return nil
			},
		},
		OpBlockReclaim: {
			run: func() error {
				gone := bytes.Repeat([]byte("a corpus the sweeper reclaims. "), 512)
				if _, err := rc.WriteDeduped(ctx, "data", "gone", gone, nil); err != nil {
					return err
				}
				if err := rc.Remove(ctx, "data", "gone"); err != nil {
					return err
				}
				if _, reclaimed := osd.SweepBlocks(0); reclaimed == 0 {
					return errors.New("the sweep reclaimed none of a removed manifest's blocks")
				}
				return nil
			},
			check: func() error {
				if audit := AuditDedup([]*OSD{re}, "data"); len(audit.Leaked) != 0 {
					return fmt.Errorf("%d reclaimed blocks are back", len(audit.Leaked))
				}
				return nil
			},
		},
	}
	// A split journals the slots it moves out of a placement group: the
	// objects live on in their new ones only.
	const splitObjects = 16
	split := crashRow{
		before: func() error {
			if err := boot.CreatePool(ctx, "split", 4, 1); err != nil {
				return err
			}
			for i := range splitObjects {
				if err := rc.WriteFull(ctx, "split", fmt.Sprintf("s%d", i), []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		},
		run: func() error {
			if err := boot.ResizePool(ctx, "split", 16); err != nil {
				return err
			}
			if err := rc.RefreshMap(ctx); err != nil {
				return err
			}
			for i := range splitObjects {
				for {
					got, err := rc.Read(ctx, "split", fmt.Sprintf("s%d", i))
					if err == nil && bytes.Equal(got, []byte{byte(i)}) {
						break
					}
					if ctx.Err() != nil {
						return fmt.Errorf("s%d never moved: %v", i, err)
					}
					time.Sleep(time.Millisecond)
				}
			}
			return nil
		},
		check: func() error {
			for id, p := range *re.pgs.Load() {
				for name, e := range p.slots() {
					e.mu.Lock()
					live := e.obj != nil
					e.mu.Unlock()
					if id.Pool == "split" && live && PGForObject(name, 16) != id.PG {
						return fmt.Errorf("%s lives on in placement group %d, which the split moved it out of", name, id.PG)
					}
				}
			}
			for i := range splitObjects {
				if got, err := rc.Read(ctx, "split", fmt.Sprintf("s%d", i)); err != nil || !bytes.Equal(got, []byte{byte(i)}) {
					return fmt.Errorf("s%d after the split = %v, %v", i, got, err)
				}
			}
			return nil
		},
	}
	// Every op but a read journals. The replica-only OpTxn arrives only as
	// a primary's forward; a primary journals each overwrite and call as
	// one, so their rows replay its record.
	var order []OpCode
	for i := range opSpecs {
		op := OpCode(i)
		if c := opSpecs[op].class; c == classRead || c == classReplicaOnly {
			continue
		}
		if _, ok := rows[op]; !ok {
			t.Errorf("%s mutates but has no crash-replay row", op)
		}
		order = append(order, op)
	}
	named := func(op OpCode) (string, crashRow) { return op.String(), rows[op] }
	each := func(step func(name string, r crashRow)) {
		for _, op := range order {
			step(named(op))
		}
		step("split", split)
	}

	each(func(name string, r crashRow) {
		if r.before != nil {
			if err := r.before(); err != nil {
				t.Fatalf("%s before the checkpoint: %v", name, err)
			}
		}
	})
	if err := osd.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	each(func(name string, r crashRow) {
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
	// The last commit covers every record before it, the split's too.
	if err := rc.WriteFull(ctx, "data", "late", []byte("post-checkpoint")); err != nil {
		t.Fatalf("write late: %v", err)
	}

	osd.Crash()

	// Recover: a fresh daemon over the same WAL directory.
	re = startWALOSD(t, net, dir)
	rep := re.ReplayReport()
	if rep.Records == 0 || rep.CheckpointRecords == 0 {
		t.Fatalf("replay did not stitch a checkpoint and its journal: %+v", rep)
	}
	if rep.TornBytes == 0 {
		t.Fatalf("crash left no torn tail: %+v", rep)
	}
	if rep.Skipped != 0 {
		t.Fatalf("replay skipped %d records", rep.Skipped)
	}
	each(func(name string, r crashRow) {
		if err := r.check(); err != nil {
			t.Errorf("%s after the crash: %v", name, err)
		}
	})
	if err := wantData(ctx, rc, "late", "post-checkpoint"); err != nil {
		t.Error(err)
	}

	// The replayed manifest is the record of which blocks stay: a
	// zero-grace sweep reclaims none of them, and the audit is clean.
	if _, reclaimed := re.SweepBlocks(0); reclaimed != 0 {
		t.Fatalf("sweep after recovery reclaimed %d cited blocks", reclaimed)
	}
	audit := AuditDedup([]*OSD{re}, "data")
	if audit.Manifests != 1 || audit.Blocks == 0 || len(audit.Dangling)+len(audit.Leaked)+len(audit.Corrupt) != 0 {
		t.Fatalf("audit after recovery: %+v", audit)
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

// FuzzDecodeMutation holds the journal record decoder to two properties
// on any input: it never panics, and a record it accepts re-encodes to
// bytes that decode to an equal mutation. The committed corpus
// (testdata/fuzz) holds one encoded record of every kind, a keyed and a
// keyless witness record, and a snapshot whose omap pair count overflows
// the record.
func FuzzDecodeMutation(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec []byte) {
		m, err := decodeMutation(rec)
		if err != nil {
			return
		}
		again, err := decodeMutation(encodeMutation(nil, m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded %v record decodes to %+v, %v; want %+v", m.Kind, again, err, m)
		}
	})
}
