package rados

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cdc"
	"repro/internal/mon"
	"repro/internal/paxos"
	"repro/internal/types"
	"repro/internal/wire"
)

// testBlocks builds n distinct blocks; tag keeps the contents of
// different tests apart.
func testBlocks(tag string, n int) []dedupBlock {
	blocks := make([]dedupBlock, n)
	for i := range blocks {
		data := []byte(fmt.Sprintf("%s: content of block %d", tag, i))
		blocks[i] = dedupBlock{name: BlockName(data), data: data, size: len(data)}
	}
	return blocks
}

// blockOps is the wire form of blocks.
func blockOps(blocks []dedupBlock) []BlockOp {
	ops := make([]BlockOp, len(blocks))
	for i, b := range blocks {
		ops[i] = BlockOp{Name: b.name, Data: b.data}
	}
	return ops
}

func blockNamesOf(blocks []dedupBlock) []string {
	names := make([]string, len(blocks))
	for i, b := range blocks {
		names[i] = b.name
	}
	return names
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// byPrimary groups blocks by the primary m names for each.
func byPrimary(t *testing.T, m *types.OSDMap, blocks []dedupBlock) map[int][]dedupBlock {
	t.Helper()
	groups := make(map[int][]dedupBlock)
	for _, b := range blocks {
		_, acting, err := Locate(m, "data", b.name)
		if err != nil {
			t.Fatal(err)
		}
		groups[acting[0]] = append(groups[acting[0]], b)
	}
	return groups
}

// callOSD delivers req to one daemon as the test cluster's client, the
// way do() would, without do()'s routing or retries.
func callOSD(t *testing.T, ctx context.Context, tc *testCluster, id int, req OpRequest) OpReply {
	t.Helper()
	resp, err := tc.net.Call(ctx, "client.0", OSDAddr(id), &req)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := resp.(OpReply)
	if !ok {
		t.Fatalf("reply %T, want OpReply", resp)
	}
	return rep
}

// backdate sets a slot's reclaim clock an hour into the past and
// returns that instant.
func backdate(o *OSD, name string) time.Time {
	e := o.getPG(PGID{Pool: "data", PG: PGForObject(name, 8)}).entry(name)
	old := time.Now().Add(-time.Hour)
	e.mu.Lock()
	e.touch = old
	e.mu.Unlock()
	return old
}

func touchOf(o *OSD, name string) time.Time {
	e := o.getPG(PGID{Pool: "data", PG: PGForObject(name, 8)}).entry(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.touch
}

// addOSD boots one more daemon into a running test cluster (a map
// change that moves placement) and waits until every daemon has the
// resulting map. It returns that map.
func addOSD(t *testing.T, ctx context.Context, tc *testCluster) *types.OSDMap {
	t.Helper()
	osd := NewOSD(tc.net, OSDConfig{ID: len(tc.osds), Mons: []int{0}, GossipInterval: 20 * time.Millisecond})
	if err := osd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	tc.osds = append(tc.osds, osd)
	m, err := mon.NewClient(tc.net, "client.probe", []int{0}).GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tc.osds {
		for o.Epoch() < m.Epoch {
			if ctx.Err() != nil {
				t.Fatalf("osd.%d stuck at epoch %d, map is at %d", o.cfg.ID, o.Epoch(), m.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return m
}

// movedPrimaries counts the blocks whose primary differs between two maps.
func movedPrimaries(t *testing.T, before, after *types.OSDMap, blocks []dedupBlock) int {
	t.Helper()
	moved := 0
	for _, b := range blocks {
		_, was, err := Locate(before, "data", b.name)
		if err != nil {
			t.Fatal(err)
		}
		_, is, err := Locate(after, "data", b.name)
		if err != nil {
			t.Fatal(err)
		}
		if was[0] != is[0] {
			moved++
		}
	}
	return moved
}

// A batch with one entry whose content does not hash to its name is
// rejected whole: nothing of it is stored, not even the good entries
// ahead of the bad one.
func TestBlockBatchBadHashStoresNothing(t *testing.T) {
	tc := bootCluster(t, 1, 1)
	ctx := ctxT(t, 10*time.Second)
	blocks := testBlocks("bad-hash", 6)
	ops := blockOps(blocks)
	ops[3].Data = []byte("not what the name promises")

	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: ops[0].Name, Op: OpBlockWrite, Blocks: ops})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != EINVAL || !strings.Contains(rep.Detail, ops[3].Name) {
		t.Fatalf("reply = %v %q, want EINVAL naming %s", rep.Result, rep.Detail, ops[3].Name)
	}
	if n, _ := tc.osds[0].DedupBlockCount("data"); n != 0 {
		t.Fatalf("rejected batch stored %d blocks", n)
	}
}

// Entries already stored, and entries repeated inside one batch, are
// acknowledged without a new version, and refresh the reclaim clock the
// way a single duplicate write does.
func TestBlockBatchDuplicatesAckAndTouch(t *testing.T) {
	tc := bootCluster(t, 1, 1)
	ctx := ctxT(t, 10*time.Second)
	blocks := testBlocks("dup", 3)
	a, b, c := blocks[0], blocks[1], blocks[2]

	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: a.name, Op: OpBlockWrite, Blocks: blockOps([]dedupBlock{a, b})})
	if err != nil || rep.Result != OK {
		t.Fatalf("first batch: %v / %v", err, rep.Result)
	}
	if want := []string{a.name, b.name}; !reflect.DeepEqual(rep.Keys, want) {
		t.Fatalf("first batch acked %v, want %v", rep.Keys, want)
	}
	_, verA := replicaState(tc.osds[0], a.name)
	old := backdate(tc.osds[0], a.name)

	rep, err = tc.client.do(ctx, OpRequest{Pool: "data", Object: a.name, Op: OpBlockWrite, Blocks: blockOps([]dedupBlock{a, c, c})})
	if err != nil || rep.Result != OK {
		t.Fatalf("second batch: %v / %v", err, rep.Result)
	}
	if want := []string{a.name, c.name, c.name}; !reflect.DeepEqual(rep.Keys, want) {
		t.Fatalf("second batch acked %v, want %v", rep.Keys, want)
	}
	if _, ver := replicaState(tc.osds[0], a.name); ver != verA {
		t.Fatalf("duplicate entry bumped %s from version %d to %d", a.name, verA, ver)
	}
	if !touchOf(tc.osds[0], a.name).After(old) {
		t.Fatal("duplicate entry did not refresh the reclaim clock")
	}
	if data, ver := replicaState(tc.osds[0], c.name); data != string(c.data) || ver != 1 {
		t.Fatalf("repeated entry stored %q at version %d, want its content at version 1", data, ver)
	}
}

// A batch on a replicas=3 pool reaches every replica with one forward
// per peer, the forwards in flight together, and leaves nothing for
// scrub.
func TestBlockBatchReplicatesSubBatches(t *testing.T) {
	t.Run("pipelined", testBlockBatchReplicatesPipelined)
}

func testBlockBatchReplicatesPipelined(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 3,
		osd: OSDConfig{GossipInterval: time.Hour}, // quiet fabric: only op traffic
	})
	ctx := ctxT(t, 15*time.Second)
	primary, group := -1, []dedupBlock(nil)
	for id, g := range byPrimary(t, tc.client.CachedMap(), testBlocks("replicated", 24)) {
		if len(g) > len(group) {
			primary, group = id, g
		}
	}
	if len(group) < 2 {
		t.Fatalf("largest primary group has %d blocks", len(group))
	}
	// A read settles the primary's map epoch without any fan-out.
	if _, err := tc.client.Read(ctx, "data", group[0].name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("settling read: %v", err)
	}

	// Real latency, so that the two forwards overlap in flight.
	tc.net.SetLatency(time.Millisecond, 0)
	before := tc.net.Stats()
	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: group[0].name, Op: OpBlockWrite, Blocks: blockOps(group)})
	tc.net.SetLatency(0, 0)
	if err != nil || rep.Result != OK {
		t.Fatalf("batch: %v / %v %s", err, rep.Result, rep.Detail)
	}
	if !reflect.DeepEqual(rep.Keys, blockNamesOf(group)) {
		t.Fatalf("acked %d of %d entries", len(rep.Keys), len(group))
	}
	after := tc.net.Stats()
	addr := OSDAddr(primary)
	if got := after.Outbound["client.0"].Calls - before.Outbound["client.0"].Calls; got != 1 {
		t.Errorf("client calls = %d, want exactly 1", got)
	}
	if got := after.Outbound[addr].Calls - before.Outbound[addr].Calls; got != 2 {
		t.Errorf("primary forwards = %d for %d blocks, want exactly 2 (one per peer)", got, len(group))
	}
	if got := after.Outbound[addr].MaxInflight; got < 2 {
		t.Errorf("primary outbound MaxInflight = %d, want >= 2 (sub-batches fan out in parallel)", got)
	}
	for _, o := range tc.osds {
		for _, b := range group {
			if data, ver := replicaState(o, b.name); data != string(b.data) || ver != 1 {
				t.Fatalf("osd.%d holds %s as %q at version %d", o.cfg.ID, b.name, data, ver)
			}
		}
		if n := o.ScrubNow(); n != 0 {
			t.Fatalf("osd.%d scrub repaired %d replicas after a batch", o.cfg.ID, n)
		}
	}
}

// A resend of a batch (same sender, same OpID) is answered from the
// replay cache: same reply, nothing applied again — not even the ack's
// touch of the reclaim clock.
func TestBlockBatchResendNotReapplied(t *testing.T) {
	tc := bootCluster(t, 1, 1)
	ctx := ctxT(t, 10*time.Second)
	blocks := testBlocks("resend", 4)
	req := OpRequest{
		Pool: "data", Object: blocks[0].name, Epoch: tc.client.CachedMap().Epoch,
		Op: OpBlockWrite, Blocks: blockOps(blocks), OpID: 4242,
	}
	first := callOSD(t, ctx, tc, 0, req)
	if first.Result != OK || len(first.Keys) != len(blocks) {
		t.Fatalf("first delivery: %+v", first)
	}
	old := backdate(tc.osds[0], blocks[1].name)
	second := callOSD(t, ctx, tc, 0, req)
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("resend answered %+v, first delivery %+v", second, first)
	}
	if got := touchOf(tc.osds[0], blocks[1].name); !got.Equal(old) {
		t.Fatal("resend was applied again: it touched the reclaim clock")
	}
}

// A daemon handed entries of PGs it does not lead stores and reports
// only its own, for writes and reads alike.
func TestBlockBatchSkipsUnledEntries(t *testing.T) {
	tc := bootCluster(t, 3, 1)
	ctx := ctxT(t, 10*time.Second)
	blocks := testBlocks("unled", 24)
	groups := byPrimary(t, tc.client.CachedMap(), blocks)
	if len(groups) < 2 {
		t.Fatalf("all blocks share one primary: %v", groups)
	}
	target := -1
	for id := range groups {
		target = id
		break
	}
	led := groups[target]
	// The whole set, the target's own first so that routing accepts it.
	mixed := append(append([]dedupBlock{}, led...), blocks...)

	rep := callOSD(t, ctx, tc, target, OpRequest{
		Pool: "data", Object: mixed[0].name, Epoch: tc.client.CachedMap().Epoch,
		Op: OpBlockWrite, Blocks: blockOps(mixed),
	})
	var want []string
	for _, b := range mixed {
		if _, acting, _ := Locate(tc.client.CachedMap(), "data", b.name); acting[0] == target {
			want = append(want, b.name)
		}
	}
	if rep.Result != OK || !reflect.DeepEqual(rep.Keys, want) {
		t.Fatalf("write acked %v (%v), want the %d led entries", rep.Keys, rep.Result, len(want))
	}
	if n, _ := tc.osds[target].DedupBlockCount("data"); n != len(led) {
		t.Fatalf("osd.%d leads %d stored blocks, want %d", target, n, len(led))
	}
	for _, b := range blocks {
		if _, acting, _ := Locate(tc.client.CachedMap(), "data", b.name); acting[0] != target {
			if data, ver := replicaState(tc.osds[target], b.name); ver != 0 {
				t.Fatalf("osd.%d stored unled block %s (%q, version %d)", target, b.name, data, ver)
			}
		}
	}

	rep = callOSD(t, ctx, tc, target, OpRequest{
		Pool: "data", Object: mixed[0].name, Epoch: tc.client.CachedMap().Epoch,
		Op: OpBlockRead, Keys: blockNamesOf(mixed),
	})
	if rep.Result != OK || !reflect.DeepEqual(rep.Keys, want) || len(rep.Blocks) != len(want) {
		t.Fatalf("read returned %d names, %d blocks (%v), want %d", len(rep.Keys), len(rep.Blocks), rep.Result, len(want))
	}
	for i, name := range rep.Keys {
		if BlockName(rep.Blocks[i]) != name {
			t.Fatalf("read returned the wrong bytes for %s", name)
		}
	}
}

// A map change that moves primaries between the stat round and the put
// round: the put, grouped with the stale map, must still land every
// block at the primary that leads it now, once, and leave the audit
// clean.
func TestDedupPrimaryMoveBetweenStatAndPut(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	data := dupCorpus(11, 32*1024)

	// What WriteDeduped does up to the stat round, by hand.
	man, blocks := splitForTest(t, data)
	present := 0
	if _, err := tc.client.blockBatch(ctx, OpRequest{Pool: "data", Op: OpBlockStat}, blocks, allIdx(len(blocks)),
		func(int, *OpReply, int) { present++ }); err != nil {
		t.Fatal(err)
	}
	if present != 0 {
		t.Fatalf("stat found %d blocks in an empty pool", present)
	}

	stale := tc.client.CachedMap()
	fresh := addOSD(t, ctx, tc)
	if tc.client.CachedMap().Epoch >= fresh.Epoch {
		t.Fatal("client map refreshed by itself; the put would not be grouped stale")
	}
	if moved := movedPrimaries(t, stale, fresh, blocks); moved == 0 {
		t.Fatal("the map change moved no block's primary; the test is vacuous")
	}

	if err := tc.client.blockBatchAll(ctx, OpRequest{Pool: "data", Op: OpBlockWrite}, blocks, allIdx(len(blocks)), nil); err != nil {
		t.Fatal(err)
	}
	if tc.client.CachedMap().Epoch < fresh.Epoch {
		t.Fatal("put completed without the client learning the new map")
	}
	for _, b := range blocks {
		_, acting, err := Locate(fresh, "data", b.name)
		if err != nil {
			t.Fatal(err)
		}
		if got, ver := replicaState(tc.osds[acting[0]], b.name); got != string(b.data) || ver != 1 {
			t.Fatalf("primary osd.%d holds %s at version %d (%d bytes), want it stored exactly once", acting[0], b.name, ver, len(got))
		}
	}
	if err := tc.client.WriteFull(ctx, "data", "doc", EncodeManifest(man)); err != nil {
		t.Fatal(err)
	}
	got, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, %d bytes", err, len(got))
	}
	quiesceDedup(t, tc, time.Hour)
	if audit := auditClean(t, tc); audit.Blocks != len(blocks) {
		t.Fatalf("audit counts %d blocks, want %d", audit.Blocks, len(blocks))
	}
}

// splitForTest chunks and hashes data the way WriteDeduped does.
func splitForTest(t *testing.T, data []byte) (*Manifest, []dedupBlock) {
	t.Helper()
	chunks, err := cdc.Split(data, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{TotalLen: len(data)}
	var blocks []dedupBlock
	seen := make(map[[HashSize]byte]bool)
	for _, ch := range chunks {
		piece := data[ch.Off : ch.Off+ch.Len]
		mc := ManifestChunk{Hash: sha256.Sum256(piece), Len: ch.Len}
		man.Chunks = append(man.Chunks, mc)
		if !seen[mc.Hash] {
			seen[mc.Hash] = true
			blocks = append(blocks, dedupBlock{name: hashBlockName(&mc.Hash), data: piece, size: ch.Len})
		}
	}
	return man, blocks
}

// A batched get grouped with a stale map re-fetches, after a refresh,
// the blocks whose old primary no longer leads them.
func TestBlockReadRefetchesMovedBlocks(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	data := dupCorpus(12, 32*1024)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks()); err != nil {
		t.Fatal(err)
	}
	raw, err := tc.client.Read(ctx, "data", "doc")
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []dedupBlock
	for name := range man.blockNames() {
		blocks = append(blocks, dedupBlock{name: name})
	}

	reader := NewClient(tc.net, "client.reader", []int{0})
	if err := reader.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	stale := reader.CachedMap()
	fresh := addOSD(t, ctx, tc)
	if moved := movedPrimaries(t, stale, fresh, blocks); moved == 0 {
		t.Fatal("the map change moved no block's primary; the test is vacuous")
	}
	// Backfill brings the blocks to their new primaries; wait for it
	// with the writer, whose reads refresh its map as a side effect.
	for {
		got, err := tc.client.ReadDeduped(ctx, "data", "doc")
		if err == nil && bytes.Equal(got, data) {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("blocks never arrived at their new primaries: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reader.CachedMap().Epoch >= fresh.Epoch {
		t.Fatal("reader map refreshed by itself; the get would not be grouped stale")
	}

	err = reader.blockBatchAll(ctx, OpRequest{Pool: "data", Op: OpBlockRead}, blocks, allIdx(len(blocks)),
		func(i int, rep *OpReply, at int) { blocks[i].data = rep.Blocks[at] })
	if err != nil {
		t.Fatal(err)
	}
	if reader.CachedMap().Epoch < fresh.Epoch {
		t.Fatal("get completed without the reader learning the new map")
	}
	for _, b := range blocks {
		if BlockName(b.data) != b.name {
			t.Fatalf("block %s came back as %d wrong bytes", b.name, len(b.data))
		}
	}
}

// A manifest whose block is gone fails the read with the missing
// block's name and ErrNotFound, as the per-block read did.
func TestReadDedupedMissingBlock(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 15*time.Second)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", dupCorpus(13, 16*1024), smallChunks()); err != nil {
		t.Fatal(err)
	}
	victim := anyBlock(t, tc)
	forEachCopy(tc, victim, func(e *objEntry) { e.obj = nil })
	_, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "block "+victim) {
		t.Fatalf("read with a missing block: %v, want ErrNotFound naming block %s", err, victim)
	}
}

// When the fabric delays a send, a batch's per-primary requests are in
// flight together: the caller sends one group and the goroutines it
// offered the others to take them meanwhile (caller-runs never turns
// the groups into a sequence).
func TestBlockBatchGroupsOverlapWhenSendsBlock(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 1, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 15*time.Second)
	data := dupCorpus(15, 64*1024)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks()); err != nil {
		t.Fatal(err)
	}
	reader := NewClient(tc.net, "client.reader", []int{0})
	if err := reader.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	tc.net.SetLatency(5*time.Millisecond, 0)
	got, err := reader.ReadDeduped(ctx, "data", "doc")
	tc.net.SetLatency(0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read at 5 ms: %d bytes, %v", len(got), err)
	}
	if n := tc.net.Stats().Outbound["client.reader"].MaxInflight; n < 2 {
		t.Errorf("reader MaxInflight = %d across 3 primaries, want >= 2 (the groups overlap)", n)
	}
}

// The call-count guard: a cold deduped write costs the client one stat
// and one put per primary plus the manifest, a deduped read one get
// per primary plus the manifest — whatever the number of blocks.
func TestDedupClientCallCounts(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{
		osds: 3, replicas: 1,
		osd: OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 15*time.Second)
	// Settle every daemon's and the client's epoch before counting.
	for i := 0; i < 16; i++ {
		if err := tc.client.WriteFull(ctx, "data", fmt.Sprintf("warm-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	data := dupCorpus(14, 64*1024)
	calls := func() uint64 { return tc.net.Stats().Outbound["client.0"].Calls }

	before := calls()
	stats, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	wrote := calls() - before
	if stats.NewBlocks < 50 {
		t.Fatalf("only %d new blocks; the guard needs many more blocks than primaries", stats.NewBlocks)
	}
	const primaries = 3
	if wrote > 2*primaries+1 {
		t.Errorf("cold WriteDeduped of %d blocks made %d client calls, want <= %d", stats.NewBlocks, wrote, 2*primaries+1)
	}

	before = calls()
	got, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, %d bytes", err, len(got))
	}
	if read := calls() - before; read > primaries+1 {
		t.Errorf("ReadDeduped of %d blocks made %d client calls, want <= %d", stats.UniqueBlocks, read, primaries+1)
	}
}

// The byte bound splits what carries block contents — a primary's put
// and the reply of its get — and never the stat, which carries names.
func TestDedupByteBoundSplitsPayloadNotStat(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{
		osds: 1, replicas: 1,
		osd: OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 30*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "warm", []byte("x")); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*maxBlockBatchBytes+maxBlockBatchBytes/4)
	rand.New(rand.NewSource(16)).Read(data)
	calls := func() uint64 { return tc.net.Stats().Outbound["client.0"].Calls }

	before := calls()
	if _, err := tc.client.WriteDeduped(ctx, "data", "big", data, nil); err != nil {
		t.Fatal(err)
	}
	// One stat, three puts (4 + 4 + 1 MiB), the manifest.
	if wrote := calls() - before; wrote != 5 {
		t.Errorf("WriteDeduped of %d bytes to one primary made %d client calls, want 5", len(data), wrote)
	}

	before = calls()
	got, err := tc.client.ReadDeduped(ctx, "data", "big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, %d bytes", err, len(got))
	}
	// The manifest, three gets.
	if read := calls() - before; read != 4 {
		t.Errorf("ReadDeduped made %d client calls, want 4", read)
	}
}

// walPair boots a monitor, a replicas=2 pool and two WAL-backed OSDs.
func walPair(t *testing.T, dirs [2]string) (*wire.Network, [2]*OSD, *Client) {
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
	ctx := ctxT(t, 10*time.Second)
	if err := m.Lead(ctx); err != nil {
		t.Fatalf("lead: %v", err)
	}
	if err := mon.NewClient(net, "client.boot", []int{0}).CreatePool(ctx, "data", 8, 2); err != nil {
		t.Fatalf("create pool: %v", err)
	}
	osds := [2]*OSD{startWALOSDAs(t, net, 0, dirs[0]), startWALOSDAs(t, net, 1, dirs[1])}
	c := NewClient(net, "client.app", []int{0})
	if err := c.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	return net, osds, c
}

// On the durable backend every mutating op is exactly one journal
// commit on the primary and one on the replica: a block batch of many
// entries, each per-object mutation and a native class call alike. A
// failed op and a read commit nothing. Both copies of every block
// survive a crash right after the ack.
func TestBlockBatchWALOneCommitAndReplay(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	net, osds, c := walPair(t, dirs)
	ctx := ctxT(t, 30*time.Second)

	primary, group := -1, []dedupBlock(nil)
	for id, g := range byPrimary(t, c.CachedMap(), testBlocks("durable", 16)) {
		if len(g) > len(group) {
			primary, group = id, g
		}
	}
	if len(group) < 2 {
		t.Fatalf("largest primary group has %d blocks", len(group))
	}
	// Settle both daemons' epochs (a write reaches primary and replica).
	if err := c.WriteFull(ctx, "data", "settle", []byte("x")); err != nil {
		t.Fatal(err)
	}
	syncs := func(o *OSD) uint64 { return o.backend.(*WALBackend).Syncs() }

	for _, tc := range []struct {
		name    string
		op      func() error
		commits uint64
	}{
		{"BlockBatch", func() error {
			rep, err := c.do(ctx, OpRequest{Pool: "data", Object: group[0].name, Op: OpBlockWrite, Blocks: blockOps(group)})
			if err == nil && (rep.Result != OK || len(rep.Keys) != len(group)) {
				err = fmt.Errorf("batch of %d blocks (primary osd.%d): %+v", len(group), primary, rep)
			}
			return err
		}, 1},
		{"Create", func() error { return c.Create(ctx, "data", "o") }, 1},
		{"CreateExisting", func() error {
			if err := c.Create(ctx, "data", "o"); !errors.Is(err, ErrExists) {
				return fmt.Errorf("create of an existing object: %v, want ErrExists", err)
			}
			return nil
		}, 0},
		{"WriteFull", func() error { return c.WriteFull(ctx, "data", "o", []byte("full")) }, 1},
		{"Append", func() error { return c.Append(ctx, "data", "o", []byte("+tail")) }, 1},
		{"OmapSet", func() error { return c.OmapSet(ctx, "data", "o", map[string][]byte{"k": []byte("v")}) }, 1},
		{"SetXattr", func() error { return c.SetXattr(ctx, "data", "o", "x", []byte("y")) }, 1},
		{"Call", func() error {
			_, err := c.Call(ctx, "data", "ctr", "counter", "incr", nil)
			return err
		}, 1},
		{"Read", func() error {
			_, err := c.Read(ctx, "data", "o")
			return err
		}, 0},
		{"Remove", func() error { return c.Remove(ctx, "data", "o") }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := [2]uint64{syncs(osds[0]), syncs(osds[1])}
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
			for i, o := range osds {
				if got := syncs(o) - before[i]; got != tc.commits {
					t.Errorf("osd.%d committed %d times, want %d", i, got, tc.commits)
				}
			}
		})
	}

	osds[0].Crash()
	osds[1].Crash()
	for i := range osds {
		re := startWALOSDAs(t, net, i, dirs[i])
		if r := re.ReplayReport(); r.Skipped != 0 || r.Records < len(group) {
			t.Fatalf("osd.%d replay: %+v, want at least the batch's %d records", i, r, len(group))
		}
		for _, b := range group {
			if data, ver := replicaState(re, b.name); data != string(b.data) || ver != 1 {
				t.Fatalf("osd.%d recovered %s as %q at version %d", i, b.name, data, ver)
			}
		}
	}
}

// A replica's version pin survives a crash. The replica misses a
// WriteFull behind a partition; the Remove that follows reaches it for
// an object it never held, answers ENOENT, and still pins the slot to
// the primary's version. Its journal alone must rebuild that version:
// rebuilt behind it, the object's next forward would wait out
// ReplicaWaitTimeout on a predecessor that never comes.
func TestReplicaVersionPinSurvivesReplay(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	net, osds, c := walPair(t, dirs)
	ctx := ctxT(t, 30*time.Second)
	const name = "pinned"
	_, acting, err := c.view.Load().locate("data", name)
	if err != nil {
		t.Fatal(err)
	}
	primary, replica := acting[0], acting[1]
	// Settle both daemons' epochs (a write reaches primary and replica).
	if err := c.WriteFull(ctx, "data", "settle", []byte("x")); err != nil {
		t.Fatal(err)
	}

	net.Partition(OSDAddr(primary), OSDAddr(replica))
	if err := c.WriteFull(ctx, "data", name, []byte("missed")); err != nil {
		t.Fatal(err)
	}
	net.HealAll()
	if err := c.Remove(ctx, "data", name); err != nil {
		t.Fatal(err)
	}
	_, want := replicaState(osds[primary], name)
	if _, got := replicaState(osds[replica], name); got != want || want != 2 {
		t.Fatalf("replica at version %d, primary at %d; want both at 2", got, want)
	}

	osds[replica].Crash()
	be, err := OpenWALBackend(dirs[replica], WALBackendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close() //nolint:errcheck
	rebuilt := NewOSD(net, OSDConfig{ID: replica, Mons: []int{0}, Backend: be})
	if err := rebuilt.restore(); err != nil {
		t.Fatal(err)
	}
	if _, got := replicaState(rebuilt, name); got != want {
		t.Fatalf("replica rebuilt from its journal at version %d, the primary holds %d", got, want)
	}
}
