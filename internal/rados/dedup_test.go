package rados

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cdc"
)

// smallChunks keeps test corpora tiny: ~256-byte average chunks.
func smallChunks() *cdc.Config {
	return &cdc.Config{MinSize: 64, AvgSize: 256, MaxSize: 1024, NormLevel: 2}
}

// dupCorpus builds a payload of n random bytes where roughly half the
// content repeats a shared segment (so distinct objects dedupe).
func dupCorpus(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	shared := make([]byte, n/2)
	rand.New(rand.NewSource(7777)).Read(shared) // same across seeds
	unique := make([]byte, n-len(shared))
	rng.Read(unique)
	return append(append([]byte{}, shared...), unique...)
}

// sweepAll runs one GC pass on every OSD.
func sweepAll(tc *testCluster, grace time.Duration) (delivered, reclaimed int) {
	for _, o := range tc.osds {
		d, r := o.SweepBlocks(grace)
		delivered += d
		reclaimed += r
	}
	return delivered, reclaimed
}

// quiesceDedup drives GC to a fixed point: sweeps until two consecutive
// passes deliver nothing, reclaim nothing, and leave every queue empty.
func quiesceDedup(t *testing.T, tc *testCluster, grace time.Duration) {
	t.Helper()
	clean := 0
	for i := 0; i < 50; i++ {
		d, r := sweepAll(tc, grace)
		queued := 0
		for _, o := range tc.osds {
			queued += o.QueuedRefDeltas()
		}
		if d == 0 && r == 0 && queued == 0 {
			clean++
			if clean >= 2 {
				return
			}
			continue
		}
		clean = 0
	}
	t.Fatal("dedup GC did not quiesce in 50 sweeps")
}

func auditClean(t *testing.T, tc *testCluster) DedupAudit {
	t.Helper()
	audit := AuditDedup(tc.osds, "data")
	if len(audit.Leaked) > 0 || len(audit.Dangling) > 0 {
		t.Fatalf("dedup audit: leaked=%v dangling=%v", audit.Leaked, audit.Dangling)
	}
	return audit
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{TotalLen: 300}
	for i := 0; i < 3; i++ {
		var c ManifestChunk
		for j := range c.Hash {
			c.Hash[j] = byte(i*31 + j)
		}
		c.Len = 100
		m.Chunks = append(m.Chunks, c)
	}
	enc := EncodeManifest(m)
	got, isManifest, err := DecodeManifest(enc)
	if !isManifest || err != nil {
		t.Fatalf("decode: manifest=%v err=%v", isManifest, err)
	}
	if got.TotalLen != m.TotalLen || len(got.Chunks) != len(m.Chunks) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range m.Chunks {
		if got.Chunks[i] != m.Chunks[i] {
			t.Fatalf("chunk %d mismatch", i)
		}
	}

	if _, isManifest, _ := DecodeManifest([]byte("plain old data")); isManifest {
		t.Fatal("flat data misdetected as manifest")
	}
	if _, isManifest, err := DecodeManifest(append(enc, 'x')); !isManifest || err == nil {
		t.Fatal("trailing bytes must fail strict decode")
	}
	if _, isManifest, err := DecodeManifest(enc[:len(enc)-10]); !isManifest || err == nil {
		t.Fatal("truncated manifest must fail decode")
	}
	// Header/payload disagreement.
	bad := *m
	bad.TotalLen = 999
	if _, _, err := DecodeManifest(EncodeManifest(&bad)); err == nil {
		t.Fatal("length mismatch must fail decode")
	}
}

// TestDecodeManifestHostileInputs feeds forged manifest headers through
// the decoder. Manifests arrive from clients and are decoded server-side
// in applyOp, so every field is attacker-controlled: a huge chunk count
// must not size an allocation, and lengths near 2^63 must not survive
// the int conversion as negatives. Each case must error, not panic.
func TestDecodeManifestHostileInputs(t *testing.T) {
	header := func(fields ...uint64) []byte {
		buf := []byte(manifestMagic)
		for _, f := range fields {
			buf = binary.AppendUvarint(buf, f)
		}
		return buf
	}
	oneChunk := func(total, length uint64) []byte {
		buf := header(total, 1)
		buf = append(buf, make([]byte, HashSize)...)
		return binary.AppendUvarint(buf, length)
	}
	twoChunks := func(total, l1, l2 uint64) []byte {
		buf := header(total, 2)
		buf = append(buf, make([]byte, HashSize)...)
		buf = binary.AppendUvarint(buf, l1)
		buf = append(buf, make([]byte, HashSize)...)
		return binary.AppendUvarint(buf, l2)
	}
	cases := map[string][]byte{
		"chunk count 2^60":        header(100, 1<<60),
		"total length 2^63":       header(1<<63, 1),
		"chunk length 2^62":       oneChunk(10, 1<<62),
		"sum exceeding the limit": twoChunks(1<<31-1, 1<<31-1, 1<<31-1),
	}
	for name, data := range cases {
		m, isManifest, err := DecodeManifest(data)
		if !isManifest {
			t.Errorf("%s: magic not recognized", name)
		}
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, m)
		}
	}
}

func TestWriteDedupedRoundTrip(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	data := dupCorpus(1, 32*1024)

	stats, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks < 2 || stats.UniqueBlocks == 0 || stats.NewBlocks != stats.UniqueBlocks {
		t.Fatalf("first write stats: %+v", stats)
	}
	got, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %d bytes, want %d", len(got), len(data))
	}

	// Rewriting identical content ships only the manifest.
	stats2, err := tc.client.WriteDeduped(ctx, "data", "doc2", data, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.NewBlocks != 0 {
		t.Fatalf("duplicate write stored %d new blocks: %+v", stats2.NewBlocks, stats2)
	}
	if stats2.WireBytes != stats2.ManifestLen {
		t.Fatalf("duplicate write shipped %d bytes, want manifest-only %d", stats2.WireBytes, stats2.ManifestLen)
	}
}

func TestReadDedupedPassthroughOnFlatObject(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "flat", []byte("not a manifest")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.client.ReadDeduped(ctx, "data", "flat")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "not a manifest" {
		t.Fatalf("passthrough read = %q", got)
	}
}

// TestDedupRefcountLifecycle walks the whole block lifetime: refs rise
// on manifest install, fall on overwrite, and the unreferenced blocks
// are reclaimed by a zero-grace sweep, leaving a clean audit.
func TestDedupRefcountLifecycle(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	dataA := dupCorpus(2, 16*1024)

	stats, err := tc.client.WriteDeduped(ctx, "data", "obj", dataA, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, time.Hour) // deliver deltas; reclaim nothing
	audit := auditClean(t, tc)
	if audit.Manifests != 1 || audit.Blocks != stats.UniqueBlocks {
		t.Fatalf("audit after write: %+v (want 1 manifest, %d blocks)", audit, stats.UniqueBlocks)
	}

	// Overwrite with unrelated content: old blocks drop to zero refs.
	rng := rand.New(rand.NewSource(99))
	dataB := make([]byte, 16*1024)
	rng.Read(dataB)
	if _, err := tc.client.WriteDeduped(ctx, "data", "obj", dataB, smallChunks()); err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, time.Hour)
	blocks, unref := 0, 0
	for _, o := range tc.osds {
		b, u := o.DedupBlockCount("data")
		blocks += b
		unref += u
	}
	if unref == 0 || unref != stats.UniqueBlocks {
		t.Fatalf("after overwrite: %d blocks, %d unreferenced (want %d unreferenced)", blocks, unref, stats.UniqueBlocks)
	}

	// Zero-grace sweep reclaims exactly the unreferenced blocks.
	quiesceDedup(t, tc, 0)
	audit = auditClean(t, tc)
	if audit.Manifests != 1 {
		t.Fatalf("manifest lost: %+v", audit)
	}
	for _, o := range tc.osds {
		if _, u := o.DedupBlockCount("data"); u != 0 {
			t.Fatalf("osd.%d still leads unreferenced blocks after reclaim", o.cfg.ID)
		}
	}
	// The surviving content still reads back.
	got, err := tc.client.ReadDeduped(ctx, "data", "obj")
	if err != nil || !bytes.Equal(got, dataB) {
		t.Fatalf("read after GC: err=%v, %d bytes", err, len(got))
	}
}

// TestDedupSharedBlockSurvivesPartialRemove pins the refcount point:
// two manifests share blocks; removing one must not strand the other.
func TestDedupSharedBlockSurvivesPartialRemove(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	data := dupCorpus(3, 16*1024)

	if _, err := tc.client.WriteDeduped(ctx, "data", "a", data, smallChunks()); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.WriteDeduped(ctx, "data", "b", data, smallChunks()); err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, time.Hour)
	auditClean(t, tc)

	if err := tc.client.Remove(ctx, "data", "a"); err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, 0)
	audit := auditClean(t, tc)
	if audit.Manifests != 1 {
		t.Fatalf("want 1 surviving manifest, audit %+v", audit)
	}
	got, err := tc.client.ReadDeduped(ctx, "data", "b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("survivor read: err=%v, %d bytes", err, len(got))
	}
	// And removing the survivor drains the pool to zero blocks.
	if err := tc.client.Remove(ctx, "data", "b"); err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, 0)
	audit = auditClean(t, tc)
	if audit.Manifests != 0 || audit.Blocks != 0 {
		t.Fatalf("pool not drained: %+v", audit)
	}
}

// TestBlockWriteSemantics exercises the op directly: hash-mismatched
// content is rejected, duplicate writes ack without mutating.
func TestBlockWriteSemantics(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	content := []byte("the block content")
	name := BlockName(content)

	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
	if err != nil || rep.Result != OK {
		t.Fatalf("block write: %v / %v", err, rep.Result)
	}
	ver := rep.Version

	rep, err = tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
	if err != nil || rep.Result != OK {
		t.Fatalf("duplicate block write: %v / %v", err, rep.Result)
	}
	if rep.Version != ver {
		t.Fatalf("duplicate write bumped version %d -> %d", ver, rep.Version)
	}

	rep, err = tc.client.do(ctx, OpRequest{Pool: "data", Object: BlockName([]byte("other")), Op: OpBlockWrite, Data: content})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != EINVAL {
		t.Fatalf("hash-mismatched write: %v, want EINVAL", rep.Result)
	}
}

// TestBlockStatBatchReportsOnlyLedBlocks covers the batched probe: it
// must report exactly the present blocks, across multiple PGs of one
// primary, and ignore absent names.
func TestBlockStatBatch(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 15*time.Second)
	var names []string
	for i := 0; i < 12; i++ {
		content := []byte(fmt.Sprintf("block %d", i))
		name := BlockName(content)
		names = append(names, name)
		rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
		if err != nil || rep.Result != OK {
			t.Fatalf("write %d: %v / %v", i, err, rep.Result)
		}
	}
	absent := BlockName([]byte("never written"))
	blocks := []dedupBlock{{name: names[0]}, {name: names[5]}, {name: names[11]}, {name: absent}}
	present := make(map[string]bool)
	if _, err := tc.client.blockBatch(ctx, OpRequest{Pool: "data", Op: OpBlockStat}, blocks, []int{0, 1, 2, 3},
		func(i int, _ *OpReply, _ int) { present[blocks[i].name] = true }); err != nil {
		t.Fatal(err)
	}
	if !present[names[0]] || !present[names[5]] || !present[names[11]] {
		t.Fatalf("present blocks unreported: %v", present)
	}
	if present[absent] {
		t.Fatal("absent block reported present")
	}
}

// TestDedupClassInfo checks the object-class view of the dedup path.
func TestDedupClassInfo(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 15*time.Second)
	data := dupCorpus(4, 8*1024)
	stats, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	out, err := tc.client.Call(ctx, "data", "doc", "dedup", "info", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`"total_len":%d`, len(data))
	if !bytes.Contains(out, []byte(want)) {
		t.Fatalf("dedup.info = %s (want it to contain %s)", out, want)
	}
	quiesceDedup(t, tc, time.Hour)
	// Every block referenced once by the single manifest.
	_, blocks := tc.osds[0].dedupCensus("data")
	checked := 0
	for name := range blocks {
		out, err := tc.client.Call(ctx, "data", name, "dedup", "refs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "1" {
			t.Fatalf("block %s refs = %s, want 1", name, out)
		}
		checked++
	}
	if stats.UniqueBlocks > 0 && checked == 0 && len(blocks) == 0 {
		t.Skip("osd.0 leads no blocks in this placement (rare)")
	}
}

// TestDedupGraceBlocksPrematureReclaim pins the stat-then-manifest
// race guard: a block probed by OpBlockStat must survive a sweep whose
// grace exceeds the probe age, even at zero references.
func TestDedupGraceBlocksPrematureReclaim(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	content := []byte("freshly probed block")
	name := BlockName(content)
	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
	if err != nil || rep.Result != OK {
		t.Fatalf("write: %v / %v", err, rep.Result)
	}
	// Deliver nothing, reclaim with a generous grace: the just-written
	// zero-ref block must survive.
	if _, reclaimed := sweepAll(tc, time.Minute); reclaimed != 0 {
		t.Fatalf("grace sweep reclaimed %d fresh blocks", reclaimed)
	}
	if _, err := tc.client.Read(ctx, "data", name); err != nil {
		t.Fatalf("block gone after grace sweep: %v", err)
	}
	// A zero-grace sweep then reclaims it everywhere.
	if _, reclaimed := sweepAll(tc, 0); reclaimed != 1 {
		t.Fatal("zero-grace sweep did not reclaim the orphan")
	}
	if _, err := tc.client.Read(ctx, "data", name); err == nil {
		t.Fatal("orphan block still readable after reclaim")
	}
}

// TestDedupReclaimNeedsTwoSweeps pins the failover guard: the touch
// clock is primary-local, so a nonzero-grace reclaim must see the block
// unreferenced on two consecutive sweeps of the same primary — a
// grace-expired touch alone (which is all a just-failed-over primary
// inherits) must not reclaim on the first scan.
func TestDedupReclaimNeedsTwoSweeps(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	content := []byte("block with a stale touch clock")
	name := BlockName(content)
	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
	if err != nil || rep.Result != OK {
		t.Fatalf("write: %v / %v", err, rep.Result)
	}
	// Backdate the touch clock everywhere, as a failover leaves it: old
	// on the new primary, with the client's probe lost with the old one.
	m := tc.client.CachedMap()
	pgid := PGID{Pool: "data", PG: PGForObject(name, m.Pools["data"].PGNum)}
	for _, o := range tc.osds {
		e := o.getPG(pgid).entry(name)
		e.mu.Lock()
		e.touch = time.Now().Add(-time.Hour)
		e.mu.Unlock()
	}
	if _, reclaimed := sweepAll(tc, time.Millisecond); reclaimed != 0 {
		t.Fatalf("first sweep reclaimed %d blocks; the first qualifying scan must only mark", reclaimed)
	}
	if _, err := tc.client.Read(ctx, "data", name); err != nil {
		t.Fatalf("block gone after one sweep: %v", err)
	}
	if _, reclaimed := sweepAll(tc, time.Millisecond); reclaimed != 1 {
		t.Fatal("second consecutive sweep did not reclaim the orphan")
	}
}

// TestDedupAuditDetectsSkew makes sure the audit is not vacuously
// clean: hand-tampered refcounts must surface as leaked/dangling.
func TestDedupAuditDetectsSkew(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 15*time.Second)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", dupCorpus(5, 8*1024), smallChunks()); err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, time.Hour)
	auditClean(t, tc)

	// Inflate one block's reference set behind the system's back:
	// fabricate entries for manifests that do not exist.
	var victim string
	for _, o := range tc.osds {
		_, blocks := o.dedupCensus("data")
		for name := range blocks {
			victim = name
			break
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("no blocks found")
	}
	forged := encodeRefset(map[string]refsetEntry{
		"doc":     {ver: 1, present: true},
		"phantom": {ver: 1, present: true},
	})
	if err := tc.client.SetXattr(ctx, "data", victim, xattrBlockRefs, forged); err != nil {
		t.Fatal(err)
	}
	audit := AuditDedup(tc.osds, "data")
	if len(audit.Leaked) == 0 {
		t.Fatalf("inflated reference set not reported: %+v", audit)
	}
	// Deflate it: drop every reference while the manifest still lives.
	if err := tc.client.SetXattr(ctx, "data", victim, xattrBlockRefs, nil); err != nil {
		t.Fatal(err)
	}
	audit = AuditDedup(tc.osds, "data")
	if len(audit.Dangling) == 0 {
		t.Fatalf("deflated reference set not reported: %+v", audit)
	}
}
