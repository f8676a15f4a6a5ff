package rados

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdc"
	"repro/internal/wire"
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
// passes reclaim nothing.
func quiesceDedup(t *testing.T, tc *testCluster, grace time.Duration) {
	t.Helper()
	clean := 0
	for i := 0; i < 50 && clean < 2; i++ {
		if _, r := sweepAll(tc, grace); r == 0 {
			clean++
		} else {
			clean = 0
		}
	}
	if clean < 2 {
		t.Fatal("dedup GC did not quiesce in 50 sweeps")
	}
}

func auditClean(t *testing.T, tc *testCluster) DedupAudit {
	t.Helper()
	audit := AuditDedup(tc.osds, "data")
	if len(audit.Leaked)+len(audit.Dangling)+len(audit.Corrupt) > 0 {
		t.Fatalf("dedup audit: leaked=%v dangling=%v corrupt=%v", audit.Leaked, audit.Dangling, audit.Corrupt)
	}
	return audit
}

// anyBlock returns a block of pool "data" some daemon of tc leads.
func anyBlock(t *testing.T, tc *testCluster) string {
	t.Helper()
	for _, o := range tc.osds {
		if names := o.ledBlocks(o.view.Load(), "data"); len(names) > 0 {
			return names[0]
		}
	}
	t.Fatal("no blocks found")
	return ""
}

// forEachCopy runs fn on every daemon's slot of name, under its lock.
func forEachCopy(tc *testCluster, name string, fn func(e *objEntry)) {
	for _, o := range tc.osds {
		e := o.getPG(PGID{Pool: "data", PG: PGForObject(name, 8)}).entry(name)
		e.mu.Lock()
		fn(e)
		e.mu.Unlock()
	}
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

// hostileManifests are forged manifest headers. Manifests arrive from
// clients and are decoded server-side (a GC census, cls dedup.info), so
// every field is attacker-controlled: a huge chunk count must not size
// an allocation, and lengths near 2^63 must not survive the int
// conversion as negatives.
func hostileManifests() map[string][]byte {
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
	return map[string][]byte{
		"chunk count 2^60":        header(100, 1<<60),
		"total length 2^63":       header(1<<63, 1),
		"chunk length 2^62":       oneChunk(10, 1<<62),
		"sum exceeding the limit": twoChunks(1<<31-1, 1<<31-1, 1<<31-1),
	}
}

// TestDecodeManifestHostileInputs feeds the forged headers through the
// decoder: each must error, not panic.
func TestDecodeManifestHostileInputs(t *testing.T) {
	for name, data := range hostileManifests() {
		m, isManifest, err := DecodeManifest(data)
		if !isManifest {
			t.Errorf("%s: magic not recognized", name)
		}
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, m)
		}
	}
}

// FuzzDecodeManifest holds the decoder to three properties on any
// input: it never panics; it reports a manifest exactly when the magic
// prefix is there; and a manifest it accepts re-encodes to bytes that
// decode to an equal value. The committed corpus (testdata/fuzz) holds
// the forged headers of hostileManifests, a valid manifest and flat data.
func FuzzDecodeManifest(f *testing.F) {
	for _, data := range hostileManifests() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, isManifest, err := DecodeManifest(data)
		if isManifest != bytes.HasPrefix(data, []byte(manifestMagic)) {
			t.Fatalf("manifest=%v, but the magic prefix is present=%v", isManifest, !isManifest)
		}
		if !isManifest || err != nil {
			return
		}
		again, isManifest, err := DecodeManifest(EncodeManifest(m))
		if !isManifest || err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded manifest decodes to %+v, %v (manifest=%v), want %+v", again, err, isManifest, m)
		}
	})
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

// TestReadDedupedChecksLengthsBeforeAllocating reads a 58-byte manifest
// that claims 1 GiB on a 10-byte block: the read must fail on the
// length mismatch before the claimed size sizes its output buffer.
func TestReadDedupedChecksLengthsBeforeAllocating(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	block := []byte("ten bytes!")
	if _, err := tc.client.WriteDeduped(ctx, "data", "real", block, nil); err != nil {
		t.Fatal(err)
	}
	const claim = 1 << 30
	forged := EncodeManifest(&Manifest{TotalLen: claim, Chunks: []ManifestChunk{{Hash: sha256.Sum256(block), Len: claim}}})
	if err := tc.client.WriteFull(ctx, "data", "forged", forged); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tc.client.ReadDeduped(ctx, "data", "forged")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a manifest claiming 1 GiB on a 10-byte block read back")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("the failed read allocated %d bytes, want < 1 MiB", grown)
	}
}

// TestReadDedupedAllocations pins a deduplicated read at one copy: a
// 256 KiB object of ~55 blocks, chunked as the benchmark chunks it,
// allocates exactly one object larger than 32 KiB per read — the
// result, of TotalLen bytes — and beside it only small objects: 61 of
// them, about 25 KiB, at 3 OSDs (the block names, cut from one string;
// the block table and its index; the manifest's decode; the per-primary
// requests and replies). The blocks alias the OSDs' stored slices, so a
// second buffer of the object's size or a copy per block (57 here)
// would show, and so would a name string per block.
// The result must be the caller's own: writing into it leaves the next
// read unchanged.
func TestReadDedupedAllocations(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 2, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 30*time.Second)
	data := dupCorpus(21, 256<<10)
	cfg := &cdc.Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2}
	stats, err := tc.client.WriteDeduped(ctx, "data", "doc", data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UniqueBlocks < 40 {
		t.Fatalf("only %d blocks; the guard needs a many-block object", stats.UniqueBlocks)
	}
	read := func() {
		got, err := tc.client.ReadDeduped(ctx, "data", "doc")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data) {
			t.Fatalf("read %d bytes, want %d", len(got), len(data))
		}
	}
	read() // settle the client's epoch

	const maxAllocs, maxSmallBytes = 70, 32 << 10
	allocs := testing.AllocsPerRun(100, read)
	large := largeAllocsPerRun(100, read)
	perRun := bytesPerRun(100, read)
	t.Logf("ReadDeduped of %d B in %d blocks: %.1f allocs, %.2f of them > 32 KiB, %.0f B/op",
		len(data), stats.UniqueBlocks, allocs, large, perRun)
	if allocs > maxAllocs {
		t.Errorf("ReadDeduped: %.1f allocs/op, want <= %d", allocs, maxAllocs)
	}
	if large != 1 {
		t.Errorf("ReadDeduped: %.2f allocations > 32 KiB per read, want exactly 1 (the result)", large)
	}
	if small := perRun - float64(len(data)); small < 0 || small > maxSmallBytes {
		t.Errorf("ReadDeduped of %d B: %.0f B/op allocated, want the result plus at most %d B", len(data), perRun, maxSmallBytes)
	}

	got, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] ^= 0xff
	}
	again, err := tc.client.ReadDeduped(ctx, "data", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("writing into a read's result changed what the next read returns")
	}
}

// largeAllocsPerRun is the number of heap objects larger than 32 KiB —
// the runtime's large-object class, past its last size class —
// allocated per call of fn over runs calls.
func largeAllocsPerRun(runs int, fn func()) float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	large := func() uint64 {
		metrics.Read(sample)
		h := sample[0].Value.Float64Histogram()
		var n uint64
		for i, c := range h.Counts {
			if h.Buckets[i] > 32<<10 {
				n += c
			}
		}
		return n
	}
	before := large()
	for i := 0; i < runs; i++ {
		fn()
	}
	return float64(large()-before) / float64(runs)
}

// TestDedupRefcountLifecycle walks the whole block lifetime: a manifest
// install cites its blocks, an overwrite leaves the old ones uncited,
// and a zero-grace sweep reclaims exactly those, leaving a clean audit.
func TestDedupRefcountLifecycle(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 30*time.Second)
	dataA := dupCorpus(2, 16*1024)

	stats, err := tc.client.WriteDeduped(ctx, "data", "obj", dataA, smallChunks())
	if err != nil {
		t.Fatal(err)
	}
	quiesceDedup(t, tc, time.Hour) // nothing is old enough to census
	audit := auditClean(t, tc)
	if audit.Manifests != 1 || audit.Blocks != stats.UniqueBlocks {
		t.Fatalf("audit after write: %+v (want 1 manifest, %d blocks)", audit, stats.UniqueBlocks)
	}

	// Overwrite with unrelated content: no manifest cites the old blocks.
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

// TestDedupSharedBlockSurvivesPartialRemove pins the census point: two
// manifests share blocks; removing one must not strand the other.
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
	want = fmt.Sprintf(`"unique_blocks":%d`, stats.UniqueBlocks)
	if !bytes.Contains(out, []byte(want)) {
		t.Fatalf("dedup.info = %s (want it to contain %s)", out, want)
	}
	// A block is not a manifest: the class says so rather than guessing.
	if _, err := tc.client.Call(ctx, "data", anyBlock(t, tc), "dedup", "info", nil); err == nil {
		t.Fatal("dedup.info on a block succeeded")
	}
}

// TestDedupGraceBlocksPrematureReclaim pins the stat-then-manifest
// race guard: a block probed by OpBlockStat must survive a sweep whose
// grace exceeds the probe age, even with no manifest citing it.
func TestDedupGraceBlocksPrematureReclaim(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 10*time.Second)
	content := []byte("freshly probed block")
	name := BlockName(content)
	rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content})
	if err != nil || rep.Result != OK {
		t.Fatalf("write: %v / %v", err, rep.Result)
	}
	// Sweep with a generous grace: the just-written uncited block must
	// survive.
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
// grace-expired on two consecutive sweeps of the same primary — a
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
	forEachCopy(tc, name, func(e *objEntry) { e.touch = time.Now().Add(-time.Hour) })
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
// clean: a cited block deleted behind the system's back must surface as
// dangling, and a block no manifest cites as leaked.
func TestDedupAuditDetectsSkew(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 15*time.Second)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", dupCorpus(5, 8*1024), smallChunks()); err != nil {
		t.Fatal(err)
	}
	auditClean(t, tc)

	victim := anyBlock(t, tc)
	forEachCopy(tc, victim, func(e *objEntry) { e.obj = nil })
	orphan := []byte("a block no manifest cites")
	if rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: BlockName(orphan), Op: OpBlockWrite, Data: orphan}); err != nil || rep.Result != OK {
		t.Fatalf("orphan write: %v / %v", err, rep.Result)
	}
	audit := AuditDedup(tc.osds, "data")
	if len(audit.Dangling) != 1 || !bytes.HasPrefix([]byte(audit.Dangling[0]), []byte(victim)) {
		t.Fatalf("deleted block %s not reported dangling: %+v", victim, audit)
	}
	if len(audit.Leaked) != 1 || !bytes.HasPrefix([]byte(audit.Leaked[0]), []byte(BlockName(orphan))) {
		t.Fatalf("orphan block not reported leaked: %+v", audit)
	}
}

// TestDedupAuditDetectsCorruptBlock changes one stored block in place:
// the audit must report that its bytes no longer hash to its name.
func TestDedupAuditDetectsCorruptBlock(t *testing.T) {
	tc := bootCluster(t, 2, 2)
	ctx := ctxT(t, 15*time.Second)
	if _, err := tc.client.WriteDeduped(ctx, "data", "doc", dupCorpus(6, 8*1024), smallChunks()); err != nil {
		t.Fatal(err)
	}
	auditClean(t, tc)
	victim := anyBlock(t, tc)
	forEachCopy(tc, victim, func(e *objEntry) {
		flipped := append([]byte(nil), e.obj.Data...)
		flipped[0] ^= 0xff
		e.obj.Data = flipped
	})
	audit := AuditDedup(tc.osds, "data")
	if len(audit.Corrupt) != 1 || !bytes.HasPrefix([]byte(audit.Corrupt[0]), []byte(victim)) {
		t.Fatalf("corrupt block %s not reported: %+v", victim, audit)
	}
	if len(audit.Leaked)+len(audit.Dangling) != 0 {
		t.Fatalf("a corrupt block is still cited and present: %+v", audit)
	}
}

// onCensus wraps the endpoint of tc.osds[id]: it counts each census the
// daemon receives and answers the request fn makes of it.
func onCensus(tc *testCluster, id int, fn func(censusReq) censusReq) *atomic.Int32 {
	var n atomic.Int32
	o := tc.osds[id]
	tc.net.Listen(o.Addr(), func(ctx context.Context, from wire.Addr, req any) (any, error) {
		if c, ok := req.(*censusReq); ok {
			n.Add(1)
			r := fn(*c)
			req = &r
		}
		return o.handle(ctx, from, req)
	})
	return &n
}

// TestDedupCensus pins the sweep's census: who it asks, when an answer
// stops the sweep, and what a cited or freshly touched block is spared.
func TestDedupCensus(t *testing.T) {
	asIs := func(c censusReq) censusReq { return c }
	cases := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, tc *testCluster)
	}{
		{"block cited only by a manifest on another OSD survives", func(t *testing.T, ctx context.Context, tc *testCluster) {
			data := dupCorpus(21, 16*1024)
			if _, err := tc.client.WriteDeduped(ctx, "data", "doc", data, smallChunks()); err != nil {
				t.Fatal(err)
			}
			holder := primaryOf(tc, "doc")
			elsewhere := 0
			for _, o := range tc.osds {
				if o.cfg.ID != holder {
					elsewhere += len(o.ledBlocks(o.view.Load(), "data"))
				}
			}
			if elsewhere == 0 {
				t.Fatal("every block shares the manifest's primary; the case tests nothing")
			}
			asked := onCensus(tc, holder, asIs)
			if _, reclaimed := sweepAll(tc, 0); reclaimed != 0 {
				t.Fatalf("zero-grace sweep reclaimed %d cited blocks", reclaimed)
			}
			if asked.Load() == 0 {
				t.Fatal("no sweeper asked the manifest's primary")
			}
			if got, err := tc.client.ReadDeduped(ctx, "data", "doc"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after sweep: %d bytes, %v", len(got), err)
			}
		}},
		{"an unreachable primary means zero reclaims", func(t *testing.T, ctx context.Context, tc *testCluster) {
			name, owner, peer := orphanBlock(t, ctx, tc)
			tc.net.Partition(tc.osds[owner].Addr(), tc.osds[peer].Addr())
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 0 {
				t.Fatalf("sweep reclaimed %d blocks without osd.%d's answer", reclaimed, peer)
			}
			tc.net.Heal(tc.osds[owner].Addr(), tc.osds[peer].Addr())
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 1 {
				t.Fatalf("healed sweep reclaimed %d blocks, want the orphan %s", reclaimed, name)
			}
		}},
		{"an answer at another epoch means zero reclaims", func(t *testing.T, ctx context.Context, tc *testCluster) {
			_, owner, peer := orphanBlock(t, ctx, tc)
			onCensus(tc, peer, func(c censusReq) censusReq { c.Epoch++; return c })
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 0 {
				t.Fatalf("sweep reclaimed %d blocks on an answer at another epoch", reclaimed)
			}
			onCensus(tc, peer, asIs)
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 1 {
				t.Fatalf("sweep at one epoch reclaimed %d blocks, want 1", reclaimed)
			}
		}},
		{"a primary still replaying a promotion means zero reclaims", func(t *testing.T, ctx context.Context, tc *testCluster) {
			_, owner, peer := orphanBlock(t, ctx, tc)
			gated := []PGID{firstLedPG(tc, peer)}
			p := tc.osds[peer]
			p.witMu.Lock()
			p.gates[gated[0]] = make(chan struct{})
			p.gateN.Add(1)
			p.witMu.Unlock()
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 0 {
				t.Fatalf("sweep reclaimed %d blocks while osd.%d gates %v", reclaimed, peer, gated[0])
			}
			p.openGates(gated)
			if _, reclaimed := tc.osds[owner].SweepBlocks(0); reclaimed != 1 {
				t.Fatalf("sweep after the gate opened reclaimed %d blocks, want 1", reclaimed)
			}
		}},
		{"a stat between selection and reclaim cancels it", func(t *testing.T, ctx context.Context, tc *testCluster) {
			name, owner, peer := orphanBlock(t, ctx, tc)
			backdate(tc.osds[owner], name)
			onCensus(tc, peer, func(c censusReq) censusReq {
				if rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockStat, Keys: []string{name}}); err != nil || len(rep.Keys) != 1 {
					t.Errorf("stat during the census: %v, %v", rep.Keys, err)
				}
				return c
			})
			for sweep := 1; sweep <= 2; sweep++ { // the first only marks
				if _, reclaimed := tc.osds[owner].SweepBlocks(time.Minute); reclaimed != 0 {
					t.Fatalf("sweep %d reclaimed a block statted since its selection", sweep)
				}
			}
			if _, err := tc.client.Read(ctx, "data", name); err != nil {
				t.Fatalf("statted block gone: %v", err)
			}
		}},
		{"a cited block is not censused again within grace", func(t *testing.T, ctx context.Context, tc *testCluster) {
			if _, err := tc.client.WriteDeduped(ctx, "data", "doc", dupCorpus(22, 16*1024), smallChunks()); err != nil {
				t.Fatal(err)
			}
			var asked []*atomic.Int32
			for id := range tc.osds {
				asked = append(asked, onCensus(tc, id, asIs))
			}
			total := func() (n int32) {
				for _, a := range asked {
					n += a.Load()
				}
				return n
			}
			for _, o := range tc.osds {
				for _, name := range o.ledBlocks(o.view.Load(), "data") {
					backdate(o, name)
				}
			}
			for sweep := 1; sweep <= 2; sweep++ { // mark, then census
				if _, reclaimed := sweepAll(tc, time.Minute); reclaimed != 0 {
					t.Fatalf("sweep %d reclaimed %d cited blocks", sweep, reclaimed)
				}
			}
			first := total()
			if first == 0 {
				t.Fatal("the census after the marking sweep asked no other daemon")
			}
			for sweep := 3; sweep <= 5; sweep++ {
				sweepAll(tc, time.Minute)
			}
			if again := total() - first; again != 0 {
				t.Fatalf("%d censuses within grace of the cited blocks' refresh", again)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := bootCluster(t, 3, 2)
			c.run(t, ctxT(t, 20*time.Second), tc)
		})
	}
}

// primaryOf is the id of the daemon leading object in pool "data".
func primaryOf(tc *testCluster, object string) int {
	return tc.client.view.Load().actingOf("data", object)[0]
}

// orphanBlock writes a block no manifest cites and returns its name, the
// daemon leading it, and another daemon leading some placement group of
// the pool, which that daemon's census must therefore ask.
func orphanBlock(t *testing.T, ctx context.Context, tc *testCluster) (name string, owner, peer int) {
	t.Helper()
	content := []byte("a block no manifest cites")
	name = BlockName(content)
	if rep, err := tc.client.do(ctx, OpRequest{Pool: "data", Object: name, Op: OpBlockWrite, Data: content}); err != nil || rep.Result != OK {
		t.Fatalf("block write: %v / %v", err, rep.Result)
	}
	owner = primaryOf(tc, name)
	for peer := range tc.osds {
		if peer != owner && firstLedPG(tc, peer).PG >= 0 {
			return name, owner, peer
		}
	}
	t.Fatalf("osd.%d leads every placement group", owner)
	return
}

// firstLedPG is the first placement group of pool "data" the daemon id
// leads; PG -1 when it leads none.
func firstLedPG(tc *testCluster, id int) PGID {
	pv := tc.client.view.Load().pools["data"]
	for pg := 0; pg < pv.info.PGNum; pg++ {
		if pv.actingFor(pg)[0] == id {
			return PGID{Pool: "data", PG: pg}
		}
	}
	return PGID{Pool: "data", PG: -1}
}
