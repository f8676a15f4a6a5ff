package rados

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdc"
	"repro/internal/retry"
)

// Content-addressed dedup data path. A deduped object is stored as a
// *manifest* — a compact map from logical extents to SHA-256 block
// hashes — plus a set of immutable *block objects* named by their hash.
// Blocks are ordinary RADOS objects (name "blk.<hex sha256>"), so
// replication, backfill, PG splitting, and scrub all apply to them with
// no special cases. Reference counts live in a block xattr and are
// maintained by the manifest's primary, never by clients: writing or
// removing a manifest enqueues ref deltas for the symmetric difference
// of its old and new block sets, and a deferred GC sweep (osd_gc.go)
// delivers them exactly-once through the replay cache and reclaims
// blocks that stay unreferenced past a grace window.

// blockPrefix namespaces block objects; the hex hash follows.
const blockPrefix = "blk."

// xattrBlockRefs holds a block's reference *set*: one line per
// referencing manifest, carrying the manifest object's version at which
// the reference was added or dropped. Set semantics (rather than a
// counter) make ref deltas idempotent: after a primary failover both
// the old and the new primary may enqueue the diff for the same
// manifest transition, and a version-anchored add/remove applies once
// no matter how many copies arrive or in what order. Living in an
// xattr puts the set inside the scrub digest, so replicas converge on
// references exactly as they do on data.
const xattrBlockRefs = "dedup.refs"

// manifestMagic opens every manifest object's bytestream. The leading
// NUL keeps it out of the plausible-text space, so flat payloads are
// never misparsed.
const manifestMagic = "\x00MLGY-DEDUP-v1\n"

// HashSize is the block address width (SHA-256).
const HashSize = sha256.Size

// maxManifestLen bounds the total length a manifest may claim and the
// length of any single chunk. Manifest bytes arrive from clients and
// are decoded server-side in applyOp, so every header field is
// attacker-controlled: without this cap a uvarint near 2^63 survives
// the int conversion as a negative length and panics whoever sizes a
// buffer from it (ReadDeduped, cls dedup.info).
const maxManifestLen = 1<<31 - 1

// BlockName returns the object name addressing content.
func BlockName(content []byte) string {
	sum := sha256.Sum256(content)
	return hashBlockName(&sum)
}

// hashBlockName returns the block object name for a content hash.
func hashBlockName(sum *[HashSize]byte) string {
	var name [len(blockPrefix) + 2*HashSize]byte
	copy(name[:], blockPrefix)
	hex.Encode(name[len(blockPrefix):], sum[:])
	return string(name[:])
}

// IsBlockName reports whether an object name addresses a dedup block.
func IsBlockName(name string) bool {
	return len(name) == len(blockPrefix)+2*HashSize && name[:len(blockPrefix)] == blockPrefix
}

// ManifestChunk is one logical extent of a deduped object.
type ManifestChunk struct {
	Hash [HashSize]byte
	Len  int
}

// Manifest maps a logical bytestream onto content-addressed blocks.
type Manifest struct {
	TotalLen int
	Chunks   []ManifestChunk
}

// EncodeManifest serializes: magic, uvarint total length, uvarint chunk
// count, then per chunk the 32-byte hash and a uvarint length.
func EncodeManifest(m *Manifest) []byte {
	buf := make([]byte, 0, len(manifestMagic)+2*binary.MaxVarintLen64+len(m.Chunks)*(HashSize+binary.MaxVarintLen64))
	buf = append(buf, manifestMagic...)
	buf = binary.AppendUvarint(buf, uint64(m.TotalLen))
	buf = binary.AppendUvarint(buf, uint64(len(m.Chunks)))
	for i := range m.Chunks {
		buf = append(buf, m.Chunks[i].Hash[:]...)
		buf = binary.AppendUvarint(buf, uint64(m.Chunks[i].Len))
	}
	return buf
}

// DecodeManifest parses a manifest bytestream. ok is false when data is
// not a manifest (no magic); a magic prefix followed by garbage — or by
// trailing bytes, which is what an append to a manifest object leaves —
// returns an error, and callers treat the object as flat data.
func DecodeManifest(data []byte) (m *Manifest, ok bool, err error) {
	if !bytes.HasPrefix(data, []byte(manifestMagic)) {
		return nil, false, nil
	}
	rest := data[len(manifestMagic):]
	total, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, true, fmt.Errorf("rados: manifest: bad total length")
	}
	if total > maxManifestLen {
		return nil, true, fmt.Errorf("rados: manifest: total length %d exceeds limit %d", total, int64(maxManifestLen))
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, true, fmt.Errorf("rados: manifest: bad chunk count")
	}
	rest = rest[n:]
	// Every chunk costs at least HashSize+1 encoded bytes, so a count the
	// remaining bytes cannot hold is truncation — reject it before it
	// sizes the allocation below (a forged ~30-byte manifest claiming
	// 2^60 chunks must not drive makeslice).
	if count > uint64(len(rest))/(HashSize+1) {
		return nil, true, fmt.Errorf("rados: manifest: chunk count %d exceeds remaining %d bytes", count, len(rest))
	}
	m = &Manifest{TotalLen: int(total), Chunks: make([]ManifestChunk, 0, count)}
	sum := 0
	for i := uint64(0); i < count; i++ {
		if len(rest) < HashSize {
			return nil, true, fmt.Errorf("rados: manifest: truncated at chunk %d", i)
		}
		var c ManifestChunk
		copy(c.Hash[:], rest[:HashSize])
		rest = rest[HashSize:]
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, true, fmt.Errorf("rados: manifest: bad length at chunk %d", i)
		}
		if l > maxManifestLen {
			return nil, true, fmt.Errorf("rados: manifest: chunk %d length %d exceeds limit", i, l)
		}
		rest = rest[n:]
		c.Len = int(l)
		sum += c.Len
		// sum grows by at most maxManifestLen per chunk and is checked
		// every iteration, so it can never overflow int.
		if sum > maxManifestLen {
			return nil, true, fmt.Errorf("rados: manifest: chunk lengths exceed limit %d", int64(maxManifestLen))
		}
		m.Chunks = append(m.Chunks, c)
	}
	if len(rest) != 0 {
		return nil, true, fmt.Errorf("rados: manifest: %d trailing bytes", len(rest))
	}
	if sum != m.TotalLen {
		return nil, true, fmt.Errorf("rados: manifest: chunk lengths sum to %d, header says %d", sum, m.TotalLen)
	}
	return m, true, nil
}

// blockNames returns the manifest's unique block object names. Refcounts
// are per manifest, not per extent: however many extents reuse a block,
// one manifest holds exactly one reference to it.
func (m *Manifest) blockNames() map[string]bool {
	set := make(map[string]bool, len(m.Chunks))
	for i := range m.Chunks {
		set[hashBlockName(&m.Chunks[i].Hash)] = true
	}
	return set
}

// manifestBlockSet decodes data as a manifest and returns its unique
// block set, or nil for flat/undecodable data — the shape applyOp feeds
// the ref-delta queue from (a corrupt manifest contributes no deltas
// rather than poisoning the refcounts).
func manifestBlockSet(data []byte) map[string]bool {
	m, isManifest, err := DecodeManifest(data)
	if !isManifest || err != nil {
		return nil
	}
	return m.blockNames()
}

// refsetEntry is one manifest's standing toward a block: whether the
// reference is live, and the manifest object version that decided it. A
// delta older than the recorded version is stale and must not apply.
type refsetEntry struct {
	ver     uint64
	present bool
}

// parseRefset decodes the block's reference-set xattr. Each line is
// "<ver>:<0|1>:<manifest name>"; malformed lines are ignored.
func parseRefset(obj *Object) map[string]refsetEntry {
	out := make(map[string]refsetEntry)
	raw := obj.Xattrs[xattrBlockRefs]
	if len(raw) == 0 {
		return out
	}
	for _, line := range strings.Split(string(raw), "\n") {
		vs, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		ps, name, ok := strings.Cut(rest, ":")
		if !ok || name == "" {
			continue
		}
		ver, err := strconv.ParseUint(vs, 10, 64)
		if err != nil || (ps != "0" && ps != "1") {
			continue
		}
		out[name] = refsetEntry{ver: ver, present: ps == "1"}
	}
	return out
}

// encodeRefset serializes the reference set sorted by manifest name, so
// every replica stores identical bytes and scrub digests agree.
func encodeRefset(set map[string]refsetEntry) []byte {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, n := range names {
		e := set[n]
		p := "0"
		if e.present {
			p = "1"
		}
		lines[i] = strconv.FormatUint(e.ver, 10) + ":" + p + ":" + n
	}
	return []byte(strings.Join(lines, "\n"))
}

// blockRefApply records that manifest (at version ver) added or dropped
// its reference to this block. Returns false — nothing changed — when
// the set already holds a same-or-newer decision for that manifest:
// a redelivered delta, a double-enqueued diff after primary failover,
// or a delta arriving after a newer transition already superseded it.
func blockRefApply(obj *Object, manifest string, ver uint64, present bool) bool {
	if manifest == "" || ver == 0 {
		return false
	}
	set := parseRefset(obj)
	if cur, ok := set[manifest]; ok && cur.ver >= ver {
		return false
	}
	set[manifest] = refsetEntry{ver: ver, present: present}
	obj.Xattrs[xattrBlockRefs] = encodeRefset(set)
	return true
}

// blockRefs counts the block's live references (absent xattr = 0, the
// state OpBlockWrite creates blocks in).
func blockRefs(obj *Object) int64 {
	var n int64
	for _, e := range parseRefset(obj) {
		if e.present {
			n++
		}
	}
	return n
}

// ---- client write/read path ----

// DedupStats reports what one WriteDeduped actually moved. Stored and
// wire bytes count one copy — replication multiplies both the flat and
// deduped paths identically, so the ratio against a flat WriteFull of
// the same payload is replication-independent.
type DedupStats struct {
	TotalBytes   int // logical payload size
	Chunks       int // content-defined extents
	UniqueBlocks int // distinct blocks the manifest references
	NewBlocks    int // blocks that did not exist and were written
	ManifestLen  int // encoded manifest size
	// WireBytes is the payload shipped: new block contents + manifest.
	WireBytes int
	// StoredBytes is the new data the cluster retains: identical to
	// WireBytes on this path (duplicate blocks are neither sent nor
	// re-stored).
	StoredBytes int
}

// maxBlockBatchBytes bounds the block payload one batched block write
// (or one batched read's reply) covers; a primary's share beyond it
// goes out as further requests, one after another. A stat carries only
// names and is never split.
const maxBlockBatchBytes = 4 << 20

// dedupBlock is one unique block of a deduped object, client side.
type dedupBlock struct {
	name string
	data []byte // nil until fetched, on the read path
	size int
}

// WriteDeduped stores data under object as a content-addressed
// manifest: the payload is FastCDC-chunked, one batched OpBlockStat per
// primary discovers which blocks the cluster already holds, the missing
// blocks go out as one batched OpBlockWrite per primary, and a compact
// manifest lands last — so a crash mid-write leaves orphaned refs=0
// blocks for the GC grace sweep, never a manifest with missing blocks.
// cfg may be nil for the default chunking parameters.
func (c *Client) WriteDeduped(ctx context.Context, pool, object string, data []byte, cfg *cdc.Config) (DedupStats, error) {
	chunks, err := cdc.Split(data, cfg)
	if err != nil {
		return DedupStats{}, err
	}
	man := &Manifest{TotalLen: len(data), Chunks: make([]ManifestChunk, len(chunks))}
	seen := make(map[[HashSize]byte]struct{}, len(chunks))
	blocks := make([]dedupBlock, 0, len(chunks))
	for i, ch := range chunks {
		piece := data[ch.Off : ch.Off+ch.Len]
		mc := &man.Chunks[i]
		mc.Hash = sha256.Sum256(piece)
		mc.Len = ch.Len
		if _, dup := seen[mc.Hash]; !dup {
			seen[mc.Hash] = struct{}{}
			blocks = append(blocks, dedupBlock{name: hashBlockName(&mc.Hash), data: piece, size: ch.Len})
		}
	}
	stats := DedupStats{TotalBytes: len(data), Chunks: len(chunks), UniqueBlocks: len(blocks)}

	// A block no primary reports — absent, or grouped with a stale map —
	// is written: OpBlockWrite on an existing block is an ack, so a stale
	// map costs wire bytes, never correctness.
	all := make([]int, len(blocks))
	for i := range all {
		all[i] = i
	}
	present := make([]bool, len(blocks))
	if _, err := c.blockBatch(ctx, OpRequest{Pool: pool, Op: OpBlockStat}, blocks, all,
		func(i int, _ *OpReply, _ int) { present[i] = true }); err != nil {
		return stats, fmt.Errorf("rados: %s: %w", object, err)
	}
	missing := all[:0]
	for i := range blocks {
		if !present[i] {
			missing = append(missing, i)
			stats.WireBytes += blocks[i].size
		}
	}
	stats.NewBlocks = len(missing)
	if err := c.blockBatchAll(ctx, OpRequest{Pool: pool, Op: OpBlockWrite}, blocks, missing, nil); err != nil {
		return stats, fmt.Errorf("rados: %s: %w", object, err)
	}

	enc := EncodeManifest(man)
	stats.ManifestLen = len(enc)
	stats.WireBytes += len(enc)
	stats.StoredBytes = stats.WireBytes
	if err := c.WriteFull(ctx, pool, object, enc); err != nil {
		return stats, err
	}
	return stats, nil
}

// blockBatch sends the block op req describes (its Pool and Op) for
// blocks[i], i in idx: one request per primary the cached map names,
// carrying everything that primary gets — block names, plus contents
// for OpBlockWrite — with the groups in flight together and the last on
// the caller's goroutine. Every primary answers with the names it
// handled, in request order; handled (if not nil, never concurrently)
// is called for each with the reply and the name's position in it. The
// indices no primary reported are returned: blocks the cached map
// places nowhere or, when the map is stale, on a daemon that no longer
// leads them.
func (c *Client) blockBatch(ctx context.Context, req OpRequest, blocks []dedupBlock, idx []int,
	handled func(i int, rep *OpReply, at int)) (unreported []int, err error) {
	v := c.view.Load()
	groups := make(map[int][]int) // primary -> indices into blocks
	for _, i := range idx {
		_, acting, lerr := v.locate(req.Pool, blocks[i].name)
		if lerr != nil || len(acting) == 0 {
			unreported = append(unreported, i)
			continue
		}
		groups[acting[0]] = append(groups[acting[0]], i)
	}

	var mu sync.Mutex // guards unreported, err and calls of handled
	send := func(ctx context.Context, group []int) {
		for len(group) > 0 {
			n := len(group)
			if req.Op != OpBlockStat {
				n = 0
				for size := 0; n < len(group) && (n == 0 || size+blocks[group[n]].size <= maxBlockBatchBytes); n++ {
					size += blocks[group[n]].size
				}
			}
			r := req
			r.Object = blocks[group[0]].name
			if r.Op == OpBlockWrite {
				r.Blocks = make([]BlockOp, n)
				for k, i := range group[:n] {
					r.Blocks[k] = BlockOp{Name: blocks[i].name, Data: blocks[i].data}
				}
			} else {
				r.Keys = make([]string, n)
				for k, i := range group[:n] {
					r.Keys[k] = blocks[i].name
				}
			}
			rep, derr := c.do(ctx, r)
			if derr == nil {
				derr = ErrFor(rep.Result, rep.Detail)
			}
			mu.Lock()
			if derr != nil {
				if err == nil {
					err = fmt.Errorf("%s %s: %w", r.Op, r.Object, derr)
				}
				mu.Unlock()
				return
			}
			at := 0
			for _, i := range group[:n] {
				if at == len(rep.Keys) || rep.Keys[at] != blocks[i].name {
					unreported = append(unreported, i)
					continue
				}
				if handled != nil {
					handled(i, &rep, at)
				}
				at++
			}
			mu.Unlock()
			group = group[n:]
		}
	}
	var wg sync.WaitGroup
	left := len(groups)
	for _, group := range groups {
		if left--; left == 0 {
			send(ctx, group)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(ctx, group)
		}()
	}
	wg.Wait()
	return unreported, err
}

// blockBatchAll is blockBatch for the ops that must reach every block
// (write, read): what a round leaves unreported is re-sent after a map
// refresh, within the retry budget of any client op.
func (c *Client) blockBatchAll(ctx context.Context, req OpRequest, blocks []dedupBlock, idx []int,
	handled func(i int, rep *OpReply, at int)) error {
	for attempt := 0; ; attempt++ {
		rest, err := c.blockBatch(ctx, req, blocks, idx, handled)
		if err != nil || len(rest) == 0 {
			return err
		}
		if attempt == maxOpRetries-1 {
			return fmt.Errorf("%s %s: %w", req.Op, blocks[rest[0]].name, ErrRetriesExhausted)
		}
		if attempt > 0 && !retry.Backoff(ctx, attempt-1, 5*time.Millisecond, 80*time.Millisecond) {
			return ctx.Err()
		}
		if err := c.RefreshMap(ctx); err != nil {
			return err
		}
		idx = rest
	}
}

// ReadDeduped returns the logical bytestream of an object written by
// WriteDeduped, fetching each unique block once — one batched
// OpBlockRead per primary — and reassembling extents in manifest order.
// An object that is not a manifest is returned as-is, so ReadDeduped is
// safe on any object. The block reads alias the OSD's stored slices end
// to end on the in-process fabric; the single copy is the reassembly
// into the contiguous result.
func (c *Client) ReadDeduped(ctx context.Context, pool, object string) ([]byte, error) {
	raw, err := c.Read(ctx, pool, object)
	if err != nil {
		return nil, err
	}
	man, isManifest, err := DecodeManifest(raw)
	if !isManifest {
		return raw, nil
	}
	if err != nil {
		return nil, fmt.Errorf("rados: %s: corrupt manifest: %w", object, err)
	}

	index := make(map[[HashSize]byte]int, len(man.Chunks)) // hash -> position in blocks
	blocks := make([]dedupBlock, 0, len(man.Chunks))
	all := make([]int, 0, len(man.Chunks))
	extent := make([]int, len(man.Chunks)) // chunk -> position in blocks
	for i := range man.Chunks {
		ch := &man.Chunks[i]
		at, dup := index[ch.Hash]
		if !dup {
			at = len(blocks)
			index[ch.Hash] = at
			all = append(all, at)
			blocks = append(blocks, dedupBlock{name: hashBlockName(&ch.Hash), size: ch.Len})
		}
		extent[i] = at
	}
	err = c.blockBatchAll(ctx, OpRequest{Pool: pool, Op: OpBlockRead}, blocks, all,
		func(i int, rep *OpReply, at int) {
			if at < len(rep.Blocks) {
				blocks[i].data = rep.Blocks[at]
			}
		})
	if err != nil {
		return nil, fmt.Errorf("rados: %s: %w", object, err)
	}

	out := make([]byte, 0, man.TotalLen)
	for i := range man.Chunks {
		b := &blocks[extent[i]]
		if len(b.data) != man.Chunks[i].Len {
			return nil, fmt.Errorf("rados: %s: block %s is %d bytes, manifest says %d", object, b.name, len(b.data), man.Chunks[i].Len)
		}
		out = append(out, b.data...)
	}
	return out, nil
}

// ---- cluster-wide audit (scrub-integrated leak check) ----

// DedupAudit is the cluster-wide consistency report over manifests and
// blocks: chaos invariants and tests assert both slices empty after
// quiesce + sweep.
type DedupAudit struct {
	Manifests int
	Blocks    int
	// Leaked blocks will never be reclaimed: their refcount exceeds the
	// number of live manifests referencing them, or no manifest
	// references them at all and a zero-grace sweep has already run.
	Leaked []string
	// Dangling entries risk data loss: a manifest references a block
	// that is missing, or a block's refcount undercounts its referents
	// (premature reclaim would strand those manifests).
	Dangling []string
}

// AuditDedup walks every PG led by the given OSDs in pool, collects all
// manifests and blocks, and cross-checks refcounts against the live
// manifest set. Call it on a quiesced cluster after draining the GC
// queues (SweepBlocks); under traffic the deferred deltas make skew
// normal, not a bug.
func AuditDedup(osds []*OSD, pool string) DedupAudit {
	expected := make(map[string]int64) // block -> live manifests referencing it
	actual := make(map[string]int64)   // block -> stored refcount
	var audit DedupAudit
	for _, o := range osds {
		manifests, blocks := o.dedupCensus(pool)
		audit.Manifests += len(manifests)
		audit.Blocks += len(blocks)
		for _, set := range manifests {
			for name := range set {
				expected[name]++
			}
		}
		for name, refs := range blocks {
			actual[name] = refs
		}
	}
	for name, want := range expected {
		have, exists := actual[name]
		if !exists {
			audit.Dangling = append(audit.Dangling, fmt.Sprintf("%s: referenced by %d manifests but missing", name, want))
			continue
		}
		switch {
		case have < want:
			audit.Dangling = append(audit.Dangling, fmt.Sprintf("%s: refs=%d < %d live referents", name, have, want))
		case have > want:
			audit.Leaked = append(audit.Leaked, fmt.Sprintf("%s: refs=%d > %d live referents", name, have, want))
		}
	}
	for name, refs := range actual {
		if _, ok := expected[name]; !ok {
			audit.Leaked = append(audit.Leaked, fmt.Sprintf("%s: refs=%d with no referencing manifest", name, refs))
		}
	}
	sort.Strings(audit.Leaked)
	sort.Strings(audit.Dangling)
	return audit
}

// dedupCensus scans the PGs this daemon currently leads in pool and
// returns the manifests (object -> unique block set) and blocks
// (name -> refcount) found there.
func (o *OSD) dedupCensus(pool string) (manifests map[string]map[string]bool, blocks map[string]int64) {
	manifests = make(map[string]map[string]bool)
	blocks = make(map[string]int64)
	v := o.view.Load()
	for _, id := range o.heldPGs() {
		if id.Pool != pool {
			continue
		}
		acting := v.actingFor(id)
		if len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		for _, e := range o.getPG(id).entries() {
			e.mu.Lock()
			obj := e.obj
			if obj == nil {
				e.mu.Unlock()
				continue
			}
			if IsBlockName(obj.Name) {
				blocks[obj.Name] = blockRefs(obj)
			} else if set := manifestBlockSet(obj.Data); set != nil {
				manifests[obj.Name] = set
			}
			e.mu.Unlock()
		}
	}
	return manifests, blocks
}
