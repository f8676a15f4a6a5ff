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

	"repro/internal/cdc"
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
	return blockPrefix + hex.EncodeToString(sum[:])
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
		set[blockPrefix+hex.EncodeToString(m.Chunks[i].Hash[:])] = true
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

// dedupWriteFanout bounds the concurrent missing-block writes of one
// WriteDeduped (mirroring the replica fan-out bound of the PR-3 write
// pipeline: enough to hide per-block RTTs, not enough to stampede).
const dedupWriteFanout = 8

// WriteDeduped stores data under object as a content-addressed
// manifest: the payload is FastCDC-chunked, one batched OpBlockStat per
// primary discovers which blocks the cluster already holds, only the
// missing blocks are written (bounded parallel fan-out), and a compact
// manifest lands last — so a crash mid-write leaves orphaned refs=0
// blocks for the GC grace sweep, never a manifest with missing blocks.
// cfg may be nil for the default chunking parameters.
func (c *Client) WriteDeduped(ctx context.Context, pool, object string, data []byte, cfg *cdc.Config) (DedupStats, error) {
	chunks, err := cdc.Split(data, cfg)
	if err != nil {
		return DedupStats{}, err
	}
	man := &Manifest{TotalLen: len(data)}
	content := make(map[string][]byte, len(chunks)) // unique block -> bytes
	for _, ch := range chunks {
		piece := data[ch.Off : ch.Off+ch.Len]
		var mc ManifestChunk
		mc.Hash = sha256.Sum256(piece)
		mc.Len = ch.Len
		man.Chunks = append(man.Chunks, mc)
		name := blockPrefix + hex.EncodeToString(mc.Hash[:])
		if _, ok := content[name]; !ok {
			content[name] = piece
		}
	}
	stats := DedupStats{TotalBytes: len(data), Chunks: len(chunks), UniqueBlocks: len(content)}

	present, err := c.statBlocks(ctx, pool, content)
	if err != nil {
		return stats, err
	}
	var missing []string
	for name := range content {
		if !present[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if err := c.writeBlocks(ctx, pool, missing, content); err != nil {
		return stats, err
	}
	for _, name := range missing {
		stats.NewBlocks++
		stats.WireBytes += len(content[name])
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

// statBlocks asks, with one batched OpBlockStat per primary OSD, which
// block names already exist. Grouping uses the cached map as a routing
// hint; a block whose primary moved mid-flight simply goes unreported
// and is rewritten — OpBlockWrite on an existing block is an ack, so a
// stale map costs wire bytes, never correctness.
func (c *Client) statBlocks(ctx context.Context, pool string, content map[string][]byte) (map[string]bool, error) {
	v := c.view.Load()
	groups := make(map[int][]string)
	for name := range content {
		_, acting, err := v.locate(pool, name)
		if err != nil || len(acting) == 0 {
			// No placement yet: treat as absent; the write path will
			// locate it with retries.
			continue
		}
		groups[acting[0]] = append(groups[acting[0]], name)
	}
	present := make(map[string]bool, len(content))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for _, names := range groups {
		names := names
		sort.Strings(names)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := c.do(ctx, OpRequest{Pool: pool, Object: names[0], Op: OpBlockStat, Keys: names})
			if err != nil {
				errs <- err
				return
			}
			if err := ErrFor(rep.Result, rep.Detail); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			for _, name := range rep.Keys {
				present[name] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return present, nil
}

// writeBlocks ships the missing blocks with a bounded worker fan-out.
func (c *Client) writeBlocks(ctx context.Context, pool string, missing []string, content map[string][]byte) error {
	if len(missing) == 0 {
		return nil
	}
	workers := dedupWriteFanout
	if workers > len(missing) {
		workers = len(missing)
	}
	work := make(chan string, len(missing))
	for _, name := range missing {
		work <- name
	}
	close(work)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				rep, err := c.do(ctx, OpRequest{Pool: pool, Object: name, Op: OpBlockWrite, Data: content[name]})
				if err == nil {
					err = ErrFor(rep.Result, rep.Detail)
				}
				if err != nil {
					errs <- fmt.Errorf("rados: write block %s: %w", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// ReadDeduped returns the logical bytestream of an object written by
// WriteDeduped, fetching each unique block once (in parallel) and
// reassembling extents in manifest order. An object that is not a
// manifest is returned as-is, so ReadDeduped is safe on any object.
// The per-block reads alias the OSD's stored slices end to end on the
// in-process fabric; the single copy is the reassembly into the
// contiguous result.
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

	blocks := make(map[string][]byte, len(man.Chunks))
	for name := range man.blockNames() {
		blocks[name] = nil
	}
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	workers := dedupWriteFanout
	if workers > len(names) {
		workers = len(names)
	}
	work := make(chan string, len(names))
	for _, name := range names {
		work <- name
	}
	close(work)
	errs := make(chan error, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				data, err := c.Read(ctx, pool, name)
				if err != nil {
					errs <- fmt.Errorf("rados: %s: block %s: %w", object, name, err)
					return
				}
				mu.Lock()
				blocks[name] = data
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	out := make([]byte, 0, man.TotalLen)
	for i := range man.Chunks {
		name := blockPrefix + hex.EncodeToString(man.Chunks[i].Hash[:])
		b := blocks[name]
		if len(b) != man.Chunks[i].Len {
			return nil, fmt.Errorf("rados: %s: block %s is %d bytes, manifest says %d", object, name, len(b), man.Chunks[i].Len)
		}
		out = append(out, b...)
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
