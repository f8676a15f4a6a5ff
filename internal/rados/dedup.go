package rados

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdc"
	"repro/internal/retry"
)

// Content-addressed dedup data path. A deduped object is stored as a
// *manifest* — a compact map from logical extents to SHA-256 block
// hashes — plus a set of immutable *block objects* named by their hash.
// Blocks are ordinary RADOS objects (name "blk.<hex sha256>"), so
// replication, backfill, PG splitting, and scrub all apply to them with
// no special cases. The manifests are the one record of which blocks are
// live: nothing on a block counts its references, and a deferred GC
// sweep (osd_gc.go) reclaims a block that sat untouched past a grace
// window once a census of the manifests finds none citing it.

// blockPrefix namespaces block objects; the hex hash follows.
const blockPrefix = "blk."

// manifestMagic opens every manifest object's bytestream. The leading
// NUL keeps it out of the plausible-text space, so flat payloads are
// never misparsed.
const manifestMagic = "\x00MLGY-DEDUP-v1\n"

// HashSize is the block address width (SHA-256).
const HashSize = sha256.Size

// maxManifestLen bounds the total length a manifest may claim and the
// length of any single chunk. Manifest bytes arrive from clients and
// are decoded server-side (a GC census, cls dedup.info), so every
// header field is attacker-controlled: without this cap a uvarint near
// 2^63 survives the int conversion as a negative length and panics
// whoever sizes a buffer from it (ReadDeduped, cls dedup.info).
const maxManifestLen = 1<<31 - 1

// BlockName returns the object name addressing content.
func BlockName(content []byte) string {
	sum := sha256.Sum256(content)
	return hashBlockName(&sum)
}

// blockNameLen is the length of every block object name.
const blockNameLen = len(blockPrefix) + 2*HashSize

// hashBlockName returns the block object name for a content hash.
func hashBlockName(sum *[HashSize]byte) string {
	var name [blockNameLen]byte
	return string(appendBlockName(name[:0], sum))
}

// appendBlockName appends the block object name for a content hash.
func appendBlockName(dst []byte, sum *[HashSize]byte) []byte {
	return hex.AppendEncode(append(dst, blockPrefix...), sum[:])
}

// IsBlockName reports whether an object name addresses a dedup block.
func IsBlockName(name string) bool {
	return len(name) == blockNameLen && name[:len(blockPrefix)] == blockPrefix
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

// blockNames returns the manifest's unique block object names: however
// many extents reuse a block, the manifest cites it once.
func (m *Manifest) blockNames() map[string]bool {
	set := make(map[string]bool, len(m.Chunks))
	for i := range m.Chunks {
		set[hashBlockName(&m.Chunks[i].Hash)] = true
	}
	return set
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
// manifest lands last — so a crash mid-write leaves orphaned blocks for
// the GC grace sweep, never a manifest with missing blocks.
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
// for OpBlockWrite — with the groups in flight together, and the
// caller's goroutine sending any group no other goroutine has taken
// (caller-runs). Every primary answers with the names it
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
	// Caller-runs: every group but one is offered to a goroutine, which
	// sends whichever group is still open when it is scheduled, and the
	// caller sends groups until none is left, then waits only for the
	// ones a goroutine took. When the sends block (a fabric delay), the
	// goroutines take the rest and the groups overlap; when they do not,
	// the caller is done before any goroutine ran and sends every group
	// itself, warm, with no hand-off and no fresh stack grown through the
	// daemon's handler. A goroutine that finds nothing open just exits.
	open := make([][]int, 0, len(groups))
	for _, group := range groups {
		open = append(open, group)
	}
	var (
		next atomic.Int32
		wg   sync.WaitGroup
	)
	claim := func() ([]int, bool) {
		if n := int(next.Add(1)); n <= len(open) {
			return open[n-1], true
		}
		return nil, false
	}
	wg.Add(len(open))
	for range len(open) - 1 {
		go func() {
			if group, ok := claim(); ok {
				send(ctx, group)
				wg.Done()
			}
		}()
	}
	for group, ok := claim(); ok; group, ok = claim() {
		send(ctx, group)
		wg.Done()
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
// into the contiguous result, which is the one allocation of its size.
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
	// The block names are cut from one string, one allocation where a
	// string per block was one each; only this read's requests hold them.
	var names strings.Builder
	names.Grow(len(man.Chunks) * blockNameLen)
	for i := range man.Chunks {
		ch := &man.Chunks[i]
		at, dup := index[ch.Hash]
		if !dup {
			at = len(blocks)
			index[ch.Hash] = at
			all = append(all, at)
			var name [blockNameLen]byte
			names.Write(appendBlockName(name[:0], &ch.Hash))
			blocks = append(blocks, dedupBlock{size: ch.Len})
		}
		extent[i] = at
	}
	joined := names.String()
	for i := range blocks {
		blocks[i].name = joined[i*blockNameLen : (i+1)*blockNameLen]
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

	// The manifest's lengths are only claims: check each extent against
	// the block fetched for it before anything is sized from them.
	parts := make([][]byte, len(man.Chunks))
	for i := range man.Chunks {
		b := &blocks[extent[i]]
		if len(b.data) != man.Chunks[i].Len {
			return nil, fmt.Errorf("rados: %s: block %s is %d bytes, manifest says %d", object, b.name, len(b.data), man.Chunks[i].Len)
		}
		parts[i] = b.data
	}
	// Join allocates the result without clearing it first — every byte is
	// about to be copied over — and the result is the caller's own copy,
	// never an alias of stored blocks.
	return bytes.Join(parts, nil), nil
}

// ---- cluster-wide audit (scrub-integrated leak check) ----

// DedupAudit is the cluster-wide consistency report over manifests and
// blocks: chaos invariants and tests assert every slice empty after
// quiesce + sweep.
type DedupAudit struct {
	Manifests int
	Blocks    int
	// Leaked blocks are cited by no live manifest: after a zero-grace
	// sweep on a quiesced cluster, the sweep should have reclaimed them.
	Leaked []string
	// Dangling entries risk data loss: a live manifest cites a block
	// that is missing.
	Dangling []string
	// Corrupt blocks hold bytes that do not hash to their name.
	Corrupt []string
}

// AuditDedup walks every PG led by the given OSDs in pool and
// cross-checks the blocks found there against the manifests that cite
// them, and each block's bytes against its name. Call it on a quiesced
// cluster after sweeping with zero grace; under traffic, blocks written
// for a manifest not yet landed are normal, not a leak.
func AuditDedup(osds []*OSD, pool string) DedupAudit {
	cited := make(map[string]int)  // block -> live manifests citing it
	sound := make(map[string]bool) // block -> its bytes hash to its name
	var audit DedupAudit
	for _, o := range osds {
		o.scanLed(o.view.Load(), pool, func(obj *Object) {
			if IsBlockName(obj.Name) {
				sound[obj.Name] = BlockName(obj.Data) == obj.Name
				return
			}
			if m, isManifest, err := DecodeManifest(obj.Data); isManifest && err == nil {
				audit.Manifests++
				for name := range m.blockNames() {
					cited[name]++
				}
			}
		})
	}
	audit.Blocks = len(sound)
	for name, n := range cited {
		if _, ok := sound[name]; !ok {
			audit.Dangling = append(audit.Dangling, fmt.Sprintf("%s: cited by %d manifests but missing", name, n))
		}
	}
	for name, ok := range sound {
		if !ok {
			audit.Corrupt = append(audit.Corrupt, name+": bytes do not hash to the name")
		}
		if cited[name] == 0 {
			audit.Leaked = append(audit.Leaked, name+": cited by no live manifest")
		}
	}
	sort.Strings(audit.Leaked)
	sort.Strings(audit.Dangling)
	sort.Strings(audit.Corrupt)
	return audit
}
