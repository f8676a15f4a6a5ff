// Package wal implements the segmented append-only write-ahead log
// under the durable OSD backend. Records are CRC-framed
// ([u32 len][u32 crc][payload], little-endian, Castagnoli CRC over the
// payload), segments rotate at a size threshold, and a checkpoint file
// bounds replay: on open the log scans segments in order, truncates a
// torn tail in the final segment (a crash mid-write), and resumes
// appending after the last valid frame. Group commit batches fsyncs:
// concurrent committers ride one leader's fsync instead of serializing
// a disk flush each (the sync-leader pattern).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	frameHeaderSize = 8       // u32 len + u32 crc
	maxRecordSize   = 1 << 26 // 64 MiB; a larger length prefix is corruption
	segPrefix       = "seg-"
	segSuffix       = ".wal"
	checkpointName  = "checkpoint"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed or abandoned log.
var ErrClosed = errors.New("wal: log closed")

// Options tune a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (default 4 MiB).
	SegmentSize int64
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	return o
}

type segInfo struct {
	base uint64 // LSN of the segment's first record
	path string
}

// Log is a segmented write-ahead log. LSNs start at 1 and are implicit:
// record N of the log (in segment order) has LSN N. The checkpoint file
// stores an application snapshot plus the LSN it covers; replay visits
// only records past it.
//
// Lock order: syncMu before mu (Sync takes both; everything else takes
// only mu).
type Log struct {
	dir  string
	opts Options

	mu            sync.Mutex
	cur           *os.File      // guarded by mu; current segment, append-only
	curBuf        *bufio.Writer // guarded by mu
	curBase       uint64        // guarded by mu; first LSN of cur
	curSize       int64         // guarded by mu; bytes in cur incl. buffered
	nextLSN       uint64        // guarded by mu; LSN the next Append gets
	appended      uint64        // guarded by mu; last LSN handed out
	segs          []segInfo     // guarded by mu; all segments, ascending base
	checkpointLSN uint64        // guarded by mu; records <= this are covered
	tail          int64         // guarded by mu; bytes appended since last checkpoint
	dead          bool          // guarded by mu; Abandon/Close called
	recErr        error         // guarded by mu; sticky write error

	syncMu sync.Mutex
	synced uint64 // guarded by syncMu; highest LSN known flushed+fsynced

	syncs     atomic.Uint64 // fsync-batch count, for tests and benches
	tornBytes int64         // set once at Open; bytes truncated from a torn tail
}

// Open opens (creating if needed) the log in dir, scans its segments,
// truncates a torn tail in the final segment, and positions the log for
// appending after the last valid record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts}

	_, upTo, ok, err := l.LoadCheckpoint()
	if err != nil {
		return nil, err
	}
	if ok {
		l.checkpointLSN = upTo
	}

	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	lsn := uint64(0)
	for i, name := range names {
		path := filepath.Join(dir, name)
		base, perr := parseSegBase(name)
		if perr != nil {
			return nil, perr
		}
		n, torn, serr := scanSegment(path, i == len(names)-1)
		if serr != nil {
			return nil, serr
		}
		l.tornBytes += torn
		l.segs = append(l.segs, segInfo{base: base, path: path})
		if n > 0 {
			lsn = base + uint64(n) - 1
		}
	}
	reuseLast := len(l.segs) > 0
	if lsn < l.checkpointLSN {
		// The checkpoint is ahead of every surviving record: appending
		// into the old segment would break the implicit base+index LSN
		// numbering, so start a fresh segment on the next Append.
		lsn = l.checkpointLSN
		reuseLast = false
	}
	l.nextLSN = lsn + 1
	l.appended = lsn
	l.synced = lsn // everything on disk at open is by definition synced

	// Reopen the last segment for append, if its numbering continues.
	if reuseLast {
		last := l.segs[len(l.segs)-1]
		f, oerr := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", oerr)
		}
		st, serr := f.Stat()
		if serr != nil {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("wal: stat segment: %w", serr)
		}
		l.cur = f
		l.curBuf = bufio.NewWriterSize(f, 1<<16)
		l.curBase = last.base
		l.curSize = st.Size()
	}
	return l, nil
}

// segmentNames lists the segment files in dir in ascending base order.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if len(n) == len(segPrefix)+16+len(segSuffix) &&
			n[:len(segPrefix)] == segPrefix && n[len(n)-len(segSuffix):] == segSuffix {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func parseSegBase(name string) (uint64, error) {
	var base uint64
	if _, err := fmt.Sscanf(name, segPrefix+"%016x"+segSuffix, &base); err != nil {
		return 0, fmt.Errorf("wal: bad segment name %q: %w", name, err)
	}
	return base, nil
}

func segName(base uint64) string {
	return fmt.Sprintf(segPrefix+"%016x"+segSuffix, base)
}

// scanSegment validates the frames of one segment, returning the count
// of valid records. For the last segment a bad or short trailing frame
// is a torn tail: the file is truncated at the last valid frame and the
// dropped byte count returned. Anywhere else it is hard corruption.
func scanSegment(path string, last bool) (records int, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close() //nolint:errcheck
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [frameHeaderSize]byte
	var buf []byte
	for off < size {
		good, n := readFrame(r, size-off, &hdr, &buf)
		if !good {
			if !last {
				return 0, 0, fmt.Errorf("wal: corrupt frame at %s:%d", path, off)
			}
			torn = size - off
			if terr := f.Truncate(off); terr != nil {
				return 0, 0, fmt.Errorf("wal: truncate torn tail: %w", terr)
			}
			if serr := f.Sync(); serr != nil {
				return 0, 0, fmt.Errorf("wal: sync after truncate: %w", serr)
			}
			return records, torn, nil
		}
		off += n
		records++
	}
	return records, 0, nil
}

// readFrame reads one frame from r, with at most avail bytes remaining.
// Returns ok=false on a short, oversized, or CRC-failing frame, and the
// byte length consumed on success. *buf is a reusable scratch buffer.
func readFrame(r *bufio.Reader, avail int64, hdr *[frameHeaderSize]byte, buf *[]byte) (ok bool, n int64) {
	if avail < frameHeaderSize {
		return false, 0
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return false, 0
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if ln > maxRecordSize || int64(ln) > avail-frameHeaderSize {
		return false, 0
	}
	if cap(*buf) < int(ln) {
		*buf = make([]byte, ln)
	}
	payload := (*buf)[:ln]
	if _, err := io.ReadFull(r, payload); err != nil {
		return false, 0
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return false, 0
	}
	return true, frameHeaderSize + int64(ln)
}

// Append frames and buffers one record, returning its LSN. The record
// is not durable until a Sync (or Close) covering its LSN returns.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordSize {
		return 0, fmt.Errorf("wal: record too large (%d bytes)", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return 0, ErrClosed
	}
	if l.recErr != nil {
		return 0, l.recErr
	}
	if l.cur == nil || l.curSize >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.recErr = err
			return 0, err
		}
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.curBuf.Write(hdr[:]); err != nil {
		l.recErr = fmt.Errorf("wal: append: %w", err)
		return 0, l.recErr
	}
	if _, err := l.curBuf.Write(payload); err != nil {
		l.recErr = fmt.Errorf("wal: append: %w", err)
		return 0, l.recErr
	}
	n := int64(frameHeaderSize + len(payload))
	l.curSize += n
	l.tail += n
	lsn := l.nextLSN
	l.nextLSN++
	l.appended = lsn
	return lsn, nil
}

// rotateLocked flushes and fsyncs the current segment (if any) and
// starts a new one whose base is the next LSN. Caller holds l.mu.
// Rotation is rare (once per SegmentSize bytes), so holding mu across
// the fsync is acceptable.
func (l *Log) rotateLocked() error {
	if l.cur != nil {
		if err := l.curBuf.Flush(); err != nil {
			return fmt.Errorf("wal: rotate flush: %w", err)
		}
		if err := l.cur.Sync(); err != nil {
			return fmt.Errorf("wal: rotate sync: %w", err)
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: rotate close: %w", err)
		}
	}
	base := l.nextLSN
	path := filepath.Join(l.dir, segName(base))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.cur = f
	l.curBuf = bufio.NewWriterSize(f, 1<<16)
	l.curBase = base
	l.curSize = 0
	l.segs = append(l.segs, segInfo{base: base, path: path})
	return nil
}

// Sync makes every record appended before the call durable. Concurrent
// callers batch: one leader flushes and fsyncs while the rest wait on
// syncMu and return immediately once their records are covered — that
// is the group commit.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.recErr != nil {
		err := l.recErr
		l.mu.Unlock()
		return err
	}
	target := l.appended
	l.mu.Unlock()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= target {
		return nil // a concurrent leader's fsync already covered us
	}

	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.recErr != nil {
		err := l.recErr
		l.mu.Unlock()
		return err
	}
	flushed := l.appended
	var err error
	if l.curBuf != nil {
		err = l.curBuf.Flush()
		if err != nil {
			l.recErr = fmt.Errorf("wal: sync flush: %w", err)
			err = l.recErr
		}
	}
	f := l.cur
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if f != nil {
		if serr := f.Sync(); serr != nil {
			l.mu.Lock()
			l.recErr = fmt.Errorf("wal: fsync: %w", serr)
			err = l.recErr
			l.mu.Unlock()
			return err
		}
	}
	l.synced = flushed
	l.syncs.Add(1)
	return nil
}

// Syncs reports how many fsync batches have run (for group-commit
// tests and benches).
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Appended returns the LSN of the most recently appended record (0 if
// none).
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// TornBytes reports how many bytes of torn tail Open truncated.
func (l *Log) TornBytes() int64 { return l.tornBytes }

// TailBytes reports bytes appended since the last checkpoint — the
// replay debt a checkpoint would retire.
func (l *Log) TailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Checkpoint durably stores an application snapshot covering records up
// to and including upTo, then prunes fully-covered segments. The
// snapshot is written to a temp file, fsynced, renamed over the
// checkpoint file, and the directory fsynced — crash-atomic.
func (l *Log) Checkpoint(state []byte, upTo uint64) error {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()

	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, upTo)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(state)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(state, castagnoli))
	buf = append(buf, state...)

	tmp := filepath.Join(l.dir, checkpointName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo > l.checkpointLSN {
		l.checkpointLSN = upTo
	}
	l.tail = 0
	// Prune segments fully covered by the checkpoint: a segment is
	// removable when the NEXT segment's base is still <= upTo+1 (every
	// record in it is covered) and it is not the current segment.
	kept := l.segs[:0]
	for i, s := range l.segs {
		covered := i+1 < len(l.segs) && l.segs[i+1].base <= l.checkpointLSN+1
		if covered && s.path != l.curPathLocked() {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: prune segment: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	return nil
}

func (l *Log) curPathLocked() string {
	if l.cur == nil {
		return ""
	}
	return filepath.Join(l.dir, segName(l.curBase))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close() //nolint:errcheck
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the checkpoint file. ok is false when no
// checkpoint exists; a corrupt checkpoint is an error (it was written
// crash-atomically, so corruption is not a torn write to tolerate).
func (l *Log) LoadCheckpoint() (state []byte, upTo uint64, ok bool, err error) {
	buf, rerr := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("wal: read checkpoint: %w", rerr)
	}
	if len(buf) < 16 {
		return nil, 0, false, errors.New("wal: checkpoint too short")
	}
	upTo = binary.LittleEndian.Uint64(buf[0:8])
	ln := binary.LittleEndian.Uint32(buf[8:12])
	crc := binary.LittleEndian.Uint32(buf[12:16])
	if int(ln) != len(buf)-16 {
		return nil, 0, false, errors.New("wal: checkpoint length mismatch")
	}
	state = buf[16:]
	if crc32.Checksum(state, castagnoli) != crc {
		return nil, 0, false, errors.New("wal: checkpoint crc mismatch")
	}
	return state, upTo, true, nil
}

// Replay calls fn for every record past the checkpoint, in LSN order.
// Buffered appends are flushed first so the caller sees its own writes.
func (l *Log) Replay(fn func(lsn uint64, rec []byte) error) error {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.curBuf != nil {
		if err := l.curBuf.Flush(); err != nil {
			l.recErr = fmt.Errorf("wal: replay flush: %w", err)
			err = l.recErr
			l.mu.Unlock()
			return err
		}
	}
	segs := append([]segInfo(nil), l.segs...)
	ckpt := l.checkpointLSN
	l.mu.Unlock()

	for _, s := range segs {
		if err := replaySegment(s, ckpt, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(s segInfo, ckpt uint64, fn func(lsn uint64, rec []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close() //nolint:errcheck
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: replay stat: %w", err)
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [frameHeaderSize]byte
	var buf []byte
	lsn := s.base
	for off < size {
		good, n := readFrame(r, size-off, &hdr, &buf)
		if !good {
			return fmt.Errorf("wal: corrupt frame during replay at %s:%d", s.path, off)
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		if lsn > ckpt {
			if err := fn(lsn, buf[:ln]); err != nil {
				return err
			}
		}
		off += n
		lsn++
	}
	return nil
}

// Abandon simulates a kill -9: buffered (unflushed) appends are
// dropped, and with tear it writes a deliberately invalid partial frame
// straight to the segment fd — the torn tail a crash mid-pwrite leaves.
// The log is dead afterwards; reopen the directory to recover.
func (l *Log) Abandon(tear bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return
	}
	l.dead = true
	// Drop the bufio buffer on the floor: those appends were never
	// flushed, exactly like pages a killed process never wrote.
	l.curBuf = nil
	if l.cur != nil {
		if tear {
			// A frame header promising 1 MiB with a junk CRC, followed by
			// a few garbage bytes and then EOF: unambiguously torn.
			var junk [frameHeaderSize + 7]byte
			binary.LittleEndian.PutUint32(junk[0:4], 1<<20)
			binary.LittleEndian.PutUint32(junk[4:8], 0xdeadbeef)
			copy(junk[8:], "garbage")
			l.cur.Write(junk[:]) //nolint:errcheck // simulating a crash; nothing to do on error
		}
		l.cur.Close() //nolint:errcheck // simulating a crash
		l.cur = nil
	}
}

// Close flushes, fsyncs, and closes the log.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return nil
	}
	l.dead = true
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: close: %w", err)
		}
		l.cur = nil
	}
	l.curBuf = nil
	return nil
}
