package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func collect(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	err := l.Replay(func(lsn uint64, rec []byte) error {
		out[lsn] = string(rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 10, "rec")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := collect(t, l)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		lsn := uint64(i + 1)
		want := fmt.Sprintf("rec-%04d", i)
		if got[lsn] != want {
			t.Fatalf("lsn %d = %q, want %q", lsn, got[lsn], want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh open sees the same records.
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close() //nolint:errcheck
	got2 := collect(t, l2)
	if len(got2) != 10 {
		t.Fatalf("reopened replay %d records, want 10", len(got2))
	}
	if l2.Appended() != 10 {
		t.Fatalf("Appended() = %d, want 10", l2.Appended())
	}
}

func TestEmptyPayloadAllowed(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatalf("Append(nil): %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close() //nolint:errcheck
	got := collect(t, l2)
	if v, ok := got[1]; !ok || v != "" {
		t.Fatalf("empty record lost: %v", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	appendN(t, l, 20, "rot") // each frame is 8+8 = 16 bytes, 4 per segment
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatalf("segmentNames: %v", err)
	}
	if len(names) < 3 {
		t.Fatalf("expected >=3 segments after rotation, got %d: %v", len(names), names)
	}
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close() //nolint:errcheck
	got := collect(t, l2)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
	// Appends continue with the right numbering after reopen.
	lsn, err := l2.Append([]byte("after"))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if lsn != 21 {
		t.Fatalf("post-reopen LSN = %d, want 21", lsn)
	}
}

func TestCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	appendN(t, l, 12, "ck")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Checkpoint([]byte("snapshot@8"), 8); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if l.TailBytes() != 0 {
		t.Fatalf("TailBytes after checkpoint = %d, want 0", l.TailBytes())
	}
	// Segments fully covered by LSN 8 must be gone.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatalf("segmentNames: %v", err)
	}
	if len(names) >= 3 {
		t.Fatalf("covered segments not pruned: %v", names)
	}
	got := collect(t, l)
	for lsn := range got {
		if lsn <= 8 {
			t.Fatalf("replay visited checkpointed lsn %d", lsn)
		}
	}
	for lsn := uint64(9); lsn <= 12; lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("replay missing post-checkpoint lsn %d", lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: checkpoint state survives, replay still starts past it.
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close() //nolint:errcheck
	state, upTo, ok, err := l2.LoadCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if string(state) != "snapshot@8" || upTo != 8 {
		t.Fatalf("checkpoint = (%q, %d), want (snapshot@8, 8)", state, upTo)
	}
	got2 := collect(t, l2)
	if len(got2) != 4 {
		t.Fatalf("reopened replay %d records, want 4", len(got2))
	}
}

func TestCheckpointAheadOfSegmentsStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 5, "cp")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Checkpoint covering everything: the single live segment is kept
	// (it is current) but all of its records are covered.
	if err := l.Checkpoint([]byte("all"), 5); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{})
	lsn, err := l2.Append([]byte("next"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if lsn != 6 {
		t.Fatalf("post-checkpoint LSN = %d, want 6", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3 := mustOpen(t, dir, Options{})
	defer l3.Close() //nolint:errcheck
	got := collect(t, l3)
	if len(got) != 1 || got[6] != "next" {
		t.Fatalf("replay = %v, want {6: next}", got)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	appendN(t, l, 100, "gc")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if n := l.Syncs(); n != 1 {
		t.Fatalf("100 appends + one Sync ran %d fsync batches, want 1", n)
	}
	// A Sync with nothing new is free.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if n := l.Syncs(); n != 1 {
		t.Fatalf("no-op Sync ran an fsync batch (total %d)", n)
	}
}

// TestGroupCommitConcurrent runs 64 writers that each commit their own
// records (Append, then Sync) and counts fsync batches: a leader's fsync
// must cover the records appended while the previous one ran, so the
// log syncs at most once per three appends. Every record replays.
// The count needs a second P: with GOMAXPROCS=1 no writer runs while a
// short fsync is in the kernel, so there is nothing to batch.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const writers = 64
	const per = 32
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := uint64(writers * per)
	if l.Appended() != total {
		t.Fatalf("Appended = %d, want %d", l.Appended(), total)
	}
	if n := l.Syncs(); runtime.GOMAXPROCS(0) < 2 {
		t.Logf("GOMAXPROCS=1: %d appends ran %d fsync batches, not checked", total, n)
	} else if 3*n > total {
		t.Fatalf("%d appends ran %d fsync batches, want at most a third as many: group commit broken", total, n)
	} else {
		t.Logf("%d appends ran %d fsync batches (%.2f per append)", total, n, float64(n)/float64(total))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close() //nolint:errcheck
	if got := collect(t, l2); len(got) != int(total) {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
}

func TestAbandonDropsUnflushed(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 5, "durable")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendN(t, l, 5, "volatile") // never synced
	l.Abandon(true)
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Abandon = %v, want ErrClosed", err)
	}

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close() //nolint:errcheck
	if l2.TornBytes() == 0 {
		t.Fatalf("Abandon(tear) left no torn tail")
	}
	got := collect(t, l2)
	if len(got) != 5 {
		t.Fatalf("replayed %d records after crash, want the 5 synced", len(got))
	}
	for lsn, v := range got {
		if lsn > 5 || v[:7] != "durable" {
			t.Fatalf("unsynced record leaked through crash: %d=%q", lsn, v)
		}
	}
	// The log keeps working after recovery.
	lsn, err := l2.Append([]byte("resumed"))
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if lsn != 6 {
		t.Fatalf("post-recovery LSN = %d, want 6", lsn)
	}
}

// TestTornWriteCorpus pins the on-disk format: CRC + length-prefix
// framing. It builds a clean log, then for every truncation length
// inside the final record and every single-byte flip inside the final
// record it asserts replay stops cleanly at the last valid frame — all
// prior records intact, no partial apply, and the log reopens writable.
func TestTornWriteCorpus(t *testing.T) {
	build := func(t *testing.T, dir string) (segPath string, lastFrameOff int64) {
		l := mustOpen(t, dir, Options{})
		appendN(t, l, 4, "base")
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		names, err := segmentNames(dir)
		if err != nil || len(names) != 1 {
			t.Fatalf("segmentNames: %v %v", names, err)
		}
		segPath = filepath.Join(dir, names[0])
		// Each frame: 8 hdr + len("base-0000")=9 payload = 17 bytes.
		return segPath, 3 * 17
	}

	check := func(t *testing.T, dir string, wantTorn bool) {
		t.Helper()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after corruption: %v", err)
		}
		defer l.Close() //nolint:errcheck
		if wantTorn && l.TornBytes() == 0 {
			t.Fatalf("expected torn bytes, got none")
		}
		got := collect(t, l)
		if len(got) != 3 {
			t.Fatalf("replayed %d records, want exactly the 3 intact", len(got))
		}
		for i := 0; i < 3; i++ {
			want := fmt.Sprintf("base-%04d", i)
			if got[uint64(i+1)] != want {
				t.Fatalf("record %d corrupted to %q", i+1, got[uint64(i+1)])
			}
		}
		// No partial apply: the torn record must not surface at all.
		if _, ok := got[4]; ok {
			t.Fatalf("torn record partially applied: %q", got[4])
		}
		// The recovered log accepts appends at the truncated position.
		lsn, err := l.Append([]byte("fresh"))
		if err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if lsn != 4 {
			t.Fatalf("post-recovery LSN = %d, want 4", lsn)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync after recovery: %v", err)
		}
	}

	t.Run("truncate-every-offset", func(t *testing.T) {
		refDir := t.TempDir()
		segPath, lastOff := build(t, refDir)
		full, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		// Every length that cuts inside the final record, including
		// cutting the header itself.
		for cut := lastOff; cut < int64(len(full)); cut++ {
			dir := t.TempDir()
			p := filepath.Join(dir, filepath.Base(segPath))
			if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
				t.Fatalf("write truncated copy: %v", err)
			}
			check(t, dir, cut > lastOff)
		}
	})

	t.Run("flip-every-byte", func(t *testing.T) {
		refDir := t.TempDir()
		segPath, lastOff := build(t, refDir)
		full, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		for pos := lastOff; pos < int64(len(full)); pos++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 0xff
			// A flipped length byte may promise more data than the file
			// holds, a flipped CRC/payload byte fails the checksum —
			// either way the frame is invalid and must be dropped.
			dir := t.TempDir()
			p := filepath.Join(dir, filepath.Base(segPath))
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatalf("write mutated copy: %v", err)
			}
			check(t, dir, true)
		}
	})

	t.Run("mid-segment-corruption-is-hard-error", func(t *testing.T) {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{SegmentSize: 40})
		appendN(t, l, 6, "mid") // frames of 16 bytes; rotation keeps several segments
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		names, err := segmentNames(dir)
		if err != nil || len(names) < 2 {
			t.Fatalf("want >=2 segments, got %v (%v)", names, err)
		}
		first := filepath.Join(dir, names[0])
		buf, err := os.ReadFile(first)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		buf[len(buf)-1] ^= 0xff
		if err := os.WriteFile(first, buf, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := Open(dir, Options{SegmentSize: 40}); err == nil {
			t.Fatalf("Open tolerated corruption in a non-final segment")
		}
	})
}

// TestFrameFormatPinned locks the on-disk layout: little-endian u32
// length, little-endian u32 Castagnoli CRC over the payload, payload.
func TestFrameFormatPinned(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	payload := []byte("pinned-format")
	if _, err := l.Append(payload); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := segmentNames(dir)
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var want []byte
	want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	want = append(want, payload...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("on-disk frame = %x, want %x", raw, want)
	}
	if names[0] != "seg-0000000000000001.wal" {
		t.Fatalf("segment name = %q, want seg-0000000000000001.wal", names[0])
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	if _, err := l.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatalf("oversized append accepted")
	}
	// The rejection is not sticky.
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatalf("Append after rejection: %v", err)
	}
}

func TestClosedLogOperationsFail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 2, "pre")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append([]byte("late")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != ErrClosed {
		t.Fatalf("Replay after Close = %v, want ErrClosed", err)
	}
	if err := l.Checkpoint([]byte("state"), 2); err != ErrClosed {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// Abandon after Close is a no-op, and Close after Abandon is nil:
	// every shutdown interleaving converges on the same dead state.
	l.Abandon(true)
	if err := l.Close(); err != nil {
		t.Fatalf("Close after Abandon = %v, want nil", err)
	}
}

func TestSyncFollowerSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	appendN(t, l, 3, "gc")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	before := l.Syncs()
	// Nothing new appended: the second Sync must take the follower exit
	// (records already covered) without another fsync batch.
	if err := l.Sync(); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if got := l.Syncs(); got != before {
		t.Fatalf("redundant Sync ran an fsync batch: %d -> %d", before, got)
	}
}

// checkpointLSN is the LSN the log's last checkpoint covers.
func checkpointLSN(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLSN
}

func TestCheckpointLSNReported(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if got := checkpointLSN(l); got != 0 {
		t.Fatalf("fresh CheckpointLSN = %d, want 0", got)
	}
	appendN(t, l, 5, "ck")
	if err := l.Checkpoint([]byte("snap"), 5); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := checkpointLSN(l); got != 5 {
		t.Fatalf("CheckpointLSN = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close() //nolint:errcheck
	if got := checkpointLSN(l2); got != 5 {
		t.Fatalf("reopened CheckpointLSN = %d, want 5", got)
	}
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	appendN(t, l, 3, "err")
	sentinel := fmt.Errorf("apply exploded")
	err := l.Replay(func(lsn uint64, rec []byte) error {
		if lsn == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("Replay = %v, want the callback's error", err)
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	// The checkpoint is written crash-atomically (tmp+fsync+rename), so
	// unlike a segment tail, corruption is an error, never a truncation.
	cases := map[string]func(valid []byte) []byte{
		"too-short":       func([]byte) []byte { return []byte{1, 2, 3} },
		"length-mismatch": func(valid []byte) []byte { return append(valid, 0xff) },
		"crc-mismatch": func(valid []byte) []byte {
			bad := append([]byte(nil), valid...)
			bad[len(bad)-1] ^= 0xff
			return bad
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			appendN(t, l, 2, "ck")
			if err := l.Checkpoint([]byte("snapshot-state"), 2); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			path := filepath.Join(dir, checkpointName)
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read checkpoint: %v", err)
			}
			if err := os.WriteFile(path, mangle(valid), 0o644); err != nil {
				t.Fatalf("write checkpoint: %v", err)
			}
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatalf("Open accepted a %s checkpoint", name)
			}
		})
	}
}

func TestBogusSegmentNameRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-zzzzzzzzzzzzzzzz.wal"), nil, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("Open accepted a segment with an unparseable base LSN")
	}
}

func TestCorruptNonFinalSegmentIsError(t *testing.T) {
	// Only the final segment may be torn (a crash mid-write). A bad
	// frame in an earlier segment means real corruption and must refuse
	// to open rather than silently truncate acked history.
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	appendN(t, l, 20, "mid") // rotates several times
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := segmentNames(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("want >= 2 segments, got %v (%v)", names, err)
	}
	first := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[frameHeaderSize] ^= 0xff // flip a payload byte: CRC mismatch
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Open(dir, Options{SegmentSize: 64}); err == nil {
		t.Fatalf("Open accepted a corrupt non-final segment")
	}
}

func TestSegmentCreateFailureIsSticky(t *testing.T) {
	// Pre-create the file the first rotation will claim: O_EXCL makes
	// the create fail, and the write error must stick — every later
	// Append and Sync reports it rather than silently losing records.
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("squatter"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := l.Append([]byte("first")); err == nil {
		t.Fatalf("Append created over an existing segment file")
	}
	if _, err := l.Append([]byte("second")); err == nil {
		t.Fatalf("Append after a write error succeeded; the error must stick")
	}
	if err := l.Sync(); err == nil {
		t.Fatalf("Sync after a write error succeeded; the error must stick")
	}
}

func TestCheckpointTmpCollisionFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close() //nolint:errcheck
	appendN(t, l, 2, "ck")
	// A directory squatting on the tmp path: the create fails and the
	// old checkpoint (none here) stays untouched.
	if err := os.Mkdir(filepath.Join(dir, checkpointName+".tmp"), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := l.Checkpoint([]byte("state"), 2); err == nil {
		t.Fatalf("Checkpoint wrote through a squatting directory")
	}
	if got := checkpointLSN(l); got != 0 {
		t.Fatalf("failed Checkpoint advanced CheckpointLSN to %d", got)
	}
}

func TestCheckpointPruneWithNoOpenSegment(t *testing.T) {
	// Reopen in the checkpoint-ahead state (no segment reusable, so no
	// current segment is open) and checkpoint again: the prune loop must
	// remove the fully covered segments without tripping on the absent
	// current segment.
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	appendN(t, l, 8, "old") // several segments
	if err := l.Checkpoint([]byte("snap"), 20); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close() //nolint:errcheck
	if err := l2.Checkpoint([]byte("snap2"), 20); err != nil {
		t.Fatalf("reopened Checkpoint: %v", err)
	}
	got := collect(t, l2)
	if len(got) != 0 {
		t.Fatalf("replay past an all-covering checkpoint returned %d records", len(got))
	}
}

func TestOpenDirPathIsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("file"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatalf("Open succeeded on a file path")
	}
}

func TestCheckpointAheadPrunesCoveredSegments(t *testing.T) {
	// Two on-disk segments, both wholly behind the checkpoint, and no
	// current segment open (the checkpoint-ahead reopen state): a new
	// checkpoint must prune the covered one without a segment to spare.
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	appendN(t, l, 8, "old")
	if err := l.Checkpoint([]byte("snap"), 20); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := segmentNames(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("want 1 surviving segment, got %v (%v)", names, err)
	}
	// Clone the survivor under the next base so the reopen sees two
	// segments with consistent implicit numbering.
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	base, err := parseSegBase(names[0])
	if err != nil {
		t.Fatalf("parseSegBase: %v", err)
	}
	records := int64(len(raw)) / 16 // 8-byte header + 8-byte payload each
	next := segName(base + uint64(records))
	if err := os.WriteFile(filepath.Join(dir, next), raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close() //nolint:errcheck
	if err := l2.Checkpoint([]byte("snap2"), 20); err != nil {
		t.Fatalf("reopened Checkpoint: %v", err)
	}
	names, err = segmentNames(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("covered segment not pruned: %v (%v)", names, err)
	}
	if got := collect(t, l2); len(got) != 0 {
		t.Fatalf("replay past an all-covering checkpoint returned %d records", len(got))
	}
}
