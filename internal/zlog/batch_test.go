package zlog_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/zlog"
)

func TestAppendBatchRoundTrip(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	entries := [][]byte{
		[]byte("plain"), []byte("with:colons:inside"), []byte(""),
		[]byte("{\"json\": true}"), []byte("trailing:"), []byte("123:456"),
	}
	positions, err := l.AppendBatch(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(positions) != len(entries) {
		t.Fatalf("positions = %d, want %d", len(positions), len(entries))
	}
	for i, pos := range positions {
		if pos != uint64(i) {
			t.Fatalf("position %d = %d, want contiguous from 0", i, pos)
		}
		data, err := l.Read(ctx, pos)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(entries[i]) {
			t.Fatalf("entry %d came back %q, want %q", i, data, entries[i])
		}
	}
	tail, err := l.Tail(ctx)
	if err != nil || tail != uint64(len(entries)) {
		t.Fatalf("tail = %d, %v; want %d", tail, err, len(entries))
	}
	// Serial appends continue past the batch without gaps.
	pos, err := l.Append(ctx, []byte("after"))
	if err != nil || pos != uint64(len(entries)) {
		t.Fatalf("post-batch pos = %d, %v", pos, err)
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 10*time.Second)
	positions, err := l.AppendBatch(ctx, nil)
	if err != nil || positions != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", positions, err)
	}
}

func TestAppendBatchMessageComplexity(t *testing.T) {
	// The point of the batched path (ISSUE satellite): AppendBatch(n)
	// costs one sequencer message plus at most Width object calls, where
	// the serial loop pays 2n. Replicas:1 and a quiet gossip interval
	// keep the fabric counters attributable to the appends.
	c := boot(t, core.Options{
		MDSs: 1, OSDs: 3, Replicas: 1,
		OSD: rados.OSDConfig{GossipInterval: time.Hour},
	})
	ctx := ctxT(t, 30*time.Second)
	const n, width, slack = 32, 4, 8

	serial := openLog(t, c, "client.serial", "serlog", mds.CapPolicy{})
	batched := openLog(t, c, "client.batched", "batlog", mds.CapPolicy{})
	// Warm both paths (policy probe, class install, map fetches) so the
	// measured windows hold steady-state traffic only.
	if _, err := serial.Append(ctx, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := batched.AppendBatch(ctx, [][]byte{[]byte("warm")}); err != nil {
		t.Fatal(err)
	}

	before := c.Net.Stats()
	for i := 0; i < n; i++ {
		if _, err := serial.Append(ctx, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	mid := c.Net.Stats()
	entries := make([][]byte, n)
	for i := range entries {
		entries[i] = []byte("b")
	}
	if _, err := batched.AppendBatch(ctx, entries); err != nil {
		t.Fatal(err)
	}
	after := c.Net.Stats()

	serialCalls := mid.Calls - before.Calls
	batchedCalls := after.Calls - mid.Calls
	if serialCalls < 2*n {
		t.Fatalf("serial calls = %d, want >= %d (sequencer + write per entry)", serialCalls, 2*n)
	}
	if batchedCalls > 1+width+slack {
		t.Fatalf("batched calls = %d, want <= %d (one NextN + one writev per stripe)", batchedCalls, 1+width+slack)
	}
	if batchedCalls*4 > serialCalls {
		t.Fatalf("batched path not amortized: %d batched vs %d serial calls", batchedCalls, serialCalls)
	}
}

func TestAppendBatchCollisionReassigns(t *testing.T) {
	// A position inside the batch's range is already taken (as recovery
	// fills do): the stripe degrades to per-entry writes, the contested
	// entry reassigns through the serial path, and the log stays dense —
	// readers never stall on a hole.
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	// Occupy position 2 behind the sequencer's back.
	rc := c.NewRadosClient("client.raw")
	if err := rc.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Call(ctx, "zlog", "log0.2", zlog.ClassName, "fill", []byte("1:2")); err != nil {
		t.Fatal(err)
	}

	entries := make([][]byte, 8)
	for i := range entries {
		entries[i] = []byte(fmt.Sprintf("e%d", i))
	}
	positions, err := l.AppendBatch(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i, pos := range positions {
		if seen[pos] {
			t.Fatalf("duplicate position %d", pos)
		}
		seen[pos] = true
		if pos == 2 {
			t.Fatal("contested position 2 was handed out anyway")
		}
		data, err := l.Read(ctx, pos)
		if err != nil || string(data) != string(entries[i]) {
			t.Fatalf("entry %d at %d = %q, %v", i, pos, data, err)
		}
	}
	// Dense below the tail: every position is written or filled, never
	// unwritten.
	tail, err := l.Tail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for pos := uint64(0); pos < tail; pos++ {
		if _, err := l.Read(ctx, pos); errors.Is(err, zlog.ErrNotWritten) {
			t.Fatalf("hole at %d after collision handling", pos)
		}
	}
}

func TestAppendRetriesExhaustedTyped(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	// Occupy the next 8 positions behind the sequencer's back so every
	// retry collides; the loop must give up with the typed error.
	rc := c.NewRadosClient("client.raw")
	if err := rc.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 8; pos++ {
		obj := fmt.Sprintf("log0.%d", pos%4)
		in := []byte(fmt.Sprintf("1:%d:squat", pos))
		if _, err := rc.Call(ctx, "zlog", obj, zlog.ClassName, "write", in); err != nil {
			t.Fatal(err)
		}
	}
	_, err := l.Append(ctx, []byte("doomed"))
	if !errors.Is(err, zlog.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// The 9th attempt is past the squatted range and succeeds.
	pos, err := l.Append(ctx, []byte("lands"))
	if err != nil || pos != 8 {
		t.Fatalf("pos = %d, %v; want 8", pos, err)
	}
}

func TestRecoveryMidRangeForcesResync(t *testing.T) {
	// A client holding a cached range grant keeps appending while
	// another client runs recovery: the epoch bump seals the stripes, the
	// stale client's writes bounce with ESTALE, and it resynchronizes —
	// no entry lands twice and everything stays readable.
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	pol := mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: 2 * time.Second}
	l := openLog(t, c, "client.1", "log0", pol)
	ctx := ctxT(t, 40*time.Second)

	// First batch consumes the head of the cached grant's range.
	first := [][]byte{[]byte("a0"), []byte("a1"), []byte("a2")}
	if _, err := l.AppendBatch(ctx, first); err != nil {
		t.Fatal(err)
	}

	// Another client recovers mid-range: epoch 1 -> 2.
	l2 := openLog(t, c, "client.2", "log0", pol)
	if err := l2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if l2.Epoch() < 2 {
		t.Fatalf("epoch after recovery = %d, want >= 2", l2.Epoch())
	}

	// The stale client's next batch must transparently resync (its
	// cached epoch 1 is rejected ESTALE by the sealed stripes).
	second := [][]byte{[]byte("b0"), []byte("b1"), []byte("b2"), []byte("b3")}
	positions, err := l.AppendBatch(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch() < 2 {
		t.Fatalf("stale client epoch = %d after resync, want >= 2", l.Epoch())
	}
	for i, pos := range positions {
		data, err := l.Read(ctx, pos)
		if err != nil || string(data) != string(second[i]) {
			t.Fatalf("post-recovery entry %d at %d = %q, %v", i, pos, data, err)
		}
	}
	// Nothing from the first batch was lost.
	for i := range first {
		data, err := l2.Read(ctx, uint64(i))
		if err != nil || string(data) != string(first[i]) {
			t.Fatalf("pre-recovery entry %d = %q, %v", i, data, err)
		}
	}
}
