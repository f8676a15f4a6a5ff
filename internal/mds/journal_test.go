package mds_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/wire"
)

// radosAddr is the endpoint rank 0 journals through.
var radosAddr = wire.Addr(string(mds.MDSAddr(0)) + ".rados")

// partitionJournal cuts rank 0's journal endpoint off from every OSD.
func partitionJournal(c *core.Cluster) {
	for i := range c.OSDs {
		c.Net.Partition(radosAddr, rados.OSDAddr(i))
	}
}

// eventually polls cond every 10 ms until it holds or d passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// journalValues reads rank 0's journal object and returns the values of
// path's "value" records in journal order.
func journalValues(ctx context.Context, t *testing.T, rc *rados.Client, path string) []uint64 {
	t.Helper()
	raw, err := rc.Read(ctx, "metadata", mds.JournalObject(0))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	var vals []uint64
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e struct {
			Op    string `json:"op"`
			Path  string `json:"path"`
			Value uint64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if e.Op == "value" && e.Path == path {
			vals = append(vals, e.Value)
		}
	}
	return vals
}

// TestRepliesDoNotWaitForJournal pins which records sit on a reply
// path. A cap release's value and the round-trip checkpoint every
// JournalEvery increments are checkpoints the rank flushes in the
// background, so with the journal unreachable quota-1 hand-offs still
// run at fabric speed. (A release that waited for its append would wait
// out the RADOS client's retry ladder, ~26 ms each, and 60 of them
// overrun the one-second budget.) Once the journal is reachable again
// the pending checkpoints converge to the highest values, and a second
// rank's takeover replay sees them.
func TestRepliesDoNotWaitForJournal(t *testing.T) {
	c := boot(t, core.Options{MDSs: 2, OSDs: 3, MDS: mds.Config{JournalEvery: 8}})
	a := newClient(t, c, "client.a")
	b := newClient(t, c, "client.b")
	ctx := ctxT(t, 30*time.Second)

	quota1 := mds.CapPolicy{Cacheable: true, Quota: 1}
	if err := a.Open(ctx, "/seq", mds.TypeSequencer, &quota1); err != nil {
		t.Fatal(err)
	}
	if err := a.Open(ctx, "/rt", mds.TypeSequencer, &roundTrip); err != nil {
		t.Fatal(err)
	}
	// One short of the first round-trip checkpoint.
	if _, err := a.NextN(ctx, "/rt", 7); err != nil {
		t.Fatal(err)
	}

	partitionJournal(c)
	const handoffs = 60
	hctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < handoffs; i++ {
		cl := a
		if i%2 == 1 {
			cl = b
		}
		v, err := cl.Next(hctx, "/seq")
		if err != nil {
			t.Fatalf("hand-off %d of %d: %v: a reply waited for the unreachable journal", i+1, handoffs, err)
		}
		if v <= last {
			t.Fatalf("hand-off %d: value %d after %d", i+1, v, last)
		}
		last = v
	}
	if v, err := a.Next(hctx, "/rt"); err != nil || v != 8 {
		t.Fatalf("round-trip Next crossing JournalEvery = %d, %v; want 8 within the budget", v, err)
	}

	// Keep the journal cut off until appends carrying the highest values
	// have failed (every attempt of one is refused), so convergence needs
	// the flusher to put a failed set back rather than drop it.
	refused := c.Net.Stats().Refused
	eventually(t, 10*time.Second, func() bool { return c.Net.Stats().Refused >= refused+20 },
		"the flusher stopped retrying the unreachable journal")
	c.Net.HealAll()
	var got map[string]uint64
	eventually(t, 10*time.Second, func() bool {
		var err error
		got, err = c.MDSs[1].ReplayValues(ctx, 0)
		return err == nil && got["/seq"] == last && got["/rt"] == 8
	}, "journal never converged to the highest values")
}

// TestCheckpointsCoalesceBehindOneAppend pins the single-flight flusher:
// checkpoints recorded while an append is in flight are max-merged into
// the next one, so K checkpoints of one path cost at most two records.
func TestCheckpointsCoalesceBehindOneAppend(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	cl := newClient(t, c, "client.1")
	ctx := ctxT(t, 20*time.Second)
	// Open journals its create record before replying, which also warms
	// the rank's OSD map, so from here the rank's journal endpoint calls
	// out only for checkpoint appends.
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &roundTrip); err != nil {
		t.Fatal(err)
	}
	// The fabric delay keeps the first append in flight (~80 ms) while
	// the test records the rest.
	c.Net.SetLatency(20*time.Millisecond, 0)
	srv := c.MDSs[0]
	srv.RecordCheckpoint("/seq", 1)
	eventually(t, 5*time.Second, func() bool {
		return c.Net.Stats().Outbound[radosAddr].Inflight > 0
	}, "no checkpoint append went in flight")

	const k = 100
	for v := uint64(2); v <= k; v++ {
		srv.RecordCheckpoint("/seq", v)
	}
	srv.RecordCheckpoint("/seq", k/2) // a lower value recorded later must not win

	rc := c.NewRadosClient("client.probe")
	var vals []uint64
	eventually(t, 5*time.Second, func() bool {
		vals = journalValues(ctx, t, rc, "/seq")
		return len(vals) > 0 && vals[len(vals)-1] == k
	}, "the journal never carried the highest checkpoint")
	if len(vals) > 2 {
		t.Fatalf("%d checkpoints recorded behind one append became %d records %v, want at most 2", k, len(vals), vals)
	}
}

// TestStopQuiescesJournalFlusher is the lifecycle check for the
// flusher: it runs on the rank's WaitGroup and appends under a stop-cut
// context, so once Stop returns the rank's journal endpoint makes no
// further fabric call, even with a flusher retrying an unreachable
// journal when Stop began.
func TestStopQuiescesJournalFlusher(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	cl := newClient(t, c, "client.1")
	ctx := ctxT(t, 10*time.Second)
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &roundTrip); err != nil {
		t.Fatal(err)
	}
	calls := func() uint64 { return c.Net.Stats().Outbound[radosAddr].Calls }

	// With the OSDs cut off, each failed append attempt refreshes the
	// OSD map from the monitor: calls the fabric counts.
	partitionJournal(c)
	before := calls()
	srv := c.MDSs[0]
	srv.RecordCheckpoint("/seq", 1)
	eventually(t, 5*time.Second, func() bool { return calls() > before }, "the flusher never tried to append")

	srv.Stop()
	after := calls()
	srv.RecordCheckpoint("/seq", 2) // a handler still in flight at Stop starts nothing
	time.Sleep(300 * time.Millisecond)
	if got := calls(); got != after {
		t.Fatalf("stopped rank kept calling the fabric from its journal endpoint: %d calls at Stop, %d after", after, got)
	}
}
