package zlog_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/zlog"
)

func boot(t *testing.T, opts core.Options) *core.Cluster {
	t.Helper()
	if opts.Pools == nil {
		opts.Pools = []string{"zlog"}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := core.Boot(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func openLog(t *testing.T, c *core.Cluster, client, name string, pol mds.CapPolicy) *zlog.Log {
	t.Helper()
	ctx := ctxT(t, 20*time.Second)
	l, err := zlog.Open(ctx, c.Net, wire.Addr(client), c.MonIDs(), zlog.Options{
		Name: name, Pool: "zlog", Width: 4, SeqPolicy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestAppendReadRoundTrip(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	for i := 0; i < 10; i++ {
		pos, err := l.Append(ctx, []byte(fmt.Sprintf("entry-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if pos != uint64(i) {
			t.Fatalf("append pos = %d, want %d", pos, i)
		}
	}
	for i := 0; i < 10; i++ {
		data, err := l.Read(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("read %d = %q", i, data)
		}
	}
	tail, err := l.Tail(ctx)
	if err != nil || tail != 10 {
		t.Fatalf("tail = %d, %v", tail, err)
	}
}

func TestReadUnwritten(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)
	if _, err := l.Read(ctx, 99); !errors.Is(err, zlog.ErrNotWritten) {
		t.Fatalf("err = %v, want ErrNotWritten", err)
	}
}

func TestWriteOnce(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)
	pos, err := l.Append(ctx, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	// A direct class write at the same position must be refused.
	rc := c.NewRadosClient("client.raw")
	if err := rc.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	obj := fmt.Sprintf("log0.%d", pos%4)
	_, err = rc.Call(ctx, "zlog", obj, zlog.ClassName, "write",
		[]byte(fmt.Sprintf("1:%d:overwrite", pos)))
	if !errors.Is(err, rados.ErrExists) {
		t.Fatalf("overwrite err = %v, want ErrExists", err)
	}
	data, err := l.Read(ctx, pos)
	if err != nil || string(data) != "first" {
		t.Fatalf("read = %q, %v", data, err)
	}
}

func TestFillAndTrim(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	if _, err := l.Append(ctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Fill a hole ahead of the tail.
	if err := l.Fill(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(ctx, 5); !errors.Is(err, zlog.ErrFilled) {
		t.Fatalf("read filled = %v", err)
	}
	// Fill is idempotent on filled, refused on written.
	if err := l.Fill(ctx, 5); err != nil {
		t.Fatalf("re-fill filled: %v", err)
	}
	if err := l.Fill(ctx, 0); !errors.Is(err, rados.ErrExists) {
		t.Fatalf("fill written = %v, want ErrExists", err)
	}
	// Trim a written position.
	if err := l.Trim(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(ctx, 0); !errors.Is(err, zlog.ErrTrimmed) {
		t.Fatalf("read trimmed = %v", err)
	}
}

func TestEntriesWithColonsAndBinaryish(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)
	payloads := []string{"a:b:c", "{\"k\": 1}", "", "trailing:"}
	var poss []uint64
	for _, p := range payloads {
		pos, err := l.Append(ctx, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		poss = append(poss, pos)
	}
	for i, p := range payloads {
		data, err := l.Read(ctx, poss[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != p {
			t.Fatalf("payload %q came back %q", p, data)
		}
	}
}

func TestSealRejectsStaleWrites(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 20*time.Second)

	if _, err := l.Append(ctx, []byte("pre-seal")); err != nil {
		t.Fatal(err)
	}
	// Seal epoch 5 on stripe object 0 directly.
	rc := c.NewRadosClient("client.raw")
	if err := rc.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := rc.Call(ctx, "zlog", "log0.0", zlog.ClassName, "seal", []byte("5"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "0" {
		t.Fatalf("seal returned maxpos %q, want 0", out)
	}
	// A write tagged with the old epoch is rejected ESTALE.
	_, err = rc.Call(ctx, "zlog", "log0.0", zlog.ClassName, "write", []byte("1:4:stale"))
	if !errors.Is(err, rados.ErrStale) {
		t.Fatalf("stale write err = %v, want ErrStale", err)
	}
	// Sealing with a non-newer epoch is rejected.
	_, err = rc.Call(ctx, "zlog", "log0.0", zlog.ClassName, "seal", []byte("5"))
	if !errors.Is(err, rados.ErrStale) {
		t.Fatalf("re-seal err = %v, want ErrStale", err)
	}
}

func TestRecoveryRecomputesTail(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 30*time.Second)

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := l.Append(ctx, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A second client runs recovery (as if the sequencer state was
	// lost): the recomputed tail must equal the number of appends.
	l2 := openLog(t, c, "client.2", "log0", mds.CapPolicy{})
	if err := l2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	tail, err := l2.Tail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tail != n {
		t.Fatalf("recovered tail = %d, want %d", tail, n)
	}
	// Appends continue from the recovered tail without overwriting.
	pos, err := l2.Append(ctx, []byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if pos != n {
		t.Fatalf("post-recovery pos = %d, want %d", pos, n)
	}
	// The old client (stale epoch) transparently resynchronizes.
	pos, err = l.Append(ctx, []byte("from-old-client"))
	if err != nil {
		t.Fatal(err)
	}
	if pos != n+1 {
		t.Fatalf("old client pos = %d, want %d", pos, n+1)
	}
}

func TestRecoveryAfterSequencerLoss(t *testing.T) {
	// The full §5.2.2 scenario: the MDS rank holding the sequencer dies
	// WITHOUT journaled state catching the latest values; recovery
	// recomputes the true tail from the storage interface.
	c := boot(t, core.Options{
		MDSs: 2, OSDs: 3,
		MDS: mds.Config{JournalEvery: 1 << 30}, // never checkpoint: worst case
	})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 40*time.Second)

	const n = 12
	for i := 0; i < n; i++ {
		if _, err := l.Append(ctx, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the rank serving the sequencer.
	c.MDSs[0].Stop()
	monc := c.NewMonClient("client.admin")
	if err := monc.MarkMDSDown(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// Reads never block during sequencer failure.
	data, err := l.Read(ctx, 3)
	if err != nil || string(data) != "e3" {
		t.Fatalf("read during failure = %q, %v", data, err)
	}
	// Rank 1 takes over (journal has only the create, value 0). Without
	// recovery the sequencer would hand out already-written positions;
	// Append survives anyway via write-once retries, but Recover makes
	// it exact. Wait for takeover first.
	deadline := time.Now().Add(15 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err = l.Tail(cctx)
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sequencer never failed over: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := l.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	tail, err := l.Tail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tail != n {
		t.Fatalf("recovered tail = %d, want %d", tail, n)
	}
	pos, err := l.Append(ctx, []byte("after-failover"))
	if err != nil {
		t.Fatal(err)
	}
	if pos != n {
		t.Fatalf("pos = %d, want %d", pos, n)
	}
	// Every original entry survived.
	for i := 0; i < n; i++ {
		data, err := l.Read(ctx, uint64(i))
		if err != nil || string(data) != fmt.Sprintf("e%d", i) {
			t.Fatalf("entry %d = %q, %v", i, data, err)
		}
	}
}

func TestConcurrentAppendsUniquePositions(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	ctx := ctxT(t, 40*time.Second)

	const clients, appends = 4, 25
	var mu sync.Mutex
	positions := map[uint64]string{}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		l := openLog(t, c, fmt.Sprintf("client.%d", i), "shared", mds.CapPolicy{})
		name := fmt.Sprintf("c%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < appends; j++ {
				pos, err := l.Append(ctx, []byte(name))
				if err != nil {
					t.Errorf("%s append: %v", name, err)
					return
				}
				mu.Lock()
				if prev, dup := positions[pos]; dup {
					t.Errorf("position %d assigned to both %s and %s", pos, prev, name)
				}
				positions[pos] = name
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(positions) != clients*appends {
		t.Fatalf("positions = %d, want %d", len(positions), clients*appends)
	}
	// The log is dense: every position below the tail is written.
	l := openLog(t, c, "client.check", "shared", mds.CapPolicy{})
	for pos := uint64(0); pos < uint64(clients*appends); pos++ {
		if _, err := l.Read(ctx, pos); err != nil {
			t.Fatalf("hole at %d: %v", pos, err)
		}
	}
}

func TestCachedSequencerBatchingMode(t *testing.T) {
	// The §5.2.1 discovery: with a cacheable sequencer capability a
	// single client appends at much higher throughput, incrementing the
	// sequencer locally.
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	pol := mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: time.Second}
	l := openLog(t, c, "client.1", "log0", pol)
	ctx := ctxT(t, 30*time.Second)

	for i := 0; i < 50; i++ {
		if _, err := l.Append(ctx, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	local, _ := l.MDS().Stats()
	if local < 49 {
		t.Fatalf("local sequencer ops = %d, want ~50 (capability caching)", local)
	}
}

func TestTwoLogsIndependent(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	ctx := ctxT(t, 20*time.Second)
	la := openLog(t, c, "client.a", "loga", mds.CapPolicy{})
	lb := openLog(t, c, "client.b", "logb", mds.CapPolicy{})

	pa, err := la.Append(ctx, []byte("a0"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := lb.Append(ctx, []byte("b0"))
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0 || pb != 0 {
		t.Fatalf("independent logs interfered: pa=%d pb=%d", pa, pb)
	}
	da, _ := la.Read(ctx, 0)
	db, _ := lb.Read(ctx, 0)
	if string(da) != "a0" || string(db) != "b0" {
		t.Fatalf("cross-contamination: %q %q", da, db)
	}
}

func TestLogSurvivesOSDFailure(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 4, Replicas: 3})
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	ctx := ctxT(t, 30*time.Second)

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(ctx, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.OSDs[0].Stop()
	monc := c.NewMonClient("client.admin")
	if err := monc.MarkOSDDown(ctx, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < n; i++ {
		data, err := l.Read(ctx, uint64(i))
		if err != nil || string(data) != fmt.Sprintf("e%d", i) {
			t.Fatalf("entry %d after OSD failure = %q, %v", i, data, err)
		}
	}
	if _, err := l.Append(ctx, []byte("post-failure")); err != nil {
		t.Fatalf("append after OSD failure: %v", err)
	}
}

// TestOpenFreshLogCommitsOnce pins Open to one map read and one update:
// opening a fresh log installs the storage class and sets the log's
// epoch in a single commit, and opening it again commits nothing.
func TestOpenFreshLogCommitsOnce(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 3})
	ctx := ctxT(t, 20*time.Second)
	monc := c.NewMonClient("client.epochs")
	epoch := func() types.Epoch {
		t.Helper()
		m, err := monc.GetOSDMap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m.Epoch
	}
	before := epoch()
	l := openLog(t, c, "client.1", "log0", mds.CapPolicy{})
	if got := epoch(); got != before+1 {
		t.Fatalf("first open moved the OSD map %d -> %d, want one epoch", before, got)
	}
	if l.Epoch() != 1 {
		t.Fatalf("fresh log epoch = %d, want 1", l.Epoch())
	}
	before = epoch()
	openLog(t, c, "client.2", "log0", mds.CapPolicy{})
	if got := epoch(); got != before {
		t.Fatalf("second open moved the OSD map %d -> %d, want no commit", before, got)
	}
}

// TestOpenExistingLogIsTwoRoundTrips counts the fabric calls of
// attaching to an existing log on a three-monitor cluster: one map read
// by the RADOS client, then, beside it, one Subscribe per monitor by
// the sequencer client, and the sequencer open. Nothing is committed
// and no other map is read.
func TestOpenExistingLogIsTwoRoundTrips(t *testing.T) {
	c := boot(t, core.Options{Mons: 3, MDSs: 1, OSDs: 3})
	openLog(t, c, "client.first", "log0", mds.CapPolicy{})
	openLog(t, c, "client.again", "log0", mds.CapPolicy{})
	out := c.Net.Stats().Outbound
	for addr, want := range map[wire.Addr]uint64{
		"client.again.rados": 1, // the map read
		"client.again":       4, // 3 subscribes, then the sequencer open
		"client.again.mon":   0,
	} {
		if got := out[addr].Calls; got != want {
			t.Errorf("%s made %d calls, want %d", addr, got, want)
		}
	}
}

// TestOpenWithoutMDSFailsCleanly opens a log on a cluster with no
// metadata server: the sequencer open fails with mds.ErrUnavail, and
// the sequencer client's endpoint is removed again.
func TestOpenWithoutMDSFailsCleanly(t *testing.T) {
	c := boot(t, core.Options{MDSs: 0, OSDs: 3})
	_, err := zlog.Open(ctxT(t, 20*time.Second), c.Net, "client.leak", c.MonIDs(), zlog.Options{Name: "log0", Pool: "metadata"})
	if !errors.Is(err, mds.ErrUnavail) {
		t.Fatalf("open = %v, want mds.ErrUnavail", err)
	}
	for _, a := range c.Net.Endpoints() {
		if a == "client.leak" {
			t.Fatalf("client.leak still registered after a failed open: %v", c.Net.Endpoints())
		}
	}
}
