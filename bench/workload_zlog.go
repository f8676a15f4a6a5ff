package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/wire"
	"repro/internal/zlog"
)

const (
	zlogEntrySize = 128
	zlogBatch     = 64
	zlogPool      = "zlog"
	zlogName      = "bench"
	zlogAuditLast = 256 // per-entry appends re-read by the audit
)

// zlogWL is the shared log: 1 MDS, 3 OSDs, replicas=3, 1 ms fabric
// delay, every client on one log under the round-trip sequencer
// policy. Client 0 appends entry by entry and re-reads its last entry
// every 8th op; every other client appends batches of 64.
type zlogWL struct {
	base
	seed int64
	logs []*zlog.Log
	next []uint64 // next payload index per client

	// The tail of what was appended, for the audit.
	single    []zlogEntry   // client 0's last appends
	lastBatch [][]zlogEntry // the last batch of each batching client
}

type zlogEntry struct{ pos, idx uint64 }

func (z *zlogWL) describe() string {
	return "1 MDS, 3 OSDs, replicas=3, MemBackend, fabric delay 1 ms nominal; one log, round-trip sequencer, 128 B entries, batches of 64"
}

func zlogAddr(c int) wire.Addr { return wire.Addr("client.bench." + strconv.Itoa(c)) }

func (z *zlogWL) setup(ctx context.Context, seed int64) error {
	z.seed = seed
	if err := z.boot(ctx, core.Options{
		MDSs: 1, OSDs: 3, Pools: []string{zlogPool}, Replicas: 3,
		NetLatency: fabricDelay, Seed: seed,
	}); err != nil {
		return err
	}
	z.logs = make([]*zlog.Log, nClients)
	z.next = make([]uint64, nClients)
	z.lastBatch = make([][]zlogEntry, nClients)
	for c := range z.logs {
		l, err := zlog.Open(ctx, z.cluster.Net, zlogAddr(c), z.cluster.MonIDs(), zlog.Options{
			Name: zlogName, Pool: zlogPool, SeqPolicy: mds.CapPolicy{},
		})
		if err != nil {
			return fmt.Errorf("open log: %w", err)
		}
		z.logs[c] = l
	}
	return nil
}

func (z *zlogWL) close() {
	for _, l := range z.logs {
		if l != nil {
			l.Close()
		}
	}
	z.logs = nil
	z.base.close()
}

func (z *zlogWL) entry(c int, idx uint64) []byte {
	return payload(z.seed, uint64(c), idx, zlogEntrySize)
}

func (z *zlogWL) run(ctx context.Context, d time.Duration, w *window) {
	deadline := time.Now().Add(d)
	runClients(nClients, func(c int) {
		if c == 0 {
			z.runSingle(ctx, deadline, w)
		} else {
			z.runBatch(ctx, c, deadline, w)
		}
	})
}

func (z *zlogWL) runSingle(ctx context.Context, deadline time.Time, w *window) {
	l := z.logs[0]
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		if k%8 == 7 && len(z.single) > 0 {
			z.readBack(ctx, w, z.single[len(z.single)-1])
			continue
		}
		z.appendOne(ctx, l, w)
	}
}

func (z *zlogWL) appendOne(ctx context.Context, l *zlog.Log, w *window) {
	idx := z.next[0]
	z.next[0]++
	data := z.entry(0, idx)
	t0 := time.Now()
	pos, err := l.Append(ctx, data)
	w.done(0, "write", t0, time.Since(t0), err)
	if err == nil {
		if len(z.single) >= 2*zlogAuditLast {
			z.single = append(z.single[:0], z.single[zlogAuditLast:]...)
		}
		z.single = append(z.single, zlogEntry{pos, idx})
		w.add(0, "entries", 1)
	}
}

func (z *zlogWL) readBack(ctx context.Context, w *window, e zlogEntry) {
	t0 := time.Now()
	got, err := z.logs[0].Read(ctx, e.pos)
	d := time.Since(t0)
	if err == nil && !bytes.Equal(got, z.entry(0, e.idx)) {
		err = fmt.Errorf("position %d does not hold entry #%d", e.pos, e.idx)
	}
	w.done(0, "read", t0, d, err)
}

func (z *zlogWL) runBatch(ctx context.Context, c int, deadline time.Time, w *window) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		z.appendBatch(ctx, c, w)
	}
}

func (z *zlogWL) appendBatch(ctx context.Context, c int, w *window) {
	first := z.next[c]
	z.next[c] += zlogBatch
	batch := make([][]byte, zlogBatch)
	for i := range batch {
		batch[i] = z.entry(c, first+uint64(i))
	}
	t0 := time.Now()
	positions, err := z.logs[c].AppendBatch(ctx, batch)
	d := time.Since(t0)
	if err == nil && len(positions) != zlogBatch {
		err = fmt.Errorf("batch of %d got %d positions", zlogBatch, len(positions))
	}
	w.done(c, "call", t0, d, err)
	if err == nil {
		last := make([]zlogEntry, zlogBatch)
		for i, p := range positions {
			last[i] = zlogEntry{p, first + uint64(i)}
		}
		z.lastBatch[c] = last
		w.add(c, "batched", zlogBatch)
	}
}

func (z *zlogWL) endToEnd(w *window) map[string]float64 {
	wr := w.sorted("write")
	return map[string]float64{
		"ops_per_s":    float64(w.counter("entries")+w.counter("batched")) / w.seconds(),
		"write_p50_us": wr.us(50),
		"write_p95_us": wr.us(95),
		"read_p50_us":  w.sorted("read").us(50),
		"call_p50_us":  w.sorted("call").us(50),
	}
}

// audit re-reads the tail of what each client appended, through a
// different client's handle than the one that wrote it where it can.
func (z *zlogWL) audit(ctx context.Context, w *window, m map[string]float64) {
	verify := func(c int, e zlogEntry) {
		got, err := z.logs[(c+1)%nClients].Read(ctx, e.pos)
		if err == nil && !bytes.Equal(got, z.entry(c, e.idx)) {
			err = fmt.Errorf("audit: position %d does not hold client %d's entry #%d", e.pos, c, e.idx)
		}
		w.check(err)
	}
	tail := z.single
	if len(tail) > zlogAuditLast {
		tail = tail[len(tail)-zlogAuditLast:]
	}
	var maxPos uint64
	for _, e := range tail {
		verify(0, e)
		if e.pos > maxPos {
			maxPos = e.pos
		}
	}
	for c, batch := range z.lastBatch {
		for _, e := range batch {
			verify(c, e)
			if e.pos > maxPos {
				maxPos = e.pos
			}
		}
	}
	end, err := z.logs[0].Tail(ctx)
	if err == nil && end <= maxPos {
		err = fmt.Errorf("audit: log tail %d is not past written position %d", end, maxPos)
	}
	w.check(err)
	z.auditCluster(w, m)
}

func (z *zlogWL) endTraced(w *window, m map[string]float64) {
	z.base.endTraced(w, m)
	m["zlog.batch_entries_per_s"] = float64(w.counter("batched")) / w.seconds()
}

func (z *zlogWL) layers(ctx context.Context, budget time.Duration, tr *tracer, m map[string]float64) error {
	if err := runProbes(ctx, budget, tr, m, []probe{
		{"wire.oneway", z.probeOneway},
		{"mds.sequencer", z.probeSequencer},
		{"rados.call", z.probeClassCall},
		{"rados.replication", z.probeReplication},
		{"zlog.solo", z.probeSolo},
		{"script.vm", probeScript},
	}); err != nil {
		return err
	}
	if ow := m["wire.oneway_us"]; ow > 0 {
		m["zlog.hops_per_append"] = m["zlog.append_solo_p50_us"] / (2 * ow)
	}
	return nil
}

// probeSequencer times the sequencer alone on its own round-trip inode:
// one Next, and one NextN covering a batch.
func (z *zlogWL) probeSequencer(ctx context.Context, budget time.Duration, m map[string]float64) error {
	mc := z.logs[0].MDS()
	const path = "/bench/probe-seq"
	if err := mc.Open(ctx, path, mds.TypeSequencer, &mds.CapPolicy{}); err != nil {
		return err
	}
	s, err := timeLoop(ctx, budget/2, 20, func(int) error {
		_, err := mc.Next(ctx, path)
		return err
	})
	if err != nil {
		return err
	}
	m["mds.next_remote_p50_us"] = s.us(50)
	s, err = timeLoop(ctx, budget/2, 20, func(int) error {
		_, err := mc.NextN(ctx, path, zlogBatch)
		return err
	})
	m["mds.nextn64_p50_us"] = s.us(50)
	return err
}

// probeClassCall times the object half of an append alone: the ZLog
// write class called directly on the replicas=3 pool.
func (z *zlogWL) probeClassCall(ctx context.Context, budget time.Duration, m map[string]float64) error {
	rc := z.cluster.NewRadosClient("client.bench.probe")
	if err := rc.RefreshMap(ctx); err != nil {
		return err
	}
	epoch := strconv.FormatUint(z.logs[0].Epoch(), 10)
	s, err := timeLoop(ctx, budget, 20, func(i int) error {
		in := append([]byte(epoch+":"+strconv.Itoa(i)+":"), z.entry(1<<20, uint64(i))...)
		_, err := rc.Call(ctx, zlogPool, "probe.0", zlog.ClassName, "write", in)
		return err
	})
	m["rados.call_r3_p50_us"] = s.us(50)
	return err
}

func (z *zlogWL) probeReplication(ctx context.Context, budget time.Duration, m map[string]float64) error {
	rc := z.cluster.NewRadosClient("client.bench.probe")
	return replicationShare(ctx, z.cluster, rc, zlogPool, z.seed, budget, m)
}

// clientCalls is how many fabric calls client c's endpoints have made.
func (z *zlogWL) clientCalls(c int) uint64 {
	out := z.cluster.Net.Stats().Outbound
	self := zlogAddr(c)
	return out[self].Calls + out[self+".rados"].Calls + out[self+".mon"].Calls
}

// probeSolo runs each kind of client alone, so latencies carry no
// queueing behind the other client and calls per op are exact.
func (z *zlogWL) probeSolo(ctx context.Context, budget time.Duration, m map[string]float64) error {
	scratch := newWindow(nClients, nil)

	// One uncounted op of each kind first: an earlier probe moved the
	// map epoch, and the resync it costs belongs to no append.
	z.appendOne(ctx, z.logs[0], newWindow(nClients, nil))
	before := z.clientCalls(0)
	deadline := time.Now().Add(budget / 3)
	for n := 0; n < 20 || time.Now().Before(deadline); n++ {
		z.appendOne(ctx, z.logs[0], scratch)
	}
	appends := scratch.sorted("write")
	if len(appends) == 0 {
		_, _, err := scratch.totals()
		return err
	}
	m["zlog.append_solo_p50_us"] = appends.us(50)
	m["zlog.calls_per_append"] = float64(z.clientCalls(0)-before) / float64(len(appends))

	deadline = time.Now().Add(budget / 3)
	for i := len(z.single) - 1; i >= 0 && (scratch.count("read") < 20 || time.Now().Before(deadline)); i-- {
		z.readBack(ctx, scratch, z.single[i])
	}
	m["zlog.read_p50_us"] = scratch.sorted("read").us(50)

	if nClients > 1 {
		z.appendBatch(ctx, 1, newWindow(nClients, nil))
		before = z.clientCalls(1)
		deadline = time.Now().Add(budget / 3)
		for n := 0; n < 5 || time.Now().Before(deadline); n++ {
			z.appendBatch(ctx, 1, scratch)
		}
		if batches := scratch.count("call"); batches > 0 {
			m["zlog.calls_per_batch_entry"] = float64(z.clientCalls(1)-before) / float64(batches*zlogBatch)
		}
	}
	_, _, err := scratch.totals()
	return err
}
