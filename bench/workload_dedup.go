package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/workload"
)

const (
	dedupCorpusSize = 16 << 20
	dedupWindow     = 256 << 10
	dedupWindows    = dedupCorpusSize / dedupWindow
	dedupPool       = "data"
	mb              = 1e6
)

// dedupWL is the content-addressed data path: 2 OSDs, replicas=1, no
// fabric delay, background GC off. A pass writes the 16 MiB, 50%
// duplicate corpus as 256 KiB deduplicated objects (clients take
// alternate windows), reads every object back and compares it, writes
// the same content again under second names (all duplicate: the hit
// path), then removes everything and sweeps the store empty, so every
// pass starts cold.
type dedupWL struct {
	base
	seed   int64
	corpus []byte
	// cfgs holds one chunking config per client: cdc.Split normalizes the
	// config it is handed in place, so sharing one across goroutines races.
	cfgs    []*cdc.Config
	clients []*rados.Client
	names   []string

	// first is what a single-client first pass moved: with one writer
	// the counts are exact, so the stored ratio repeats run to run.
	first     rados.DedupStats
	firstDone bool
	// stats accumulates the DedupStats of cold writes, one slot per
	// client; beginTraced zeroes it.
	stats []rados.DedupStats
}

func (d *dedupWL) describe() string {
	return "2 OSDs, replicas=1, MemBackend, delay 0, GC timers off; 16 MiB corpus, 50% duplicate, 256 KiB objects, chunks 1K/4K/16K"
}

func (d *dedupWL) setup(ctx context.Context, seed int64) error {
	d.seed = seed
	if err := d.boot(ctx, core.Options{
		OSDs: 2, Pools: []string{dedupPool}, Replicas: 1, Seed: seed,
		OSD: rados.OSDConfig{GCInterval: time.Hour, GCGrace: time.Hour},
	}); err != nil {
		return err
	}
	d.corpus = workload.GenerateDupCorpus(seed, workload.DupCorpusConfig{
		Size: dedupCorpusSize, DupRatio: 0.5, SegmentSize: 128 << 10,
	})
	d.names = make([]string, dedupWindows)
	for i := range d.names {
		d.names[i] = "doc" + strconv.Itoa(i)
	}
	d.stats = make([]rados.DedupStats, nClients)
	d.clients = make([]*rados.Client, nClients)
	d.cfgs = make([]*cdc.Config, nClients)
	for c := range d.clients {
		d.cfgs[c] = &cdc.Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2}
		d.clients[c] = d.cluster.NewRadosClient("client.bench." + strconv.Itoa(c))
		if err := d.clients[c].RefreshMap(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (d *dedupWL) window(i int) []byte { return d.corpus[i*dedupWindow : (i+1)*dedupWindow] }

func (d *dedupWL) run(ctx context.Context, dur time.Duration, w *window) {
	if !d.firstDone {
		// The warm-up's first pass, from one client.
		d.pass(ctx, w, 1)
		d.first, d.firstDone = d.stats[0], true
		d.stats[0] = rados.DedupStats{}
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		d.pass(ctx, w, nClients)
	}
}

// pass is write all, read all back, write all again as copies, remove
// all and sweep, with clients working on alternate windows.
func (d *dedupWL) pass(ctx context.Context, w *window, clients int) {
	t0 := time.Now()
	d.writeAll(ctx, w, clients, "write", "")
	wrote := time.Since(t0)

	t1 := time.Now()
	runClients(clients, func(c int) {
		for i := c; i < dedupWindows; i += clients {
			t0 := time.Now()
			got, err := d.clients[c].ReadDeduped(ctx, dedupPool, d.names[i])
			took := time.Since(t0)
			if err == nil && !bytes.Equal(got, d.window(i)) {
				err = fmt.Errorf("%s: content differs from what was written", d.names[i])
			}
			w.done(c, "read", t0, took, err)
		}
	})
	read := time.Since(t1)

	t2 := time.Now()
	d.writeAll(ctx, w, clients, "call", "copy-")
	rewrote := time.Since(t2)

	d.removeAll(ctx, w, clients, "copy-")
	d.removeAll(ctx, w, clients, "")
	t3 := time.Now()
	reclaimed := d.sweep()
	w.note("write_s", wrote.Seconds())
	w.note("read_s", read.Seconds())
	w.note("rewrite_s", rewrote.Seconds())
	w.note("sweep_ms", float64(time.Since(t3))/float64(time.Millisecond))
	w.note("reclaimed", float64(reclaimed))
}

// writeAll stores every window under prefix+name. Under kind "write"
// the store is cold and what was moved is accumulated; under "call"
// the content is already there, so storing any new block is an error.
func (d *dedupWL) writeAll(ctx context.Context, w *window, clients int, kind, prefix string) {
	runClients(clients, func(c int) {
		for i := c; i < dedupWindows; i += clients {
			t0 := time.Now()
			st, err := d.clients[c].WriteDeduped(ctx, dedupPool, prefix+d.names[i], d.window(i), d.cfgs[c])
			took := time.Since(t0)
			switch {
			case err != nil:
			case kind == "call":
				if st.NewBlocks != 0 {
					err = fmt.Errorf("%s%s: duplicate content stored %d new blocks", prefix, d.names[i], st.NewBlocks)
				}
			default:
				acc := &d.stats[c]
				acc.TotalBytes += st.TotalBytes
				acc.UniqueBlocks += st.UniqueBlocks
				acc.NewBlocks += st.NewBlocks
				acc.ManifestLen += st.ManifestLen
				acc.WireBytes += st.WireBytes
				acc.StoredBytes += st.StoredBytes
			}
			w.done(c, kind, t0, took, err)
		}
	})
}

// removeAll removes every object stored under prefix.
func (d *dedupWL) removeAll(ctx context.Context, w *window, clients int, prefix string) {
	runClients(clients, func(c int) {
		for i := c; i < dedupWindows; i += clients {
			t0 := time.Now()
			err := d.clients[c].Remove(ctx, dedupPool, prefix+d.names[i])
			w.done(c, "remove", t0, time.Since(t0), err)
		}
	})
}

// sweep drives GC until no deltas are queued and nothing is left to
// reclaim, and returns how many blocks it reclaimed.
func (d *dedupWL) sweep() int {
	total := 0
	for {
		work := 0
		for _, o := range d.cluster.OSDs {
			delivered, reclaimed := o.SweepBlocks(0)
			work += delivered + reclaimed + o.QueuedRefDeltas()
			total += reclaimed
		}
		if work == 0 {
			return total
		}
	}
}

func (d *dedupWL) endToEnd(w *window) map[string]float64 {
	wr := w.sorted("write")
	// Removes and the sweep are not counted: they are timed as a layer.
	busy := w.seriesSum("write_s") + w.seriesSum("read_s") + w.seriesSum("rewrite_s")
	ops := 0.0
	if busy > 0 {
		ops = float64(len(wr)+w.count("read")+w.count("call")) / busy
	}
	return map[string]float64{
		"ops_per_s":    ops,
		"write_p50_us": wr.us(50),
		"write_p95_us": wr.us(95),
		"read_p50_us":  w.sorted("read").us(50),
		"call_p50_us":  w.sorted("call").us(50),
	}
}

// audit: every pass ends swept, so no block may remain and the
// manifest/block cross-check must be clean.
func (d *dedupWL) audit(_ context.Context, w *window, m map[string]float64) {
	for _, o := range d.cluster.OSDs {
		var err error
		if blocks, _ := o.DedupBlockCount(dedupPool); blocks != 0 {
			err = fmt.Errorf("%s still holds %d blocks after the sweep", o.Addr(), blocks)
		}
		w.check(err)
	}
	var err error
	if a := rados.AuditDedup(d.cluster.OSDs, dedupPool); len(a.Leaked)+len(a.Dangling) != 0 {
		err = fmt.Errorf("dedup audit: %d leaked, %d dangling", len(a.Leaked), len(a.Dangling))
	}
	w.check(err)
	d.auditCluster(w, m)
}

func (d *dedupWL) beginTraced() {
	d.base.beginTraced()
	d.stats = make([]rados.DedupStats, nClients)
}

func (d *dedupWL) endTraced(w *window, m map[string]float64) {
	d.base.endTraced(w, m)
	var all rados.DedupStats
	for _, st := range d.stats {
		all.TotalBytes += st.TotalBytes
		all.UniqueBlocks += st.UniqueBlocks
		all.NewBlocks += st.NewBlocks
		all.ManifestLen += st.ManifestLen
		all.WireBytes += st.WireBytes
	}
	passes := float64(len(w.series["write_s"]))
	if all.TotalBytes == 0 || passes == 0 {
		return
	}
	userMB := float64(all.TotalBytes) / mb
	m["rados.dedup_blocks_per_mb"] = float64(all.UniqueBlocks) / userMB
	m["rados.new_blocks_per_pass"] = float64(all.NewBlocks) / passes
	m["rados.manifest_bytes_per_mb"] = float64(all.ManifestLen) / userMB
	m["rados.wire_bytes_per_user_byte"] = float64(all.WireBytes) / float64(all.TotalBytes)
	m["rados.stored_bytes_per_user_byte"] = float64(d.first.StoredBytes) / float64(d.first.TotalBytes)
	m["rados.gc_sweep_ms_per_pass"] = w.seriesMedian("sweep_ms")
	m["rados.gc_reclaimed_per_pass"] = w.seriesMedian("reclaimed")
	m["rados.dedup_write_mb_per_s"] = dedupCorpusSize / mb / w.seriesMedian("write_s")
	m["rados.dedup_read_mb_per_s"] = dedupCorpusSize / mb / w.seriesMedian("read_s")
	m["rados.dedup_rewrite_mb_per_s"] = dedupCorpusSize / mb / w.seriesMedian("rewrite_s")
}

func (d *dedupWL) layers(ctx context.Context, budget time.Duration, tr *tracer, m map[string]float64) error {
	return runProbes(ctx, budget, tr, m, []probe{
		{"cdc", d.probeCDC},
		{"rados.flat", d.probeFlat},
	})
}

// probeCDC times chunking and per-chunk hashing alone, the way the
// write path runs them: one window at a time on one core.
func (d *dedupWL) probeCDC(ctx context.Context, budget time.Duration, m map[string]float64) error {
	chunks := make([][]cdc.Chunk, dedupWindows)
	total := 0
	split, err := timeLoop(ctx, budget/2, 1, func(int) error {
		total = 0
		for i := range chunks {
			var err error
			if chunks[i], err = cdc.Split(d.window(i), d.cfgs[0]); err != nil {
				return err
			}
			total += len(chunks[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	var sink [sha256.Size]byte
	hash, err := timeLoop(ctx, budget/2, 1, func(int) error {
		for i := range chunks {
			win := d.window(i)
			for _, ch := range chunks[i] {
				sink = sha256.Sum256(win[ch.Off : ch.Off+ch.Len])
			}
		}
		return nil
	})
	_ = sink
	m["cdc.split_mb_per_s"] = dedupCorpusSize / mb / split.percentile(50).Seconds()
	m["cdc.sha256_mb_per_s"] = dedupCorpusSize / mb / hash.percentile(50).Seconds()
	m["cdc.chunks_per_mb"] = float64(total) / (dedupCorpusSize / mb)
	return err
}

// probeFlat stores the same windows with plain WriteFull: the data
// path's ceiling on this cluster.
func (d *dedupWL) probeFlat(ctx context.Context, budget time.Duration, m map[string]float64) error {
	s, err := timeLoop(ctx, budget, 1, func(int) error {
		errs := make([]error, nClients)
		runClients(nClients, func(c int) {
			for i := c; i < dedupWindows && errs[c] == nil; i += nClients {
				errs[c] = d.clients[c].WriteFull(ctx, dedupPool, "flat-"+d.names[i], d.window(i))
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["rados.flat_write_mb_per_s"] = dedupCorpusSize / mb / s.percentile(50).Seconds()
	for i := range d.names {
		if err := d.clients[0].Remove(ctx, dedupPool, "flat-"+d.names[i]); err != nil {
			return err
		}
	}
	return nil
}
