package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/cdc"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/internal/zlog"
)

// Workloads run concurrently with the fault script. Each records what
// the cluster acknowledged — and only that — because the invariants are
// about acknowledged operations: an op that errored during a fault
// window may legitimately have landed or not, but an acked op must
// survive anything.

// radosWriter overwrites a fixed object set with monotonically
// increasing payloads.
type radosWriter struct {
	name    string
	rc      *rados.Client
	pool    string
	objects []string

	mu    sync.Mutex
	acked map[string]string // guarded by mu; object -> last acked payload
	// pending holds payloads attempted after the last ack whose fate is
	// unknown (the reply may have been lost after the write applied); the
	// durability check accepts any of them as the final state.
	pending map[string][]string // guarded by mu
	oks     int                 // guarded by mu
	errs    int                 // guarded by mu
}

func newRadosWriter(name string, rc *rados.Client, pool string, objects int) *radosWriter {
	w := &radosWriter{
		name:    name,
		rc:      rc,
		pool:    pool,
		acked:   make(map[string]string),
		pending: make(map[string][]string),
	}
	for i := 0; i < objects; i++ {
		w.objects = append(w.objects, fmt.Sprintf("%s-obj%d", name, i))
	}
	return w
}

// run writes until stopped, pacing lightly so faults land mid-stream.
func (w *radosWriter) run(ctx context.Context, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		obj := w.objects[i%len(w.objects)]
		payload := fmt.Sprintf("%s:%d", obj, i)
		cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		err := w.rc.WriteFull(cctx, w.pool, obj, []byte(payload))
		cancel()
		w.mu.Lock()
		if err == nil {
			w.acked[obj] = payload
			w.pending[obj] = nil
			w.oks++
		} else {
			w.pending[obj] = append(w.pending[obj], payload)
			w.errs++
		}
		w.mu.Unlock()
		pause(ctx, 2*time.Millisecond)
	}
}

// dedupWriter overwrites a fixed object set through the
// content-addressed dedup path. Each write is a sliding window over a
// duplicate-heavy corpus, so consecutive overwrites share most of their
// blocks (exercising the stat-then-skip fast path) while still swapping
// some in and out — every overwrite leaves blocks for the deferred GC
// to census and reclaim.
type dedupWriter struct {
	name    string
	rc      *rados.Client
	pool    string
	objects []string
	corpus  []byte
	cfg     *cdc.Config

	mu      sync.Mutex
	acked   map[string]string   // guarded by mu; object -> last acked payload
	pending map[string][]string // guarded by mu; attempts since last ack, fate unknown
	oks     int                 // guarded by mu
	errs    int                 // guarded by mu
}

func newDedupWriter(name string, rc *rados.Client, pool string, objects int, corpusSeed int64) *dedupWriter {
	w := &dedupWriter{
		name: name,
		rc:   rc,
		pool: pool,
		corpus: workload.GenerateDupCorpus(corpusSeed, workload.DupCorpusConfig{
			Size: 1 << 20, DupRatio: 0.5, SegmentSize: 64 << 10,
		}),
		// Small chunks so every ~48 KiB payload spans several blocks.
		cfg:     &cdc.Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2},
		acked:   make(map[string]string),
		pending: make(map[string][]string),
	}
	for i := 0; i < objects; i++ {
		w.objects = append(w.objects, fmt.Sprintf("%s-doc%d", name, i))
	}
	return w
}

func (w *dedupWriter) run(ctx context.Context, stop <-chan struct{}) {
	const window = 48 << 10
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		obj := w.objects[i%len(w.objects)]
		off := (i * 7919) % (len(w.corpus) - window)
		payload := w.corpus[off : off+window]
		cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		_, err := w.rc.WriteDeduped(cctx, w.pool, obj, payload, w.cfg)
		cancel()
		w.mu.Lock()
		if err == nil {
			w.acked[obj] = string(payload)
			w.pending[obj] = nil
			w.oks++
		} else {
			w.pending[obj] = append(w.pending[obj], string(payload))
			w.errs++
		}
		w.mu.Unlock()
		pause(ctx, 2*time.Millisecond)
	}
}

// appendRec is one acknowledged log append.
type appendRec struct {
	pos     uint64
	payload string
}

// readRec is one read of an acknowledged position, issued after its ack:
// what the read returned, against the acked payload.
type readRec struct {
	appendRec
	got string
	err error
}

// zlogAppender appends to a shared log until stopped, and between
// appends reads back one of its acknowledged positions at random. It
// records the history the ZLog model checks (checkZlogHistory): every
// acked append, the payload of every failed one, and every read-back.
type zlogAppender struct {
	name  string
	log   *zlog.Log
	rng   *rand.Rand // the run goroutine's alone
	batch int        // entries per AppendBatch; 0 appends one at a time

	mu     sync.Mutex
	acked  []appendRec // guarded by mu
	failed []string    // guarded by mu; payloads whose append returned an error
	reads  []readRec   // guarded by mu
}

func newZlogAppender(name string, l *zlog.Log) *zlogAppender {
	return &zlogAppender{name: name, log: l, rng: rand.New(rand.NewSource(int64(len(name))))}
}

func (a *zlogAppender) run(ctx context.Context, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		payloads := []string{a.name + ":" + strconv.Itoa(i)}
		for j := 1; j < a.batch; j++ {
			payloads = append(payloads, payloads[0]+"."+strconv.Itoa(j))
		}
		positions, err := a.append(ctx, payloads)
		a.mu.Lock()
		if err == nil {
			for j, payload := range payloads {
				a.acked = append(a.acked, appendRec{pos: positions[j], payload: payload})
			}
		} else {
			a.failed = append(a.failed, payloads...)
		}
		n := len(a.acked)
		var back appendRec
		if n > 0 {
			back = a.acked[a.rng.Intn(n)]
		}
		a.mu.Unlock()
		if n > 0 {
			a.readBack(ctx, back)
		}
		pause(ctx, 2*time.Millisecond)
	}
}

// append appends payloads, as one AppendBatch when a.batch is set.
func (a *zlogAppender) append(ctx context.Context, payloads []string) ([]uint64, error) {
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if a.batch == 0 {
		pos, err := a.log.Append(cctx, []byte(payloads[0]))
		return []uint64{pos}, err
	}
	entries := make([][]byte, len(payloads))
	for j, payload := range payloads {
		entries[j] = []byte(payload)
	}
	return a.log.AppendBatch(cctx, entries)
}

// readBack reads the acknowledged append rec and records what it saw.
func (a *zlogAppender) readBack(ctx context.Context, rec appendRec) {
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	got, err := a.log.Read(cctx, rec.pos)
	cancel()
	a.mu.Lock()
	a.reads = append(a.reads, readRec{appendRec: rec, got: string(got), err: err})
	a.mu.Unlock()
}

// metaWriter commits service-metadata keys through the monitor quorum.
type metaWriter struct {
	name string
	monc *mon.Client

	mu    sync.Mutex
	acked map[string]string // guarded by mu; key -> acked value
	errs  int               // guarded by mu
}

func newMetaWriter(name string, monc *mon.Client) *metaWriter {
	return &metaWriter{name: name, monc: monc, acked: make(map[string]string)}
}

func (w *metaWriter) run(ctx context.Context, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		key := fmt.Sprintf("chaos.%s.%d", w.name, i)
		val := strconv.Itoa(i)
		cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		err := w.monc.SetService(cctx, types.MapOSD, key, val)
		cancel()
		w.mu.Lock()
		if err == nil {
			w.acked[key] = val
		} else {
			w.errs++
		}
		w.mu.Unlock()
		pause(ctx, 5*time.Millisecond)
	}
}
