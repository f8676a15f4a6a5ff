package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nClients is the closed-loop client count: one goroutine per CPU the
// sandbox has, each waiting for its reply before sending the next op.
// Never fewer than two: zlog and control give two clients distinct roles.
var nClients = max(2, runtime.NumCPU())

// window accumulates what the closed-loop clients of one measured
// window observed. Each client owns one shard, so the hot path takes
// no lock; merge after the clients have stopped.
type window struct {
	shards []windowShard
	tr     *tracer // nil when tracing is off
	// speed is the machine's speed while the window ran; its wall time is
	// how long the clients were running.
	speed speed
	// series holds per-pass or per-phase numbers a workload's
	// coordinating goroutine records (never the concurrent clients).
	series map[string][]float64
}

type windowShard struct {
	lat       map[string]samples
	counts    map[string]int64
	attempted int64
	failed    int64
	firstErr  error
	_         [64]byte // keep shards off each other's cache lines
}

func newWindow(clients int, tr *tracer) *window {
	w := &window{shards: make([]windowShard, clients), tr: tr, series: make(map[string][]float64)}
	for i := range w.shards {
		w.shards[i].lat = make(map[string]samples)
		w.shards[i].counts = make(map[string]int64)
	}
	return w
}

// done counts one client operation that started at t0 and took d, and
// records a span when tracing. err is non-nil for a failed, refused or
// wrong-content operation; those count as failed and contribute no
// latency sample. Content is verified after d is taken, so checking
// costs the measured system nothing.
func (w *window) done(client int, kind string, t0 time.Time, d time.Duration, err error) {
	w.count1(client, kind, d, err)
	if w.tr != nil {
		w.tr.record(client, kind, t0, d, 0)
	}
}

// doneParts is done for an op the benchmark itself composed of steps
// (name, duration, in order from t0): each step is also a latency
// sample of its own kind and, when tracing, a child span of the op.
func (w *window) doneParts(client int, kind string, t0 time.Time, err error, names []string, parts []time.Duration) {
	var d time.Duration
	for _, p := range parts {
		d += p
	}
	w.count1(client, kind, d, err)
	var parent uint64
	if w.tr != nil {
		parent = w.tr.record(client, kind, t0, d, 0)
	}
	start := t0
	for i, p := range parts {
		if err == nil {
			w.shards[client].lat[names[i]] = append(w.shards[client].lat[names[i]], p)
		}
		if w.tr != nil {
			w.tr.record(client, names[i], start, p, parent)
		}
		start = start.Add(p)
	}
}

func (w *window) count1(client int, kind string, d time.Duration, err error) {
	sh := &w.shards[client]
	sh.attempted++
	if err != nil {
		sh.failed++
		if sh.firstErr == nil {
			sh.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
	} else {
		sh.lat[kind] = append(sh.lat[kind], d)
	}
}

// check counts one audit step, a correctness check made outside a
// timed op: one attempted, and failed when err is non-nil.
func (w *window) check(err error) {
	sh := &w.shards[0]
	sh.attempted++
	if err != nil {
		sh.failed++
		if sh.firstErr == nil {
			sh.firstErr = err
		}
	}
}

// seconds is how long the window's clients ran.
func (w *window) seconds() float64 { return w.speed.wall }

// add bumps a client's named counter; counter sums it over clients.
func (w *window) add(client int, name string, n int64) { w.shards[client].counts[name] += n }

func (w *window) counter(name string) int64 {
	var n int64
	for i := range w.shards {
		n += w.shards[i].counts[name]
	}
	return n
}

// note appends v to the named series.
func (w *window) note(name string, v float64) { w.series[name] = append(w.series[name], v) }

// seriesMedian is the median of the named series, 0 when empty.
func (w *window) seriesMedian(name string) float64 {
	if len(w.series[name]) == 0 {
		return 0
	}
	return median(w.series[name])
}

// seriesSum is the sum of the named series.
func (w *window) seriesSum(name string) float64 {
	var t float64
	for _, v := range w.series[name] {
		t += v
	}
	return t
}

func (w *window) sorted(kind string) samples {
	var all samples
	for i := range w.shards {
		all = append(all, w.shards[i].lat[kind]...)
	}
	return all.sorted()
}

func (w *window) count(kind string) int {
	n := 0
	for i := range w.shards {
		n += len(w.shards[i].lat[kind])
	}
	return n
}

func (w *window) totals() (attempted, failed int64, firstErr error) {
	for i := range w.shards {
		attempted += w.shards[i].attempted
		failed += w.shards[i].failed
		if firstErr == nil {
			firstErr = w.shards[i].firstErr
		}
	}
	return attempted, failed, firstErr
}

// runClients runs fn once per client concurrently and waits for all.
func runClients(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// span is one traced interval: a call the benchmark made into a layer.
// Spans of one client operation share Op; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one buffer per client so recording
// takes no lock, and writes them out once at the end of the run.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	bufs   [][]span
	mu     sync.Mutex
	shared []span // guarded by mu; spans recorded off the client goroutines
}

func newTracer(clients int) *tracer {
	return &tracer{t0: time.Now(), bufs: make([][]span, clients)}
}

// record adds a root span (parent 0) or a child span for one client
// and returns its id. The op id of a root is its own id.
func (t *tracer) record(client int, name string, start time.Time, d time.Duration, parent uint64) uint64 {
	id := t.nextID.Add(1)
	op := parent
	if op == 0 {
		op = id
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d)}
	t.bufs[client] = append(t.bufs[client], s)
	return id
}

// phase times fn as a span outside the client loops (set-up, audits,
// layer probes). A nil tracer just runs fn.
func (t *tracer) phase(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	id := t.nextID.Add(1)
	s := span{ID: id, Op: id, Name: name, Start: int64(start.Sub(t.t0)), End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.shared = append(t.shared, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	n := len(t.shared)
	t.mu.Unlock()
	for _, b := range t.bufs {
		n += len(b)
	}
	return n
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	all := append([]span(nil), t.shared...)
	t.mu.Unlock()
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{all}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// payload fills a fresh n-byte buffer from (seed, object, index) with
// a splitmix64 stream, so any read can be verified by regenerating
// what was last written. A fresh buffer each time: the in-process
// cluster keeps the slice it is handed.
func payload(seed int64, object, index uint64, n int) []byte {
	buf := make([]byte, n)
	fillPayload(buf, seed, object, index)
	return buf
}

func fillPayload(buf []byte, seed int64, object, index uint64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ object*0xBF58476D1CE4E5B9 ^ index*0x94D049BB133111EB
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(buf[i:], z^(z>>31))
	}
	for ; i < len(buf); i++ {
		x += 0x9E3779B97F4A7C15
		buf[i] = byte(x >> 56)
	}
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is the process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeLoop calls fn repeatedly for about budget and returns the sorted
// per-call durations; at least minN calls are made.
func timeLoop(ctx context.Context, budget time.Duration, minN int, fn func(i int) error) (samples, error) {
	var out samples
	deadline := time.Now().Add(budget)
	for i := 0; i < minN || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out.sorted(), nil
}

// probe times calls into one layer for about its budget and adds the
// per-layer metrics it measured to m.
type probe struct {
	name string
	fn   func(ctx context.Context, budget time.Duration, m map[string]float64) error
}

// runProbes splits budget evenly over the probes and runs each as a
// traced phase.
func runProbes(ctx context.Context, budget time.Duration, tr *tracer, m map[string]float64, probes []probe) error {
	each := budget / time.Duration(len(probes))
	for _, p := range probes {
		var err error
		tr.phase("probe:"+p.name, func() { err = p.fn(ctx, each, m) })
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}
