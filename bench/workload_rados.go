package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/script"
	"repro/internal/wal"
)

const (
	radosObjects   = 1024 // per client
	radosWriteSize = 4 << 10
	radosPool      = "data"
)

// touchClass is the omap read-modify-write class of
// BenchmarkFig2ScriptClassCall: it returns the new counter, which lets
// every call be checked against the count the client keeps.
const touchClass = `
function touch(cls)
	local v = tonumber(cls.omap_get("n")) or 0
	cls.omap_set("n", tostring(v + 1))
	return tostring(v + 1)
end
`

// radosWL is rados-mem and rados-wal: 3 OSDs, replicas=3, no fabric
// delay; each client mixes 50% WriteFull 4 KiB, 30% Read and 20%
// script-class Call over its own pre-created objects, uniform keys.
// With wal set every OSD journals to an fsynced write-ahead log, and
// the audit crashes one, rebuilds it from its journal and reads every
// acknowledged write back.
type radosWL struct {
	base
	wal  bool
	seed int64

	walRoot string
	bmu     sync.Mutex
	// opened is every journal backend the OSDs were given, the crashed
	// one's included: its sync count just stops moving.
	opened []*rados.WALBackend // guarded by bmu

	clients []*radosClient

	snapSyncs   uint64
	snapJournal int64
}

type radosClient struct {
	rc       *rados.Client
	rng      *rand.Rand
	names    []string
	writeIdx []uint64 // index of the last acknowledged write per object
	touched  []uint64 // acknowledged touch calls per object
	scratch  []byte
}

func (r *radosWL) describe() string {
	if r.wal {
		return "3 OSDs, replicas=3, WALBackend (default options: fsync on every commit, group commit, no checkpoints), delay 0"
	}
	return "3 OSDs, replicas=3, MemBackend, delay 0"
}

func (r *radosWL) setup(ctx context.Context, seed int64) error {
	r.seed = seed
	opts := core.Options{OSDs: 3, Pools: []string{radosPool}, Replicas: 3, Seed: seed}
	if r.wal {
		root, err := os.MkdirTemp("", "malabench-wal-")
		if err != nil {
			return err
		}
		r.walRoot = root
		opts.OSDBackend = func(id int) (rados.Backend, error) {
			be, err := rados.OpenWALBackend(filepath.Join(root, "osd."+strconv.Itoa(id)), rados.WALBackendOptions{})
			if err != nil {
				return nil, err
			}
			r.bmu.Lock()
			r.opened = append(r.opened, be)
			r.bmu.Unlock()
			return be, nil
		}
	}
	if err := r.boot(ctx, opts); err != nil {
		return err
	}
	if err := r.cluster.NewMonClient("client.bench.mon").InstallClass(ctx, "bench", touchClass, "other"); err != nil {
		return fmt.Errorf("install class: %w", err)
	}
	r.clients = make([]*radosClient, nClients)
	errs := make([]error, nClients)
	runClients(nClients, func(c int) {
		cl := &radosClient{
			rc:       r.cluster.NewRadosClient("client.bench." + strconv.Itoa(c)),
			rng:      rand.New(rand.NewSource(seed*1000 + int64(c))),
			names:    make([]string, radosObjects),
			writeIdx: make([]uint64, radosObjects),
			touched:  make([]uint64, radosObjects),
			scratch:  make([]byte, radosWriteSize),
		}
		r.clients[c] = cl
		if errs[c] = cl.rc.RefreshMap(ctx); errs[c] != nil {
			return
		}
		for o := range cl.names {
			cl.names[o] = fmt.Sprintf("c%d-o%04d", c, o)
			if errs[c] = cl.rc.WriteFull(ctx, radosPool, cl.names[o], payload(seed, objectID(c, o), 0, radosWriteSize)); errs[c] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pre-create: %w", err)
		}
	}
	return nil
}

func objectID(client, object int) uint64 { return uint64(client)<<32 | uint64(object) }

func (r *radosWL) run(ctx context.Context, d time.Duration, w *window) {
	deadline := time.Now().Add(d)
	runClients(nClients, func(c int) {
		cl := r.clients[c]
		for time.Now().Before(deadline) && ctx.Err() == nil {
			o := cl.rng.Intn(radosObjects)
			switch p := cl.rng.Intn(100); {
			case p < 50:
				cl.write(ctx, r.seed, c, o, w)
			case p < 80:
				cl.read(ctx, r.seed, c, o, w)
			default:
				cl.touch(ctx, c, o, w)
			}
		}
	})
}

func (cl *radosClient) write(ctx context.Context, seed int64, c, o int, w *window) {
	idx := cl.writeIdx[o] + 1
	data := payload(seed, objectID(c, o), idx, radosWriteSize)
	t0 := time.Now()
	err := cl.rc.WriteFull(ctx, radosPool, cl.names[o], data)
	d := time.Since(t0)
	if err == nil {
		cl.writeIdx[o] = idx
	}
	w.done(c, "write", t0, d, err)
}

func (cl *radosClient) read(ctx context.Context, seed int64, c, o int, w *window) {
	t0 := time.Now()
	got, err := cl.rc.Read(ctx, radosPool, cl.names[o])
	d := time.Since(t0)
	if err == nil {
		err = cl.verify(seed, c, o, got)
	}
	w.done(c, "read", t0, d, err)
}

// verify checks got against the last acknowledged write of object o.
func (cl *radosClient) verify(seed int64, c, o int, got []byte) error {
	fillPayload(cl.scratch, seed, objectID(c, o), cl.writeIdx[o])
	if !bytes.Equal(got, cl.scratch) {
		return fmt.Errorf("%s: content is not write #%d", cl.names[o], cl.writeIdx[o])
	}
	return nil
}

func (cl *radosClient) touch(ctx context.Context, c, o int, w *window) {
	t0 := time.Now()
	out, err := cl.rc.Call(ctx, radosPool, cl.names[o], "bench", "touch", nil)
	d := time.Since(t0)
	if err == nil {
		cl.touched[o]++
		if want := strconv.FormatUint(cl.touched[o], 10); string(out) != want {
			err = fmt.Errorf("%s: touch returned %q, want %s", cl.names[o], out, want)
		}
	}
	w.done(c, "call", t0, d, err)
}

func (r *radosWL) endToEnd(w *window) map[string]float64 {
	attempted, failed, _ := w.totals()
	wr := w.sorted("write")
	return map[string]float64{
		"ops_per_s":    float64(attempted-failed) / w.seconds(),
		"write_p50_us": wr.us(50),
		"write_p95_us": wr.us(95),
		"read_p50_us":  w.sorted("read").us(50),
		"call_p50_us":  w.sorted("call").us(50),
	}
}

// audit reads every object back and compares it with the last
// acknowledged write. On rados-wal it first kills one OSD the way
// kill -9 would and rebuilds it from its journal, so a write that was
// acknowledged before it was durable shows up as lost.
func (r *radosWL) audit(ctx context.Context, w *window, m map[string]float64) {
	if r.wal {
		r.crashAndRebuild(ctx, w, m)
	}
	lost := 0
	for c, cl := range r.clients {
		for o := range cl.names {
			got, err := cl.rc.Read(ctx, radosPool, cl.names[o])
			if err == nil {
				err = cl.verify(r.seed, c, o, got)
			}
			if err != nil {
				lost++
			}
			w.check(err)
		}
	}
	m["rados.acked_lost"] = float64(lost)
	r.auditCluster(w, m)
}

func (r *radosWL) crashAndRebuild(ctx context.Context, w *window, m map[string]float64) {
	victim := int(r.seed % int64(len(r.cluster.OSDs)))
	if victim < 0 {
		victim = -victim
	}
	r.cluster.OSDs[victim].Crash()

	// Time the journal replay alone, through the backend's public
	// Replay with a no-op apply, before the daemon replays it for real.
	dir := filepath.Join(r.walRoot, "osd."+strconv.Itoa(victim))
	if be, err := rados.OpenWALBackend(dir, rados.WALBackendOptions{}); err != nil {
		w.check(fmt.Errorf("reopen journal of osd.%d: %w", victim, err))
	} else {
		t0 := time.Now()
		st, err := be.Replay(func(rados.Mutation) {})
		took := time.Since(t0)
		w.check(err)
		m["rados.replay_s"] = took.Seconds()
		m["rados.replay_records"] = float64(st.CheckpointRecords + st.Records)
		m["rados.replay_mb_per_s"] = float64(dirBytes(dir)) / 1e6 / took.Seconds()
		w.check(be.Close())
	}

	t0 := time.Now()
	err := r.cluster.RebuildOSD(ctx, victim)
	m["core.rebuild_osd_s"] = time.Since(t0).Seconds()
	w.check(err)
}

// dirBytes is the total size of the files under dir; a file that
// vanishes mid-walk only makes the estimate smaller.
func dirBytes(dir string) int64 {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0
	}
	return n
}

func (r *radosWL) totalSyncs() uint64 {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	var n uint64
	for _, be := range r.opened {
		n += be.Syncs()
	}
	return n
}

func (r *radosWL) beginTraced() {
	r.base.beginTraced()
	if r.wal {
		r.snapSyncs = r.totalSyncs()
		r.snapJournal = dirBytes(r.walRoot)
	}
}

func (r *radosWL) endTraced(w *window, m map[string]float64) {
	r.base.endTraced(w, m)
	if !r.wal {
		return
	}
	writes, calls := w.count("write"), w.count("call")
	if writes+calls > 0 {
		m["wal.syncs_per_write"] = float64(r.totalSyncs()-r.snapSyncs) / float64(writes+calls)
	}
	if writes > 0 {
		m["wal.bytes_per_user_byte"] = float64(dirBytes(r.walRoot)-r.snapJournal) / float64(writes*radosWriteSize)
	}
}

func (r *radosWL) layers(ctx context.Context, budget time.Duration, tr *tracer, m map[string]float64) error {
	probes := []probe{
		{"wire.oneway", r.probeOneway},
		{"rados.stat", r.probeStat},
		{"rados.replication", r.probeReplication},
		{"rados.allocs", r.probeAllocs},
		{"script.vm", probeScript},
	}
	if r.wal {
		probes = append(probes, probe{"wal.log", r.probeWALLog}, probe{"wal.backend", r.probeWALBackend})
	}
	return runProbes(ctx, budget, tr, m, probes)
}

func (r *radosWL) probeStat(ctx context.Context, budget time.Duration, m map[string]float64) error {
	cl := r.clients[0]
	s, err := timeLoop(ctx, budget, 100, func(i int) error {
		_, _, err := cl.rc.Stat(ctx, radosPool, cl.names[i%radosObjects])
		return err
	})
	m["rados.stat_p50_us"] = s.us(50)
	return err
}

// probeReplication writes the same 4 KiB to a replicas=1 pool and to
// the workload's replicas=3 pool from one client: the difference is
// what replication (fan-out, and on rados-wal two more fsyncs) costs.
func (r *radosWL) probeReplication(ctx context.Context, budget time.Duration, m map[string]float64) error {
	return replicationShare(ctx, r.cluster, r.clients[0].rc, radosPool, r.seed, budget, m)
}

func replicationShare(ctx context.Context, c *core.Cluster, rc *rados.Client, pool3 string, seed int64, budget time.Duration, m map[string]float64) error {
	if err := c.NewMonClient("client.bench.probe.mon").CreatePool(ctx, "r1", 8, 1); err != nil {
		return fmt.Errorf("create r1 pool: %w", err)
	}
	if err := rc.RefreshMap(ctx); err != nil {
		return err
	}
	write := func(pool string) (float64, error) {
		s, err := timeLoop(ctx, budget/2, 50, func(i int) error {
			return rc.WriteFull(ctx, pool, "probe-repl", payload(seed, 1<<40, uint64(i), radosWriteSize))
		})
		return s.us(50), err
	}
	r1, err := write("r1")
	if err != nil {
		return err
	}
	r3, err := write(pool3)
	if err != nil {
		return err
	}
	m["rados.write_r1_p50_us"] = r1
	m["rados.write_r3_p50_us"] = r3
	if r3 > 0 {
		m["rados.repl_share"] = 1 - r1/r3
	}
	return nil
}

func (r *radosWL) probeAllocs(ctx context.Context, _ time.Duration, m map[string]float64) error {
	cl := r.clients[0]
	// A fixed count, not a time budget: allocations per op do not depend
	// on how many are counted, and a journaled op is 40 times slower.
	n := 2000
	if r.wal {
		n = 200
	}
	data := make([][]byte, n)
	for i := range data {
		data[i] = payload(r.seed, 2<<40, uint64(i), radosWriteSize)
	}
	var err error
	m["rados.allocs_per_write"], m["rados.alloc_bytes_per_write"], err = allocsPer(n, func(i int) error {
		return cl.rc.WriteFull(ctx, radosPool, "probe-alloc", data[i])
	})
	if err != nil {
		return err
	}
	m["rados.allocs_per_read"], _, err = allocsPer(n, func(int) error {
		_, err := cl.rc.Read(ctx, radosPool, "probe-alloc")
		return err
	})
	if err != nil {
		return err
	}
	m["rados.allocs_per_call"], _, err = allocsPer(n, func(int) error {
		_, err := cl.rc.Call(ctx, radosPool, "probe-alloc", "bench", "touch", nil)
		return err
	})
	return err
}

// probeScript times the class VM alone: compiling the touch class, and
// running its body against a stub cls table backed by a Go map.
func probeScript(ctx context.Context, budget time.Duration, m map[string]float64) error {
	s, err := timeLoop(ctx, budget/2, 20, func(int) error {
		_, err := script.Compile(touchClass)
		return err
	})
	if err != nil {
		return err
	}
	m["script.compile_us"] = s.us(50)

	chunk, err := script.Compile(touchClass)
	if err != nil {
		return err
	}
	ip := script.New()
	omap := map[string]string{}
	cls := script.NewTable()
	if err := cls.Set("omap_get", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if v, ok := omap[script.ToString(args[0])]; ok {
			return []script.Value{v}, nil
		}
		return []script.Value{nil}, nil
	})); err != nil {
		return err
	}
	if err := cls.Set("omap_set", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		omap[script.ToString(args[0])] = script.ToString(args[1])
		return nil, nil
	})); err != nil {
		return err
	}
	// One sample is 100 calls shaped like the OSD's: re-run the chunk's
	// top level, look the method up, call it.
	const batch = 100
	s, err = timeLoop(ctx, budget/2, 20, func(int) error {
		for i := 0; i < batch; i++ {
			if _, err := chunk.Run(ip); err != nil {
				return err
			}
			if _, err := ip.Call(ip.Global("touch"), cls); err != nil {
				return err
			}
		}
		return nil
	})
	m["script.vm_call_us"] = s.us(50) / batch
	return err
}

// probeWALLog times the journal alone: append 4 KiB and fsync, from
// one caller and from one caller per client (group commit).
func (r *radosWL) probeWALLog(ctx context.Context, budget time.Duration, m map[string]float64) error {
	dir, err := os.MkdirTemp(r.walRoot, "probe-log-")
	if err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close() //nolint:errcheck // probe journal, removed with walRoot
	rec := payload(r.seed, 3<<40, 0, radosWriteSize)
	appendSync := func(int) error {
		if _, err := l.Append(rec); err != nil {
			return err
		}
		return l.Sync()
	}
	s, err := timeLoop(ctx, budget/2, 20, appendSync)
	if err != nil {
		return err
	}
	m["wal.fsync_p50_us"] = s.us(50)

	parts := make([]samples, nClients)
	errs := make([]error, nClients)
	runClients(nClients, func(c int) {
		parts[c], errs[c] = timeLoop(ctx, budget/2, 20, appendSync)
	})
	var all samples
	for c := range parts {
		if errs[c] != nil {
			return errs[c]
		}
		all = append(all, parts[c]...)
	}
	m["wal.fsync_conc_p50_us"] = all.sorted().us(50)
	return nil
}

// probeWALBackend times Record and Commit of the workload's mutation
// (a 4 KiB full-object write) directly on a WALBackend.
func (r *radosWL) probeWALBackend(ctx context.Context, budget time.Duration, m map[string]float64) error {
	dir, err := os.MkdirTemp(r.walRoot, "probe-backend-")
	if err != nil {
		return err
	}
	be, err := rados.OpenWALBackend(dir, rados.WALBackendOptions{})
	if err != nil {
		return err
	}
	defer be.Close() //nolint:errcheck // probe journal, removed with walRoot
	data := payload(r.seed, 4<<40, 0, radosWriteSize)
	var record, commit samples
	deadline := time.Now().Add(budget)
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		be.Record(rados.Mutation{Kind: rados.RecData, Pool: radosPool, Object: "probe", Version: uint64(i + 1), Data: data})
		t1 := time.Now()
		if err := be.Commit(); err != nil {
			return err
		}
		record = append(record, t1.Sub(t0))
		commit = append(commit, time.Since(t1))
	}
	m["wal.record_us"] = record.sorted().us(50)
	m["wal.commit_us"] = commit.sorted().us(50)
	return nil
}

func (r *radosWL) close() {
	r.base.close()
	r.bmu.Lock()
	for _, be := range r.opened {
		be.Close() //nolint:errcheck // an abandoned (crashed) backend reports closed; nothing to act on
	}
	r.opened = nil
	r.bmu.Unlock()
	if r.walRoot != "" {
		os.RemoveAll(r.walRoot) //nolint:errcheck // best-effort temp cleanup
		r.walRoot = ""
	}
}
