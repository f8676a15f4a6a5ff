package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark reports. The two lists
// below are the code's side of BENCHMARK.json: every untraced run
// emits every endToEnd metric and every traced run emits every
// perLayer metric (0 where the layer does no work on that workload),
// and TestManifestMatchesRegistry keeps the two files in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are role-based so that every workload has a real
// value for each (the driver wants every metric from every run):
// "write" is the workload's mutating op, "read" its verified read,
// "call" its compound op. README.md holds the per-workload mapping.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "write_p95_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "call_p50_us", Unit: "us", Better: lower, Bound: 0.25},
}

var perLayer = []metricDef{
	// wire: the in-process fabric.
	{Name: "wire.oneway_us", Unit: "us", Better: lower},
	{Name: "wire.calls_per_op", Unit: "count", Better: lower},
	{Name: "wire.sends_per_op", Unit: "count", Better: lower},
	{Name: "wire.max_inflight_osd", Unit: "count", Better: higher},
	{Name: "wire.drops", Unit: "count", Better: lower},
	{Name: "wire.refused", Unit: "count", Better: lower},
	// rados: op path, replication, dedup data path, recovery.
	{Name: "rados.stat_p50_us", Unit: "us", Better: lower},
	{Name: "rados.write_r1_p50_us", Unit: "us", Better: lower},
	{Name: "rados.write_r3_p50_us", Unit: "us", Better: lower},
	{Name: "rados.repl_share", Unit: "ratio", Better: lower},
	{Name: "rados.call_r3_p50_us", Unit: "us", Better: lower},
	{Name: "rados.allocs_per_write", Unit: "count", Better: lower},
	{Name: "rados.allocs_per_read", Unit: "count", Better: lower},
	{Name: "rados.allocs_per_call", Unit: "count", Better: lower},
	{Name: "rados.alloc_bytes_per_write", Unit: "B", Better: lower},
	{Name: "rados.scrub_repairs", Unit: "count", Better: lower},
	{Name: "rados.flat_write_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rados.dedup_write_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rados.dedup_read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rados.dedup_rewrite_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rados.stored_bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "rados.dedup_blocks_per_mb", Unit: "count", Better: lower},
	{Name: "rados.new_blocks_per_pass", Unit: "count", Better: lower},
	{Name: "rados.manifest_bytes_per_mb", Unit: "B", Better: lower},
	{Name: "rados.wire_bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "rados.gc_sweep_ms_per_pass", Unit: "ms", Better: lower},
	{Name: "rados.gc_reclaimed_per_pass", Unit: "count", Better: higher},
	{Name: "rados.replay_s", Unit: "s", Better: lower},
	{Name: "rados.replay_records", Unit: "count", Better: lower},
	{Name: "rados.replay_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rados.acked_lost", Unit: "count", Better: lower},
	// wal: journal and group commit.
	{Name: "wal.fsync_p50_us", Unit: "us", Better: lower},
	{Name: "wal.fsync_conc_p50_us", Unit: "us", Better: lower},
	{Name: "wal.record_us", Unit: "us", Better: lower},
	{Name: "wal.commit_us", Unit: "us", Better: lower},
	{Name: "wal.syncs_per_write", Unit: "count", Better: lower},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lower},
	// script: the class VM.
	{Name: "script.compile_us", Unit: "us", Better: lower},
	{Name: "script.vm_call_us", Unit: "us", Better: lower},
	// cdc: chunking and hashing.
	{Name: "cdc.split_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "cdc.sha256_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "cdc.chunks_per_mb", Unit: "count", Better: lower},
	// mds: sequencer and capabilities.
	{Name: "mds.next_remote_p50_us", Unit: "us", Better: lower},
	{Name: "mds.next_local_ns", Unit: "ns", Better: lower},
	{Name: "mds.nextn64_p50_us", Unit: "us", Better: lower},
	{Name: "mds.local_ratio", Unit: "ratio", Better: higher},
	{Name: "mds.handoffs_per_s", Unit: "1/s", Better: higher},
	// mon/paxos: map commits and propagation.
	{Name: "paxos.commit_1mon_p50_ms", Unit: "ms", Better: lower},
	{Name: "mon.getmap_p50_us", Unit: "us", Better: lower},
	{Name: "mon.commits_per_s", Unit: "1/s", Better: higher},
	{Name: "mon.propagate_p50_ms", Unit: "ms", Better: lower},
	// zlog: the shared log.
	{Name: "zlog.read_p50_us", Unit: "us", Better: lower},
	{Name: "zlog.append_solo_p50_us", Unit: "us", Better: lower},
	{Name: "zlog.calls_per_append", Unit: "count", Better: lower},
	{Name: "zlog.calls_per_batch_entry", Unit: "count", Better: lower},
	{Name: "zlog.hops_per_append", Unit: "count", Better: lower},
	{Name: "zlog.batch_entries_per_s", Unit: "1/s", Better: higher},
	// core/process.
	{Name: "core.boot_s", Unit: "s", Better: lower},
	{Name: "core.rebuild_osd_s", Unit: "s", Better: lower},
	{Name: "proc.cpu_s_per_kop", Unit: "s", Better: lower},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.speed_factor", Unit: "ratio", Better: higher},
	{Name: "proc.cpu_util", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one line of a result-set file (-out): the result plus
// what produced it, so -check can group runs by workload.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
	// Raw is the end-to-end metrics as measured, before scaling to
	// nominal machine speed; -check does not read it.
	Raw map[string]float64 `json:"raw,omitempty"`
}

// buildResult fills every metric of defs from vals; a metric a
// workload does not produce reads 0, which only per-layer metrics may.
func buildResult(defs []metricDef, vals map[string]float64, attempted, failed int64, correct bool) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite", d.Name)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if !known[name] {
			return r, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return r, nil
}

func (r result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}

// samples is a set of per-operation durations.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule; 0 when there are none.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func (s samples) us(p float64) float64 {
	return float64(s.percentile(p)) / float64(time.Microsecond)
}

// tailPercentiles are the candidates for "the highest percentile that
// still has at least ten samples beyond it"; beyond is the share of
// samples above each, as one in so many.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// highestPercentile picks that percentile for n samples; 50 when even
// p75 has fewer than ten samples above it.
func highestPercentile(n int) float64 {
	for _, t := range tailPercentiles {
		if n >= 10*t.beyond {
			return t.p
		}
	}
	return 50
}

// median of a non-empty slice of floats.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
