package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkZLogAppendSerial 	     259	   4606603 ns/op
BenchmarkZLogAppendBatch-8  	   12315	     96857 ns/op
PASS
ok  	repro	4.267s
`

func TestParseAndSummarize(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	if results[0].Name != "ZLogAppendSerial" || results[0].Iters != 259 {
		t.Fatalf("first result = %+v", results[0])
	}
	if results[1].Name != "ZLogAppendBatch" || results[1].NsPerOp != 96857 {
		t.Fatalf("second result = %+v (suffix -8 must be stripped)", results[1])
	}
	wantOps := 1e9 / 96857.0
	if math.Abs(results[1].OpsPerSec-wantOps) > 1e-6 {
		t.Fatalf("ops/sec = %f, want %f", results[1].OpsPerSec, wantOps)
	}

	s := Summarize(results)
	wantSpeedup := 4606603.0 / 96857.0
	if math.Abs(s.SpeedupBatchOverSerial-wantSpeedup) > 1e-9 {
		t.Fatalf("speedup = %f, want %f", s.SpeedupBatchOverSerial, wantSpeedup)
	}
}

func TestParseEmptyAndGarbage(t *testing.T) {
	results, err := Parse(strings.NewReader("no benchmarks here\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from garbage, want 0", len(results))
	}
	if s := Summarize(nil); s.SpeedupBatchOverSerial != 0 {
		t.Fatalf("speedup without both benchmarks = %f, want 0", s.SpeedupBatchOverSerial)
	}
}

// summaryFrom builds a Summary from raw (serial, batch) ns/op pairs.
func summaryFrom(t *testing.T, serialNs, batchNs float64) Summary {
	t.Helper()
	return Summarize([]Result{
		{Name: "ZLogAppendSerial", Iters: 100, NsPerOp: serialNs},
		{Name: "ZLogAppendBatch", Iters: 100, NsPerOp: batchNs},
	})
}

// TestCompareFlagsInjectedSlowdown is the regression-gate fixture the
// acceptance criteria name: a deliberately injected 2x slowdown of the
// optimized path must fail the 30%-tolerance comparison, while the
// unchanged run passes.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	baseline := summaryFrom(t, 4_600_000, 96_000) // ~47.9x
	same := summaryFrom(t, 4_600_000, 97_000)     // ~47.4x: within tolerance
	lines, err := Compare(same, baseline, 0.30)
	if err != nil {
		t.Fatalf("unchanged run failed the gate: %v\n%s", err, strings.Join(lines, "\n"))
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ok  ") {
		t.Fatalf("report lines = %q", lines)
	}

	// Inject a 2x slowdown into the batched path: speedup halves, which
	// is far below the 30% floor.
	slow := summaryFrom(t, 4_600_000, 192_000)
	lines, err = Compare(slow, baseline, 0.30)
	if err == nil {
		t.Fatalf("2x slowdown passed the gate:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(err.Error(), "speedup_batch_over_serial regressed") {
		t.Fatalf("error %q does not name the regressed metric", err)
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "FAIL") {
		t.Fatalf("report lines = %q", lines)
	}
}

// TestCompareMissingMetric pins the gate's behavior when the fresh run
// dropped a benchmark the baseline carries.
func TestCompareMissingMetric(t *testing.T) {
	baseline := summaryFrom(t, 4_600_000, 96_000)
	fresh := Summarize([]Result{{Name: "ZLogAppendSerial", Iters: 100, NsPerOp: 4_600_000}})
	_, err := Compare(fresh, baseline, 0.30)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-metric failure", err)
	}
}

// TestCompareEmptyBaseline rejects baselines with nothing to gate on
// (a corrupt or hand-edited file should not silently pass).
func TestCompareEmptyBaseline(t *testing.T) {
	_, err := Compare(summaryFrom(t, 100, 10), Summary{}, 0.30)
	if err == nil {
		t.Fatal("empty baseline accepted")
	}
}

const memSample = `goos: linux
pkg: repro
BenchmarkScriptVM-8   	   64804	     16292 ns/op	    2696 B/op	     100 allocs/op
BenchmarkOpCallWarm   	  122488	      9206 ns/op	    1717 B/op	      47 allocs/op
PASS
`

// TestParseBenchmem pins the -benchmem column parsing: B/op and
// allocs/op land in their own fields, and benchmarks no derived metric
// pairs contribute none.
func TestParseBenchmem(t *testing.T) {
	results, err := Parse(strings.NewReader(memSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	if results[0].Name != "ScriptVM" || results[0].BytesPerOp != 2696 || results[0].AllocsPerOp != 100 {
		t.Fatalf("first result = %+v (benchmem columns, suffix -8 stripped)", results[0])
	}
	if results[1].Name != "OpCallWarm" || results[1].NsPerOp != 9206 ||
		results[1].BytesPerOp != 1717 || results[1].AllocsPerOp != 47 {
		t.Fatalf("second result = %+v", results[1])
	}
	if len(results[0].Metrics) != 0 {
		t.Fatalf("benchmem columns leaked into Metrics: %v", results[0].Metrics)
	}
	if got := derivedMetrics(Summarize(results)); len(got) != 0 {
		t.Fatalf("derived metrics = %+v, want none", got)
	}
}

// TestParseWithoutBenchmem keeps plain (no -benchmem) output working:
// the memory columns stay zero.
func TestParseWithoutBenchmem(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
			t.Fatalf("memory columns from plain output = %+v", r)
		}
	}
}

const dedupSample = `goos: linux
pkg: repro
BenchmarkWriteFlat    	       2	   2881637 ns/op	1455.53 MB/s	   4194304 stored_B/op	   4194304 wire_B/op
BenchmarkWriteDeduped/dup25-8 	       2	  27162761 ns/op	 154.41 MB/s	   3336559 stored_B/op	   3336559 wire_B/op
BenchmarkWriteDeduped/dup50   	       2	  15831496 ns/op	 264.93 MB/s	   2316343 stored_B/op	   2316343 wire_B/op
BenchmarkWriteDeduped/dup75   	       2	  14873267 ns/op	 282.00 MB/s	   1304363 stored_B/op	   1304363 wire_B/op
PASS
ok  	repro	10.1s
goos: linux
pkg: repro/internal/cdc
BenchmarkChunker-8  	     500	   2149284 ns/op	 975.75 MB/s
PASS
ok  	repro/internal/cdc	1.2s
`

// TestParseCustomMetrics pins the generalized value/unit-pair parsing:
// b.ReportMetric units and MB/s throughput land in Result.Metrics, and
// the PR-8 derived metrics (dedup ratios, chunker throughput) follow.
func TestParseCustomMetrics(t *testing.T) {
	results, err := Parse(strings.NewReader(dedupSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5", len(results))
	}
	if results[0].Name != "WriteFlat" || results[0].Metrics["wire_B/op"] != 4194304 {
		t.Fatalf("flat result = %+v", results[0])
	}
	if results[1].Name != "WriteDeduped/dup25" {
		t.Fatalf("sub-benchmark name = %q (CPU suffix must be stripped)", results[1].Name)
	}
	s := Summarize(results)
	if want := 4194304.0 / 2316343.0; math.Abs(s.DedupRatio50-want) > 1e-9 {
		t.Fatalf("dedup_ratio_50 = %f, want %f", s.DedupRatio50, want)
	}
	if want := 4194304.0 / 1304363.0; math.Abs(s.DedupRatio75-want) > 1e-9 {
		t.Fatalf("dedup_ratio_75 = %f, want %f", s.DedupRatio75, want)
	}
	if s.ChunkerMBps != 975.75 {
		t.Fatalf("chunker_mbps = %f, want 975.75", s.ChunkerMBps)
	}
}

// TestCheckFloors pins the acceptance-floor gate: passing floors
// report ok, a metric below its floor fails, and a floor on a metric
// the run never produced fails rather than passing vacuously.
func TestCheckFloors(t *testing.T) {
	results, err := Parse(strings.NewReader(dedupSample))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	lines, err := CheckFloors(s, map[string]float64{"dedup_ratio_50": 1.667, "chunker_mbps": 500})
	if err != nil {
		t.Fatalf("floors that hold failed: %v\n%s", err, strings.Join(lines, "\n"))
	}
	if len(lines) != 2 {
		t.Fatalf("report lines = %q", lines)
	}
	_, err = CheckFloors(s, map[string]float64{"dedup_ratio_50": 2.5})
	if err == nil || !strings.Contains(err.Error(), "dedup_ratio_50") {
		t.Fatalf("err = %v, want dedup_ratio_50 floor failure", err)
	}
	_, err = CheckFloors(s, map[string]float64{"no_such_metric": 1})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-metric floor failure", err)
	}
	if lines, err := CheckFloors(s, nil); err != nil || len(lines) != 0 {
		t.Fatalf("empty floors = (%q, %v), want clean no-op", lines, err)
	}
}

const walSample = `goos: linux
pkg: repro/internal/wal
BenchmarkWALAppend/batch1   	    7926	    152268 ns/op	   1.68 MB/s
BenchmarkWALAppend/batch8-8 	   28175	     42610 ns/op	   6.01 MB/s
BenchmarkWALAppend/batch64  	   50708	     23663 ns/op	  10.82 MB/s
BenchmarkWALReplay-8        	      66	  17904692 ns/op	2498.84 MB/s
PASS
ok  	repro/internal/wal	6.5s
`

// TestSummarizeWALMetrics pins the PR-10 derived metrics: the group
// commit speedup pairs batch1/batch64 ns/op and the replay throughput
// is read from its MB/s column. Both are floor-only, like the
// chunker's: neither is a ratio the relative compare gates.
func TestSummarizeWALMetrics(t *testing.T) {
	results, err := Parse(strings.NewReader(walSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	s := Summarize(results)
	if want := 152268.0 / 23663.0; math.Abs(s.WALGroupCommitSpeedup-want) > 1e-9 {
		t.Fatalf("wal_group_commit_speedup = %f, want %f", s.WALGroupCommitSpeedup, want)
	}
	if s.WALReplayMBps != 2498.84 {
		t.Fatalf("wal_replay_mbps = %f, want 2498.84", s.WALReplayMBps)
	}
	if got := speedups(s); len(got) != 0 {
		t.Fatalf("speedups = %+v, want none (both WAL metrics are floor-only)", got)
	}
	lines, err := CheckFloors(s, map[string]float64{
		"wal_group_commit_speedup": 3.0, "wal_replay_mbps": 100,
	})
	if err != nil {
		t.Fatalf("floors that hold failed: %v\n%s", err, strings.Join(lines, "\n"))
	}
	if _, err := CheckFloors(s, map[string]float64{"wal_group_commit_speedup": 100}); err == nil {
		t.Fatal("unreachable speedup floor passed")
	}
}

// TestWALGroupCommitIsFloorOnly pins the bench-compare gate on the
// committed WAL baseline (BENCH_pr10.json): the ratio is bound by the
// disk's fsync latency, so a slower disk's 3.17x against the recorded
// 6.12x passes the compare, and only the 3.0 floor fails a run — 2.9x.
func TestWALGroupCommitIsFloorOnly(t *testing.T) {
	baseline := Summary{WALGroupCommitSpeedup: 6.12, WALReplayMBps: 2865}
	floors := map[string]float64{"wal_group_commit_speedup": 3.0, "wal_replay_mbps": 100}
	gate := func(speedup float64) error {
		fresh := Summarize([]Result{
			{Name: "WALAppend/batch1", Iters: 1, NsPerOp: speedup * 1000},
			{Name: "WALAppend/batch64", Iters: 1, NsPerOp: 1000},
			{Name: "WALReplay", Iters: 1, NsPerOp: 1, Metrics: map[string]float64{"MB/s": 2000}},
		})
		lines, err := Compare(fresh, baseline, 0.30)
		if err != nil {
			return err
		}
		if len(lines) != 0 {
			t.Fatalf("compare lines = %q, want none for a floor-only baseline", lines)
		}
		_, err = CheckFloors(fresh, floors)
		return err
	}
	if err := gate(3.17); err != nil {
		t.Fatalf("3.17x failed the gate: %v", err)
	}
	if err := gate(2.9); err == nil || !strings.Contains(err.Error(), "wal_group_commit_speedup") {
		t.Fatalf("2.9x: err = %v, want a wal_group_commit_speedup floor failure", err)
	}
}

// TestFloorFlagParsing covers the repeatable -floor name=value flag.
func TestFloorFlagParsing(t *testing.T) {
	f := floorFlags{}
	if err := f.Set("dedup_ratio_50=1.667"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("chunker_mbps=500"); err != nil {
		t.Fatal(err)
	}
	if f["dedup_ratio_50"] != 1.667 || f["chunker_mbps"] != 500 {
		t.Fatalf("floors = %v", f)
	}
	if err := f.Set("bogus"); err == nil {
		t.Fatal("name without value accepted")
	}
	if err := f.Set("x=notanumber"); err == nil {
		t.Fatal("non-numeric floor accepted")
	}
	if got := f.String(); !strings.Contains(got, "chunker_mbps=500") {
		t.Fatalf("String() = %q", got)
	}
}

// TestCompareBothMetrics covers a baseline carrying two derived ratios
// — the batched-append speedup and the 50%-dup corpus's dedup ratio —
// with only one regressing.
func TestCompareBothMetrics(t *testing.T) {
	both := func(batchNs, dedupWire float64) Summary {
		return Summarize([]Result{
			{Name: "ZLogAppendSerial", Iters: 1, NsPerOp: 4_800_000},
			{Name: "ZLogAppendBatch", Iters: 1, NsPerOp: batchNs},
			{Name: "WriteFlat", Iters: 1, NsPerOp: 1, Metrics: map[string]float64{"wire_B/op": 4_194_304}},
			{Name: "WriteDeduped/dup50", Iters: 1, NsPerOp: 1, Metrics: map[string]float64{"wire_B/op": dedupWire}},
		})
	}
	baseline := both(96_000, 2_316_343)
	fresh := both(98_000, 4_000_000) // dedup stops saving bytes
	lines, err := Compare(fresh, baseline, 0.30)
	if err == nil || !strings.Contains(err.Error(), "dedup_ratio_50") {
		t.Fatalf("err = %v, want dedup_ratio_50 regression", err)
	}
	if len(lines) != 2 {
		t.Fatalf("report lines = %q, want one per metric", lines)
	}
}
