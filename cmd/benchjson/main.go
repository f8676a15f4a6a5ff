// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON summary. It exists so benchmark numbers land in
// version control (BENCH_pr2.json) instead of scrollback: `make
// bench-json` pipes the serial-vs-batched append benchmarks through it.
//
// With -compare old.json it instead acts as a regression gate: the
// fresh run's derived metrics must not fall below the committed
// baseline's by more than -tolerance (a fraction; 0.30 means a 30%
// drop fails). Only the derived ratios are compared — raw ns/op moves
// with machine load, but the serial-vs-optimized ratio on the same
// host is stable. Repeatable -floor name=value flags additionally pin
// absolute minimums (acceptance criteria like dedup_ratio_50 >= 1.667
// or chunker_mbps >= 500) in either mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. BytesPerOp/AllocsPerOp are
// filled when the run used -benchmem (and are omitted otherwise, so
// older baselines unmarshal unchanged). Metrics carries every other
// value/unit pair on the line — b.SetBytes throughput ("MB/s") and
// b.ReportMetric custom units ("wire_B/op", "stored_B/op").
type Result struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the emitted document. Each derived field is filled when
// its benchmarks are present: SpeedupBatchOverSerial pairs
// ZLogAppendSerial/ZLogAppendBatch (PR-2 criterion, >= 5x at batch 64).
// DedupRatioNN divides
// WriteFlat's wire bytes by WriteDeduped/dupNN's (PR-8 criterion:
// dedup_ratio_50 >= 1.667, i.e. the 50%-dup corpus ships <= 0.6x the
// flat bytes); ChunkerMBps is the cdc chunker's single-core throughput
// (PR-8 criterion: >= 500). WALGroupCommitSpeedup divides
// WALAppend/batch1's ns/op by WALAppend/batch64's (PR-10 criterion:
// >= 3x — 64 concurrent appenders amortize fsyncs via the sync-leader
// batch); WALReplayMBps is the journal replay throughput (PR-10
// criterion: >= 100).
type Summary struct {
	Benchmarks             []Result `json:"benchmarks"`
	SpeedupBatchOverSerial float64  `json:"speedup_batch_over_serial,omitempty"`
	DedupRatio25           float64  `json:"dedup_ratio_25,omitempty"`
	DedupRatio50           float64  `json:"dedup_ratio_50,omitempty"`
	DedupRatio75           float64  `json:"dedup_ratio_75,omitempty"`
	ChunkerMBps            float64  `json:"chunker_mbps,omitempty"`
	WALGroupCommitSpeedup  float64  `json:"wal_group_commit_speedup,omitempty"`
	WALReplayMBps          float64  `json:"wal_replay_mbps,omitempty"`
}

// benchHead matches the name and iteration count; the measurement
// columns after them are free-form value/unit pairs.
var benchHead = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// metricPair matches one "value unit" column, e.g. "96857 ns/op",
// "975.33 MB/s", "4194304 wire_B/op".
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?)\s+(\S+)`)

// Parse extracts benchmark results from `go test -bench` output.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchHead.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count %q: %w", m[2], err)
		}
		res := Result{Name: m[1], Iters: iters}
		sawNs := false
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad metric value %q: %w", pair[1], err)
			}
			switch pair[2] {
			case "ns/op":
				res.NsPerOp = v
				sawNs = true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[pair[2]] = v
			}
		}
		if !sawNs {
			continue // not a measurement line after all
		}
		if res.NsPerOp > 0 {
			res.OpsPerSec = 1e9 / res.NsPerOp
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// dedupWire returns the bytes the deduped path moved per op: the larger
// of its wire and stored metrics (identical on the current path; max
// keeps the ratio conservative if they ever diverge).
func dedupWire(r Result) float64 {
	w, s := r.Metrics["wire_B/op"], r.Metrics["stored_B/op"]
	if s > w {
		return s
	}
	return w
}

// Summarize derives the cross-benchmark metrics from parsed results.
func Summarize(results []Result) Summary {
	s := Summary{Benchmarks: results}
	var serial, batch float64
	var flatWire, walB1, walB64 float64
	dup := make(map[string]float64)
	for _, r := range results {
		switch r.Name {
		case "ZLogAppendSerial":
			serial = r.NsPerOp
		case "ZLogAppendBatch":
			batch = r.NsPerOp
		case "WriteFlat":
			flatWire = dedupWire(r)
		case "WriteDeduped/dup25", "WriteDeduped/dup50", "WriteDeduped/dup75":
			dup[strings.TrimPrefix(r.Name, "WriteDeduped/dup")] = dedupWire(r)
		case "Chunker":
			s.ChunkerMBps = r.Metrics["MB/s"]
		case "WALAppend/batch1":
			walB1 = r.NsPerOp
		case "WALAppend/batch64":
			walB64 = r.NsPerOp
		case "WALReplay":
			s.WALReplayMBps = r.Metrics["MB/s"]
		}
	}
	if serial > 0 && batch > 0 {
		s.SpeedupBatchOverSerial = serial / batch
	}
	if walB1 > 0 && walB64 > 0 {
		s.WALGroupCommitSpeedup = walB1 / walB64
	}
	if flatWire > 0 {
		if d := dup["25"]; d > 0 {
			s.DedupRatio25 = flatWire / d
		}
		if d := dup["50"]; d > 0 {
			s.DedupRatio50 = flatWire / d
		}
		if d := dup["75"]; d > 0 {
			s.DedupRatio75 = flatWire / d
		}
	}
	return s
}

// metric is one named derived ratio extracted from a Summary.
type metric struct {
	name string
	val  float64
}

func speedups(s Summary) []metric {
	var out []metric
	if s.SpeedupBatchOverSerial > 0 {
		out = append(out, metric{"speedup_batch_over_serial", s.SpeedupBatchOverSerial})
	}
	if s.DedupRatio25 > 0 {
		out = append(out, metric{"dedup_ratio_25", s.DedupRatio25})
	}
	if s.DedupRatio50 > 0 {
		out = append(out, metric{"dedup_ratio_50", s.DedupRatio50})
	}
	if s.DedupRatio75 > 0 {
		out = append(out, metric{"dedup_ratio_75", s.DedupRatio75})
	}
	// ChunkerMBps and WALReplayMBps are deliberately absent: they are
	// absolute single-core throughputs, which swing with host load, so
	// the relative-drop compare would flap. Their gates are the absolute
	// -floor values (>= 500 and >= 100). WALGroupCommitSpeedup is absent
	// too: it is bound by the disk's fsync latency, so a baseline from
	// one disk says nothing about another (6.12x recorded, 3.1-3.3x on a
	// slower one); its gate is the acceptance floor (>= 3).
	return out
}

// derivedMetrics is speedups plus the floor-only metrics — the lookup
// table CheckFloors gates against.
func derivedMetrics(s Summary) []metric {
	out := speedups(s)
	if s.ChunkerMBps > 0 {
		out = append(out, metric{"chunker_mbps", s.ChunkerMBps})
	}
	if s.WALGroupCommitSpeedup > 0 {
		out = append(out, metric{"wal_group_commit_speedup", s.WALGroupCommitSpeedup})
	}
	if s.WALReplayMBps > 0 {
		out = append(out, metric{"wal_replay_mbps", s.WALReplayMBps})
	}
	return out
}

// CheckFloors gates the summary's derived metrics against absolute
// minimums (-floor name=value). Unlike Compare's relative tolerance,
// these are the acceptance criteria themselves: a floor on a metric the
// run did not produce fails too.
func CheckFloors(s Summary, floors map[string]float64) ([]string, error) {
	got := make(map[string]float64)
	for _, m := range derivedMetrics(s) {
		got[m.name] = m.val
	}
	names := make([]string, 0, len(floors))
	for name := range floors {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	var failure error
	for _, name := range names {
		want := floors[name]
		cur, ok := got[name]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("FAIL floor %s: metric missing from run (floor %.3f)", name, want))
			if failure == nil {
				failure = fmt.Errorf("benchjson: floor %s: metric missing from run", name)
			}
		case cur < want:
			lines = append(lines, fmt.Sprintf("FAIL floor %s: %.3f < %.3f", name, cur, want))
			if failure == nil {
				failure = fmt.Errorf("benchjson: %s = %.3f below floor %.3f", name, cur, want)
			}
		default:
			lines = append(lines, fmt.Sprintf("ok   floor %s: %.3f >= %.3f", name, cur, want))
		}
	}
	return lines, failure
}

func run(in io.Reader, outPath string, floors map[string]float64) error {
	results, err := Parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	summary := Summarize(results)
	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "" || outPath == "-" {
		if _, err := os.Stdout.Write(buf); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	lines, failure := CheckFloors(summary, floors)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, l)
	}
	return failure
}

// Compare checks the fresh summary's derived metrics against a
// committed baseline: each metric present in the baseline must also be
// present fresh and satisfy fresh >= old*(1-tolerance). It returns one
// report line per compared metric and an error naming the first
// regression. A baseline whose metrics are all floor-only has nothing
// to compare and passes: the -floor values gate that run.
func Compare(fresh, baseline Summary, tolerance float64) ([]string, error) {
	if len(derivedMetrics(baseline)) == 0 {
		return nil, fmt.Errorf("benchjson: baseline has no derived metrics")
	}
	got := make(map[string]float64)
	for _, m := range speedups(fresh) {
		got[m.name] = m.val
	}
	var lines []string
	var failure error
	for _, m := range speedups(baseline) {
		cur, ok := got[m.name]
		if !ok {
			lines = append(lines, fmt.Sprintf("FAIL %s: baseline %.2fx, fresh run is missing the metric", m.name, m.val))
			if failure == nil {
				failure = fmt.Errorf("benchjson: %s missing from fresh run", m.name)
			}
			continue
		}
		floor := m.val * (1 - tolerance)
		verdict := "ok  "
		if cur < floor {
			verdict = "FAIL"
			if failure == nil {
				failure = fmt.Errorf("benchjson: %s regressed: %.2fx < floor %.2fx (baseline %.2fx, tolerance %.0f%%)",
					m.name, cur, floor, m.val, tolerance*100)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s: %.2fx vs baseline %.2fx (floor %.2fx)",
			verdict, m.name, cur, m.val, floor))
	}
	return lines, failure
}

// runCompare parses fresh bench output from in and gates it against the
// baseline JSON at oldPath, then against any absolute floors.
func runCompare(in io.Reader, oldPath string, tolerance float64, floors map[string]float64, report io.Writer) error {
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		return fmt.Errorf("benchjson: read baseline: %w", err)
	}
	var baseline Summary
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("benchjson: parse baseline %s: %w", oldPath, err)
	}
	results, err := Parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	fresh := Summarize(results)
	lines, failure := Compare(fresh, baseline, tolerance)
	flines, ffail := CheckFloors(fresh, floors)
	lines = append(lines, flines...)
	if failure == nil {
		failure = ffail
	}
	for _, l := range lines {
		fmt.Fprintln(report, l)
	}
	return failure
}

// floorFlags collects repeatable -floor name=value arguments.
type floorFlags map[string]float64

func (f floorFlags) String() string {
	parts := make([]string, 0, len(f))
	for k, v := range f {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f floorFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad floor value %q: %w", val, err)
	}
	f[name] = v
	return nil
}

func main() {
	out := flag.String("out", "-", "output file (- for stdout)")
	compare := flag.String("compare", "", "baseline JSON; gate fresh bench output against it instead of emitting JSON")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional drop in speedup metrics vs the baseline")
	floors := floorFlags{}
	flag.Var(floors, "floor", "absolute metric floor name=value (repeatable)")
	flag.Parse()
	if *compare != "" {
		if err := runCompare(os.Stdin, *compare, *tolerance, floors, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, *out, floors); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
