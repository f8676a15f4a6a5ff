// Command bench is the repository's benchmark: five workloads, each
// run closed-loop from one process with one client goroutine per CPU,
// every output checked, reporting the end-to-end metrics of
// BENCHMARK.json with tracing off and, on a traced run, a per-layer
// account taken from the benchmark's side of each layer's public API.
//
//	bash bench/run.sh --workload zlog --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, both runs
//	bash bench/run.sh --check a.jsonl b.jsonl
//
// See README.md for the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

const (
	// runLimit bounds a whole run, below the driver's 180 s.
	runLimit = 170 * time.Second
	// defaultSeconds must equal run_seconds in BENCHMARK.json.
	defaultSeconds = 15
)

// runConfig is everything about a run that is not the workload. Only
// the tests use values other than defaultRun's.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	// warmUp runs the workload before anything is measured, so lazy
	// set-up (class compilation, map fetches, heap growth) is done.
	warmUp time.Duration
	// setups is how often the cluster is set up; setup_s is the median,
	// which one slow boot cannot move.
	setups int
	// segments is how many segments the measured window is cut into,
	// with a reference slice around each (see calib.go).
	segments int
	traceDir string
	out      io.Writer
}

func defaultRun(seed int64, measure time.Duration, traced bool) runConfig {
	return runConfig{seed: seed, measure: measure, traced: traced,
		warmUp: 2 * time.Second, setups: 3, segments: windowSegments, traceDir: "bench/out", out: os.Stdout}
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics (all: both runs)")
		out      = flag.String("out", "", "append each run's result to this JSON-lines file")
		check    = flag.Bool("check", false, "compare two result files: -check old.jsonl new.jsonl")
		manifest = flag.String("manifest", "BENCHMARK.json", "benchmark manifest holding the bounds -check uses")
	)
	flag.Parse()
	if *check {
		if flag.NArg() != 2 {
			fatalf("usage: -check old.jsonl new.jsonl")
		}
		ok, err := runCheck(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("check: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	names := []string{*name}
	traces := []bool{*trace != 0}
	if *name == "all" {
		names = workloadOrder
		traces = []bool{false, true}
	} else if workloads[*name] == nil {
		fatalf("unknown workload %q (have %s, all)", *name, strings.Join(workloadOrder, ", "))
	}
	allOK := true
	for _, n := range names {
		for _, tr := range traces {
			res, raw, err := runOne(n, defaultRun(*seed, time.Duration(*seconds)*time.Second, tr))
			if err != nil {
				fatalf("%s: %v", n, err)
			}
			if *out != "" {
				rec := runRecord{Workload: n, Seed: *seed, Trace: tr, Seconds: *seconds, Result: res, Raw: raw}
				if err := appendRecord(*out, rec); err != nil {
					fatalf("write %s: %v", *out, err)
				}
			}
			fmt.Println(res.jsonLine())
			allOK = allOK && res.Correct
		}
	}
	if !allOK {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne is one benchmark run of one workload: set up (several times),
// warm up, measure, audit, report. The human-readable report goes to
// cfg.out; the caller prints the JSON line last. raw holds the
// end-to-end metrics as measured, before scaling to nominal machine
// speed (empty on a traced run).
func runOne(name string, cfg runConfig) (res result, raw map[string]float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	var tr *tracer
	if cfg.traced {
		tr = newTracer(nClients)
	}
	var wl scenario
	var setupSpeed speed
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if wl != nil {
			wl.close()
		}
		wl = workloads[name]()
		setupSpeed.calibrate()
		t0 := time.Now()
		var err error
		setupSpeed.during(func() { tr.phase("setup", func() { err = wl.setup(ctx, cfg.seed) }) })
		if err != nil {
			wl.close()
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupSpeed.calibrate()
	defer wl.close()

	// Warm-up ops are checked and counted like any other, only their
	// latencies are dropped.
	warm := newWindow(nClients, nil)
	tr.phase("warm-up", func() { wl.run(ctx, cfg.warmUp, warm) })
	attempted, failed, firstErr := warm.totals()
	count := func(w *window) {
		a, f, e := w.totals()
		attempted, failed = attempted+a, failed+f
		if firstErr == nil {
			firstErr = e
		}
	}

	// runWindow measures for d in segments, with a reference slice
	// before each segment and after the last (see calib.go).
	runWindow := func(d time.Duration, t *tracer, segments int) *window {
		w := newWindow(nClients, t)
		for seg := 0; seg < segments; seg++ {
			w.speed.calibrate()
			w.speed.during(func() { wl.run(ctx, d/time.Duration(segments), w) })
		}
		w.speed.calibrate()
		return w
	}

	vals := map[string]float64{}
	var last *window
	if !cfg.traced {
		last = runWindow(cfg.measure, nil, cfg.segments)
		raw = wl.endToEnd(last)
		raw["setup_s"] = median(setups)
		scale, _, _ := last.speed.scale()
		setupScale, _, _ := setupSpeed.scale()
		for _, d := range endToEnd {
			switch {
			case d.Name == "setup_s":
				vals[d.Name] = raw[d.Name] * setupScale
			case d.Better == lower:
				vals[d.Name] = raw[d.Name] * scale
			default:
				vals[d.Name] = raw[d.Name] / scale
			}
		}
		wl.audit(ctx, last, map[string]float64{})
	} else {
		// A traced run splits its seconds: a quarter untraced and a
		// quarter traced on the same cluster (their ratio is the tracing
		// overhead), the rest on the layer probes. Per-layer figures are
		// reported as measured, next to the machine's speed.
		plain := runWindow(cfg.measure/4, nil, 1)
		count(plain)
		wl.beginTraced()
		last = runWindow(cfg.measure/4, tr, 1)
		wl.endTraced(last, vals)
		if a, b := wl.endToEnd(plain)["ops_per_s"], wl.endToEnd(last)["ops_per_s"]; a > 0 {
			vals["trace.overhead_ratio"] = b / a
		}
		_, vals["proc.speed_factor"], vals["proc.cpu_util"] = last.speed.scale()
		tr.phase("audit", func() { wl.audit(ctx, last, vals) })
		if err := wl.layers(ctx, cfg.measure/2, tr, vals); err != nil {
			return result{}, nil, err
		}
		vals["proc.rss_peak_mb"] = rssPeakMB()
	}
	count(last)

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res, err = buildResult(defs, vals, attempted, failed, failed == 0)
	if err != nil {
		return result{}, nil, err
	}
	report(cfg.out, name, cfg, wl, last, setups, res, defs, raw)
	if firstErr != nil {
		fmt.Fprintf(cfg.out, "first failure: %v\n", firstErr)
	}
	if cfg.traced {
		path := filepath.Join(cfg.traceDir, "trace-"+name+".json")
		if err := tr.write(path); err != nil {
			return result{}, nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(cfg.out, "trace: %d spans -> %s\n", tr.count(), path)
	}
	return res, raw, nil
}

// report prints every metric by name with its unit, and every timed
// op kind with its sample count, median and the highest percentile
// that still has ten samples beyond it. Op latencies are as measured;
// end-to-end metrics are at nominal machine speed, with the measured
// value beside them.
func report(out io.Writer, name string, cfg runConfig, wl scenario, w *window, setups []float64, res result, defs []metricDef, raw map[string]float64) {
	mode := "untraced: end-to-end metrics"
	if cfg.traced {
		mode = "traced: per-layer metrics"
	}
	scale, factor, util := w.speed.scale()
	fmt.Fprintf(out, "\n== %s  seed=%d  %s  %s, closed loop, %d clients\n", name, cfg.seed, cfg.measure, mode, nClients)
	fmt.Fprintf(out, "   %s\n", wl.describe())
	fmt.Fprintf(out, "   attempted=%d failed=%d  set-ups=%.3fs  window=%.2fs\n",
		res.Attempted, res.Failed, setups, w.seconds())
	fmt.Fprintf(out, "   machine at %.3f of nominal speed, CPU share %.2f: times x %.3f\n", factor, util, scale)

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	kinds := map[string]bool{}
	for i := range w.shards {
		for k := range w.shards[i].lat {
			kinds[k] = true
		}
	}
	sortedKinds := make([]string, 0, len(kinds))
	for k := range kinds {
		sortedKinds = append(sortedKinds, k)
	}
	sort.Strings(sortedKinds)
	fmt.Fprintln(tw, "   op\tsamples\tp50 us\ttail\ttail us")
	for _, k := range sortedKinds {
		s := w.sorted(k)
		p := highestPercentile(len(s))
		fmt.Fprintf(tw, "   %s\t%d\t%.1f\tp%g\t%.1f\n", k, len(s), s.us(50), p, s.us(p))
	}
	if cfg.traced {
		fmt.Fprintln(tw, "   metric\tvalue\tunit")
	} else {
		fmt.Fprintln(tw, "   metric\tvalue\tunit\tas measured")
	}
	for _, d := range defs {
		if cfg.traced {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		} else {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%.6g\n", d.Name, res.Metrics[d.Name].Value, d.Unit, raw[d.Name])
		}
	}
	tw.Flush() //nolint:errcheck // stdout
}
