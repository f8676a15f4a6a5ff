package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	s = s.sorted()
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%g = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestResultRoundTrips(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := map[string]float64{}
		for i, d := range defs {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the manifest's alphabet", d.Name)
			}
			vals[d.Name] = float64(i) + 0.125
		}
		res, err := buildResult(defs, vals, 10, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(res.jsonLine()), &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
		var back result
		if err := json.Unmarshal([]byte(res.jsonLine()), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("result did not round-trip:\n%+v\n%+v", res, back)
		}
		if len(back.Metrics) != len(defs) {
			t.Errorf("%d metrics, want every one of %d", len(back.Metrics), len(defs))
		}
	}
	if _, err := buildResult(endToEnd, map[string]float64{"no_such_metric": 1}, 1, 0, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and the lists in
// metrics.go in step: same metrics in the same order, same workloads,
// same default run length.
func TestManifestMatchesRegistry(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", man.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q is not implemented", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %q must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, name := range workloadOrder {
		if !offManifest[name] {
			want = append(want, name)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("manifest workloads %v, want %v", names, want)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, default -seconds = %d", man.RunSeconds, defaultSeconds)
	}
	setup := false
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func writeRuns(t *testing.T, path string, wl string, metric string, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		rec := runRecord{Workload: wl, Seed: int64(i), Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]value{metric: {Value: v, Unit: "us"}}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(man, []byte(`{"workloads":[{"name":"a"},{"name":"b"},{"name":"c"}],
		"end_to_end":[{"name":"lat_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	older, newer := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	writeRuns(t, older, "a", "lat_us", 100, 101, 99, 100, 100)
	writeRuns(t, newer, "a", "lat_us", 104, 105, 103, 104, 104) // +4%: pass
	writeRuns(t, older, "b", "lat_us", 100, 101, 99, 100, 100)
	writeRuns(t, newer, "b", "lat_us", 120, 121, 119, 120, 120) // +20%: regress
	writeRuns(t, older, "c", "lat_us", 100, 101, 99, 100, 100)
	writeRuns(t, newer, "c", "lat_us", 80, 120, 100, 70, 130) // spread > bound: unresolved

	var out bytes.Buffer
	ok, err := runCheck(&out, man, older, newer)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("check passed despite a regression and an unresolved row")
	}
	for wl, verdict := range map[string]string{"a": "pass", "b": "regress", "c": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == wl {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("workload %s: verdict %s, want %s\n%s", wl, f[len(f)-1], verdict, line)
				}
			}
		}
		if !found {
			t.Errorf("no row for workload %s:\n%s", wl, out.String())
		}
	}
	out.Reset()
	if ok, err := runCheck(&out, man, older, older); err != nil || !ok {
		t.Errorf("a tight result set against itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

func TestPayloadIsDeterministic(t *testing.T) {
	a, b := payload(7, 3, 9, 4099), payload(7, 3, 9, 4099)
	if !bytes.Equal(a, b) {
		t.Error("same (seed, object, index) gave different bytes")
	}
	for _, other := range [][]byte{payload(8, 3, 9, 4099), payload(7, 4, 9, 4099), payload(7, 3, 10, 4099)} {
		if bytes.Equal(a, other) {
			t.Error("different (seed, object, index) gave the same bytes")
		}
	}
}

// smoke is a short run of one workload: it must pass its own
// correctness checks and report every metric of its list.
func smoke(t *testing.T, name string, traced bool) {
	t.Helper()
	cfg := runConfig{seed: 1, measure: time.Second, traced: traced,
		warmUp: 200 * time.Millisecond, setups: 1, segments: 2, traceDir: t.TempDir(), out: io.Discard}
	res, _, err := runOne(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+name+".json")); err != nil {
			t.Errorf("traced run wrote no trace: %v", err)
		}
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, must never be 0", d.Name, v.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, name := range workloadOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			smoke(t, name, false)
		})
	}
	t.Run("traced-zlog", func(t *testing.T) {
		t.Parallel()
		smoke(t, "zlog", true)
	})
}
