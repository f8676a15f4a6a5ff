package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchManifest is the part of BENCHMARK.json the benchmark reads.
type benchManifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*benchManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m benchManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// loadRecords reads a JSON-lines result file and groups the untraced
// runs' values by workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values, where it cannot be judged.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// runCheck compares two result sets metric by metric against the
// manifest's bounds, one row per workload and end-to-end metric:
// regress when the new median is worse than the old by more than the
// bound, unresolved when either side's own spread is wider than the
// bound (setup_s is exempt from that, as in the driver), else pass.
func runCheck(out io.Writer, manifestPath, oldPath, newPath string) (bool, error) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		return false, err
	}
	older, err := loadRecords(oldPath)
	if err != nil {
		return false, err
	}
	newer, err := loadRecords(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\tspread old/new\tbound\tverdict")
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			a, b := older[wl.Name][d.Name], newer[wl.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\tmissing\n", wl.Name, d.Name, d.Bound)
				ok = false
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := "pass"
			switch {
			case worse > d.Bound:
				verdict = "regress"
				ok = false
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "unresolved"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, ma, mb, (mb-ma)/ma*100, sa*100, sb*100, d.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}
