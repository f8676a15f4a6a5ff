// Command covercheck gates statement coverage on the core packages: it
// parses a `go test -coverprofile` file, computes per-package coverage,
// and fails if any gated package is below its floor. The floors are set
// well under current measurements — the gate exists to catch a change
// that ships a subsystem with its tests deleted or skipped, not to
// ratchet every percentage point.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// floors maps import-path suffixes (package directories) to minimum
// statement coverage, in percent. Measured at the time the gate landed:
// wire 92.9, rados 79.3, paxos 86.6, mon 70.5, mds 75.4, zlog 81.6,
// script 89.6 (the differential oracle-vs-VM suite carries most of
// the script package's coverage), cdc 98.3 (PR 8; the rados floor rose
// 70 -> 72 with the dedup path's tests), analysis 93.5 (PR 9; the
// golden fixtures drive nearly every pass branch, so the analyzers
// themselves are gated like any other subsystem), wal 85.5 (PR 10; the
// torn-write corpus walks every truncation and corruption offset, so
// the journal's recovery branches are what the floor protects — the
// uncovered remainder is fsync/truncate error-injection branches no
// honest test can reach). The mds floor rose 65 -> 72 when value
// checkpoints moved to a background flusher (measured 76.5%): its
// retry and stop paths are covered only by the journal tests. Script
// measured 90.5% once its tree-walker moved into the tests as the VM's
// oracle, leaving only the VM to cover. core 83.8 (68.6 before the
// bring-up tests): its concurrent daemon start, the stop-everything
// failure path and the catch-up step are what the floor protects. The
// mon floor rose 60 -> 76 when commits and subscriptions began to
// answer with maps (measured 76.6-77.0%, 69.6% before): the published
// map, the subscription answer and Join's newer-of merge are what it
// protects.
var floors = map[string]float64{
	"repro/internal/wire":     85,
	"repro/internal/rados":    72,
	"repro/internal/paxos":    78,
	"repro/internal/mon":      76,
	"repro/internal/mds":      72,
	"repro/internal/zlog":     72,
	"repro/internal/script":   80,
	"repro/internal/cdc":      85,
	"repro/internal/analysis": 80,
	"repro/internal/wal":      85,
	"repro/internal/core":     83,
}

// pkgCov accumulates statement counts for one package.
type pkgCov struct {
	total   int
	covered int
}

func (p pkgCov) percent() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.covered) / float64(p.total)
}

// Parse reads a coverprofile and returns per-package statement counts.
// Profile lines look like:
//
//	repro/internal/wire/wire.go:169.33,172.2 2 1
//
// (file:range numStatements hitCount); the package is the file's dir.
func Parse(r io.Reader) (map[string]pkgCov, error) {
	out := make(map[string]pkgCov)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		colon := strings.LastIndex(line, ".go:")
		if colon < 0 {
			return nil, fmt.Errorf("covercheck: line %d: no file field: %q", lineNo, line)
		}
		file := line[:colon+3]
		fields := strings.Fields(line[colon+4:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("covercheck: line %d: want 'range stmts count': %q", lineNo, line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("covercheck: line %d: bad statement count: %q", lineNo, line)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("covercheck: line %d: bad hit count: %q", lineNo, line)
		}
		pkg := path.Dir(file)
		pc := out[pkg]
		pc.total += stmts
		if count > 0 {
			pc.covered += stmts
		}
		out[pkg] = pc
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Check compares per-package coverage against the floors. Every floored
// package must be present in the profile (a missing package means its
// tests did not run, which is exactly what the gate exists to catch).
// It returns one report line per floored package and an error naming
// the first failure.
func Check(cov map[string]pkgCov, floors map[string]float64) ([]string, error) {
	names := make([]string, 0, len(floors))
	for name := range floors {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	var failure error
	for _, name := range names {
		floor := floors[name]
		pc, ok := cov[name]
		if !ok || pc.total == 0 {
			lines = append(lines, fmt.Sprintf("FAIL %-24s absent from profile (floor %.0f%%)", name, floor))
			if failure == nil {
				failure = fmt.Errorf("covercheck: %s missing from coverage profile", name)
			}
			continue
		}
		got := pc.percent()
		verdict := "ok  "
		if got < floor {
			verdict = "FAIL"
			if failure == nil {
				failure = fmt.Errorf("covercheck: %s at %.1f%% is below the %.0f%% floor", name, got, floor)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %-24s %5.1f%% (floor %.0f%%, %d/%d statements)",
			verdict, name, got, floor, pc.covered, pc.total))
	}
	return lines, failure
}

func run(profilePath string, report io.Writer) error {
	f, err := os.Open(profilePath)
	if err != nil {
		return fmt.Errorf("covercheck: %w (run `make cover` first)", err)
	}
	defer f.Close()
	cov, err := Parse(f)
	if err != nil {
		return err
	}
	lines, failure := Check(cov, floors)
	for _, l := range lines {
		fmt.Fprintln(report, l)
	}
	return failure
}

func main() {
	profile := flag.String("profile", "coverage.out", "coverprofile file to check")
	flag.Parse()
	if err := run(*profile, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
