// Command malacolint runs the repository's domain-aware static
// analysis passes (internal/analysis) over the module in the current
// directory and prints findings as file:line:col: pass: message. Exit
// status 1 means at least one unsuppressed finding.
//
// Usage:
//
//	malacolint [-passes epochguard,errdrop] [-list] [-json] [-waivers]
//	           [-sarif out.sarif] [-timebudget 3m] [packages]
//
// -json prints the findings (or, with -waivers, the waiver list) as a
// machine-readable report on stdout; CI archives it as a build
// artifact. -waivers lists every //lint:ignore marker instead of
// running the analyzers, so the audited-exception budget is one
// command away. -sarif additionally writes the findings as a SARIF
// 2.1.0 log for code-scanning upload. -timebudget fails the run (exit
// 1) when load + analysis exceed the given duration: a smoke check that
// keeps the pass suite fast enough to stay in the edit loop. The JSON
// report records the measured suite runtime as elapsed_ms either way.
//
// The package patterns default to ./... and are resolved by `go list`
// relative to the current directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
)

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// jsonWaiver is one //lint:ignore marker in the -json -waivers report.
type jsonWaiver struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Pass   string `json:"pass"`
	Reason string `json:"reason"`
}

func main() {
	var (
		passesFlag  = flag.String("passes", "", "comma-separated pass names to run (default: all)")
		listFlag    = flag.Bool("list", false, "list available passes and exit")
		jsonFlag    = flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
		waiversFlag = flag.Bool("waivers", false, "list //lint:ignore waivers instead of running the analyzers")
		sarifFlag   = flag.String("sarif", "", "also write findings as a SARIF 2.1.0 log to this path")
		budgetFlag  = flag.Duration("timebudget", 0, "fail if load + analysis exceed this wall-clock duration (0 disables)")
	)
	flag.Parse()

	all := analysis.Passes()
	if *listFlag {
		for _, p := range all {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}

	selected := all
	if *passesFlag != "" {
		byName := make(map[string]*analysis.Pass, len(all))
		for _, p := range all {
			byName[p.Name] = p
		}
		selected = nil
		for _, name := range strings.Split(*passesFlag, ",") {
			name = strings.TrimSpace(name)
			p, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "malacolint: unknown pass %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, p)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "malacolint: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "malacolint: %v\n", err)
		os.Exit(2)
	}

	relPath := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}

	if *waiversFlag {
		waivers := analysis.Waivers(pkgs)
		if *jsonFlag {
			report := struct {
				Waivers []jsonWaiver `json:"waivers"`
				Count   int          `json:"count"`
			}{Waivers: []jsonWaiver{}, Count: len(waivers)}
			for _, w := range waivers {
				report.Waivers = append(report.Waivers, jsonWaiver{
					File: relPath(w.Pos.Filename), Line: w.Pos.Line, Pass: w.Pass, Reason: w.Reason,
				})
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				fmt.Fprintf(os.Stderr, "malacolint: %v\n", err)
				os.Exit(2)
			}
			return
		}
		for _, w := range waivers {
			fmt.Printf("%s:%d: %s: %s\n", relPath(w.Pos.Filename), w.Pos.Line, w.Pass, w.Reason)
		}
		fmt.Fprintf(os.Stderr, "malacolint: %d waiver(s)\n", len(waivers))
		return
	}

	idx := analysis.NewIndex(pkgs)
	var diags []analysis.Diagnostic
	for _, pass := range selected {
		for _, pkg := range pkgs {
			if pass.Scope != nil && !pass.Scope(pkg.Path) {
				continue
			}
			diags = append(diags, pass.Run(pkg, idx)...)
		}
	}
	diags = analysis.Dedupe(analysis.ApplySuppressions(pkgs, diags, selected...))
	elapsed := time.Since(start)

	if *sarifFlag != "" {
		out, err := analysis.SARIF(diags, relPath)
		if err == nil {
			err = os.WriteFile(*sarifFlag, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "malacolint: -sarif: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonFlag {
		report := struct {
			Findings  []jsonFinding `json:"findings"`
			Count     int           `json:"count"`
			ElapsedMS int64         `json:"elapsed_ms"`
		}{Findings: []jsonFinding{}, Count: len(diags), ElapsedMS: elapsed.Milliseconds()}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File: relPath(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Pass: d.Pass, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "malacolint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relPath(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	fail := false
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "malacolint: %d finding(s)\n", len(diags))
		fail = true
	}
	if *budgetFlag > 0 && elapsed > *budgetFlag {
		fmt.Fprintf(os.Stderr, "malacolint: pass suite took %s, over the %s time budget\n",
			elapsed.Round(time.Millisecond), *budgetFlag)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
