// Package mutants holds the repository's committed mutants: each
// mutants/<name>.json is one deliberate bug in the real code, with the
// check that must catch it. A claim that some test or chaos checker
// "catches X" is kept honest by committing X here; the runner
// (run_test.go, build tag mutants, `make mutants`) applies every mutant
// through the go command's -overlay and requires its check to fail with
// the expected text.
//
// The spec format (every field is required unless marked optional):
//
//	claim     what the mutant breaks, in a sentence
//	file      the file to mutate, relative to the module root
//	old, new  an exact replacement; old must occur exactly once in file
//	expect    a regexp the failing check's output must match
//
// and one check, either
//
//	package   a package pattern, as `go test` takes it (./internal/rados)
//	run       a -run pattern naming the test that must fail
//	runs      optional: how many runs in a row must each fail (default 1)
//	reads_source  optional: the test reads the module's source at run
//	          time (the analysis package parses it), so the mutant is
//	          applied to a copy of the module instead of an overlay
//
// or
//
//	scenario  a chaos scenario (chaos -list)
//	seeds     the seeds on each of which cmd/chaos must report it
//
// This file is plain test code: the specs are validated and applied (in
// memory) by every `go test ./...`, so a change that makes a mutant's
// old string stale fails at once, naming the mutant.
package mutants

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// spec is one committed mutant.
type spec struct {
	Name string `json:"-"` // the file name without .json

	Claim string `json:"claim"`
	File  string `json:"file"`
	Old   string `json:"old"`
	New   string `json:"new"`

	Package     string `json:"package"`
	Run         string `json:"run"`
	Runs        int    `json:"runs"`
	ReadsSource bool   `json:"reads_source"`

	Scenario string  `json:"scenario"`
	Seeds    []int64 `json:"seeds"`

	Expect string `json:"expect"`
}

// moduleRoot is the module the mutants apply to: the test runs in
// <root>/mutants.
const moduleRoot = ".."

// loadSpecs reads every spec in dir, sorted by name, and checks each
// against the tree under root; the first bad spec is the error.
func loadSpecs(dir, root string) ([]spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	slices.Sort(paths)
	specs := make([]spec, 0, len(paths))
	for _, p := range paths {
		s, err := readSpec(p)
		if err == nil {
			err = s.validate(root)
		}
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// readSpec decodes one spec file; unknown fields are an error, so a
// misspelt field cannot silently drop a check.
func readSpec(path string) (spec, error) {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	data, err := os.ReadFile(path)
	if err != nil {
		return spec{}, fmt.Errorf("mutant %s: %v", name, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return spec{}, fmt.Errorf("mutant %s: %v", name, err)
	}
	s.Name = name
	return s, nil
}

// validate checks that s is complete, names one check, and applies to
// the tree under root.
func (s spec) validate(root string) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("mutant %s: %s", s.Name, fmt.Sprintf(format, args...))
	}
	switch {
	case s.Claim == "":
		return bad("no claim: say what the mutant breaks")
	case s.File == "" || s.Old == "":
		return bad("no file or no old string to replace")
	case s.Old == s.New:
		return bad("old and new are the same string")
	case s.Expect == "":
		return bad("no expected failure text")
	}
	if _, err := regexp.Compile(s.Expect); err != nil {
		return bad("expect: %v", err)
	}
	pkgCheck, chaosCheck := s.Package != "" || s.Run != "", s.Scenario != "" || len(s.Seeds) > 0
	switch {
	case !pkgCheck && !chaosCheck:
		return bad("no check: name a package and -run pattern, or a chaos scenario and seeds")
	case pkgCheck && chaosCheck:
		return bad("two checks: name a package or a chaos scenario, not both")
	case pkgCheck && (s.Package == "" || s.Run == ""):
		return bad("a package check needs both package and run")
	case chaosCheck && (s.Scenario == "" || len(s.Seeds) == 0):
		return bad("a chaos check needs both scenario and seeds")
	case chaosCheck && !slices.Contains(chaos.Scenarios(), s.Scenario):
		return bad("no chaos scenario %q", s.Scenario)
	case chaosCheck && (s.Runs != 0 || s.ReadsSource):
		return bad("runs and reads_source apply to a package check only")
	case s.Runs < 0:
		return bad("runs = %d", s.Runs)
	}
	_, err := s.apply(root)
	return err
}

// apply returns s.File under root with the replacement made, or an
// error naming the mutant when old does not occur exactly once.
func (s spec) apply(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, s.File))
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %v", s.Name, err)
	}
	if n := bytes.Count(src, []byte(s.Old)); n != 1 {
		return nil, fmt.Errorf("mutant %s: old string occurs %d times in %s, want exactly 1 (the code moved: update or remove the mutant)",
			s.Name, n, s.File)
	}
	return bytes.Replace(src, []byte(s.Old), []byte(s.New), 1), nil
}

// runs is how many runs in a row must each fail.
func (s spec) runs() int { return max(s.Runs, 1) }

// TestCommittedMutantsApply loads every committed mutant: each must be
// complete and its old string must occur exactly once in its file.
// The runner, which needs no more than this to apply a mutant, is
// TestMutantsAreKilled (build tag mutants).
func TestCommittedMutantsApply(t *testing.T) {
	specs, err := loadSpecs(".", moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no committed mutants")
	}
}

// TestBadSpecsAreRejectedByName holds the spec checks to their word on
// synthetic specs against a synthetic file: each must be refused with
// an error naming the mutant and the reason.
func TestBadSpecsAreRejectedByName(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "target.go"), []byte("a := once\nb := twice\nc := twice\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := func() spec {
		return spec{Name: "m", Claim: "c", File: "target.go", Old: "once", New: "never",
			Package: "./x", Run: "^TestX$", Expect: "x"}
	}
	if err := good().validate(root); err != nil {
		t.Fatalf("the good spec is refused: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*spec)
		want string
	}{
		{"stale", func(s *spec) { s.Old = "gone" }, "occurs 0 times"},
		{"ambiguous", func(s *spec) { s.Old = "twice" }, "occurs 2 times"},
		{"no-check", func(s *spec) { s.Package, s.Run = "", "" }, "no check"},
		{"no-run", func(s *spec) { s.Run = "" }, "needs both package and run"},
		{"no-seeds", func(s *spec) { s.Package, s.Run, s.Scenario = "", "", "process-crash" }, "needs both scenario and seeds"},
		{"two-checks", func(s *spec) { s.Scenario, s.Seeds = "process-crash", []int64{1} }, "two checks"},
		{"no-scenario", func(s *spec) { s.Package, s.Run, s.Scenario, s.Seeds = "", "", "nonesuch", []int64{1} }, `no chaos scenario "nonesuch"`},
		{"no-expect", func(s *spec) { s.Expect = "" }, "no expected failure text"},
		{"bad-expect", func(s *spec) { s.Expect = "(" }, "expect:"},
		{"no-claim", func(s *spec) { s.Claim = "" }, "no claim"},
		{"no-op", func(s *spec) { s.New = s.Old }, "the same string"},
		{"no-file", func(s *spec) { s.File = "missing.go" }, "missing.go"},
	} {
		s := good()
		s.Name = c.name
		c.edit(&s)
		err := s.validate(root)
		if err == nil || !strings.Contains(err.Error(), "mutant "+c.name+":") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming mutant %s and saying %q", c.name, err, c.name, c.want)
		}
	}

	// A spec file with a misspelt field, or none of the spec's shape, is
	// refused by loadSpecs under its file name.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "typo.json"), []byte(`{"claim": "c", "expcet": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpecs(dir, root); err == nil || !strings.Contains(err.Error(), "mutant typo:") {
		t.Errorf("misspelt field: error %v, want one naming mutant typo", err)
	}
}
