package chaos

import (
	"bufio"
	"context"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mds"
)

// TestAllScenariosPass runs every registered scenario end to end: the
// harness's whole point is that the invariants hold on the healthy
// implementation under each fault script.
func TestAllScenariosPass(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			res, err := Run(ctx, Options{Scenario: name, Seed: 1})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if res.Failed() {
				t.Fatalf("invariant violations:\n%s", res.Report())
			}
			if len(res.Events) == 0 {
				t.Fatal("empty event log")
			}
		})
	}
}

// TestDeterministicEventLog pins the reproducibility contract: two runs
// of the same (scenario, seed) must produce byte-identical event logs.
func TestDeterministicEventLog(t *testing.T) {
	const scenario = "drop-latency-spike"
	logs := make([]string, 2)
	for i := range logs {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		res, err := Run(ctx, Options{Scenario: scenario, Seed: 42})
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Failed() {
			t.Fatalf("run %d violations:\n%s", i, res.Report())
		}
		logs[i] = res.EventLog()
	}
	if logs[0] != logs[1] {
		t.Fatalf("same seed produced different event logs:\n--- run 0 ---\n%s--- run 1 ---\n%s",
			logs[0], logs[1])
	}
}

// TestDifferentSeedsDifferentPlans sanity-checks that the seed actually
// drives the fault plan (otherwise determinism would be vacuous).
func TestDifferentSeedsDifferentPlans(t *testing.T) {
	logs := make([]string, 2)
	for i, seed := range []int64{7, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		res, err := Run(ctx, Options{Scenario: "drop-latency-spike", Seed: seed})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		logs[i] = res.EventLog()
	}
	if logs[0] == logs[1] {
		t.Fatal("seeds 7 and 8 produced identical fault plans; the seed is not wired through")
	}
}

// TestFailedResultPinsItsRepro pins what a failed run hands its
// reader: the verdict, each violation, and a repro command naming the
// scenario and the seed. That the checkers fire on a broken recovery or
// a broken census is proven by the committed mutants (mutants/), which
// run the real scenarios against mutated code.
func TestFailedResultPinsItsRepro(t *testing.T) {
	res := &Result{Scenario: "sequencer-failover", Seed: 7,
		Violations: []string{"sealed-epoch-rejects: stale-epoch write was ACCEPTED"}}
	if !res.Failed() {
		t.Fatal("a result with a violation is not Failed")
	}
	if got, want := res.ReproCommand(), "make chaos SCENARIO=sequencer-failover SEED=7"; got != want {
		t.Fatalf("repro command = %q, want %q", got, want)
	}
	report := res.Report()
	for _, want := range []string{
		"verdict: FAILED (1 violations)",
		"repro: make chaos SCENARIO=sequencer-failover SEED=7",
		"violation: sealed-epoch-rejects: stale-epoch write was ACCEPTED",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}
	if ok := (&Result{Scenario: "sequencer-failover", Seed: 7}).Report(); !strings.Contains(ok, "verdict: ok") {
		t.Fatalf("a clean run's report lacks the ok verdict:\n%s", ok)
	}
}

// TestValidateCapHistory pins the capability auditor on synthetic
// histories: legal alternation passes; double grants and non-holder
// releases fail.
func TestValidateCapHistory(t *testing.T) {
	ok := []mds.CapEvent{
		{Path: "/a", Client: "c1", Kind: "grant"},
		{Path: "/b", Client: "c2", Kind: "grant"},
		{Path: "/a", Client: "c1", Kind: "release"},
		{Path: "/a", Client: "c2", Kind: "grant"},
		{Path: "/b", Client: "c2", Kind: "release"},
		{Path: "/a", Client: "c2", Kind: "release"},
	}
	if err := ValidateCapHistory(ok); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}

	doubleGrant := []mds.CapEvent{
		{Path: "/a", Client: "c1", Kind: "grant"},
		{Path: "/a", Client: "c2", Kind: "grant"},
	}
	if err := ValidateCapHistory(doubleGrant); err == nil {
		t.Fatal("concurrent double grant not detected")
	}

	wrongRelease := []mds.CapEvent{
		{Path: "/a", Client: "c1", Kind: "grant"},
		{Path: "/a", Client: "c2", Kind: "release"},
	}
	if err := ValidateCapHistory(wrongRelease); err == nil {
		t.Fatal("release by non-holder not detected")
	}
}

// TestUnknownScenario pins the CLI-facing error contract.
func TestUnknownScenario(t *testing.T) {
	_, err := Run(context.Background(), Options{Scenario: "nope", Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown-scenario error listing valid names", err)
	}
	for _, name := range Scenarios() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list scenario %s", err, name)
		}
	}
}

// TestScenarioMetadata keeps the registry self-describing.
func TestScenarioMetadata(t *testing.T) {
	names := Scenarios()
	if len(names) < 7 {
		t.Fatalf("only %d scenarios registered, acceptance floor is 7", len(names))
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Fatalf("scenario %s has no description", n)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("Describe of unknown scenario should be empty")
	}
}

// TestNightlyMatrixListsEveryScenario keeps the nightly chaos job in step
// with the registry: the workflow's scenario matrix must name exactly
// the registered scenarios, in run order, so a new scenario cannot miss
// the nightly sweep.
func TestNightlyMatrixListsEveryScenario(t *testing.T) {
	f, err := os.Open("../../.github/workflows/chaos.yml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The list is the "- name" items under the "scenario:" key of the
	// job matrix.
	var listed []string
	inMatrix, inList := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "matrix:":
			inMatrix = true
		case inMatrix && line == "scenario:":
			inList = true
		case inList && strings.HasPrefix(line, "- "):
			listed = append(listed, strings.TrimPrefix(line, "- "))
		case inList:
			inMatrix, inList = false, false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(listed) == 0 {
		t.Fatal("chaos.yml has no scenario matrix")
	}
	if want := Scenarios(); !slices.Equal(listed, want) {
		t.Fatalf("nightly matrix lists %v, want the registered scenarios %v", listed, want)
	}
}
