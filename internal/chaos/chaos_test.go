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

// TestBrokenRecoveryIsCaught is the checker-of-the-checker fixture: a
// recovery that skips the seal step must be flagged by the sealed-epoch
// invariant. If this test fails, the harness would wave through the
// exact lost-update bug it exists to catch.
func TestBrokenRecoveryIsCaught(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{Scenario: "sequencer-failover", Seed: 1, SkipSealOnRecovery: true})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if !res.Failed() {
		t.Fatalf("broken recovery (no seal) produced no violations:\n%s", res.Report())
	}
	found := false
	for _, v := range res.Violations {
		if strings.HasPrefix(v, "sealed-epoch-rejects:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not include sealed-epoch-rejects: %v", res.Violations)
	}
	if !strings.Contains(res.ReproCommand(), "SCENARIO=sequencer-failover") ||
		!strings.Contains(res.ReproCommand(), "SEED=1") {
		t.Fatalf("repro command %q does not pin scenario and seed", res.ReproCommand())
	}
	if !strings.Contains(res.Report(), "verdict: FAILED") {
		t.Fatalf("report does not carry the failure verdict:\n%s", res.Report())
	}
}

// TestBrokenReplayIsCaught is the checker-of-the-checker fixture for
// the durable backend: a WAL recovery that skips reconciliation loses
// the crash-destroyed ref-delta queue, and the dedup audit must flag
// the resulting stale refsets. Whether the victim held queued deltas at
// the kill depends on the seed's fault plan, so the fixture sweeps a
// few seeds and requires the checker to fire on at least one.
func TestBrokenReplayIsCaught(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 4 && !found; seed++ {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		res, err := Run(ctx, Options{Scenario: "process-crash", Seed: seed, SkipReconcileOnReplay: true})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		for _, v := range res.Violations {
			if strings.HasPrefix(v, "dedup-refs-clean:") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("broken replay (no reconciliation) was never flagged by dedup-refs-clean across seeds 1..4")
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
