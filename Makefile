GO ?= go

# Chaos harness knobs: `make chaos SCENARIO=sequencer-failover SEED=7`
# replays one scenario exactly; the default sweeps every scenario.
SCENARIO ?= all
SEED ?= 1

.PHONY: build test race vet lint lint-json lint-sarif lint-fixtures \
	bench bench-smoke bench-module chaos chaos-race cover ci loc \
	profile fuzz-smoke cross

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis (internal/analysis): epochguard,
# lockblock, errdrop, sleepsync, ctxleak, fieldguard, goleak, chanlife,
# the cross-package protocol passes lockorder, rpcflow, retrysafe, and
# the ownership/aliasing passes cowalias, poolsafe, sendshare.
# Fails on any unsuppressed finding; suppressions require
# //lint:ignore <pass> <reason> and are budgeted by TestWaiverBudget.
# The time budget is a smoke check that the 14-pass suite stays fast
# enough for the edit loop; a typical run is ~2s, so 3m only trips on a
# pathological slowdown (the JSON report records elapsed_ms).
LINT_BUDGET ?= 3m

lint:
	$(GO) run ./cmd/malacolint -timebudget $(LINT_BUDGET) ./...

# Same gate, but the findings land in malacolint-report.json (CI uploads
# it as an artifact). Still fails the build on any finding.
lint-json:
	$(GO) run ./cmd/malacolint -json -timebudget $(LINT_BUDGET) ./... > malacolint-report.json; \
	status=$$?; cat malacolint-report.json; exit $$status

# The JSON gate plus a SARIF 2.1.0 log for code-scanning upload; witness
# chains land as relatedLocations.
lint-sarif:
	$(GO) run ./cmd/malacolint -json -sarif malacolint.sarif -timebudget $(LINT_BUDGET) ./... > malacolint-report.json; \
	status=$$?; cat malacolint-report.json; exit $$status

# The analyzers' own golden-fixture tests plus the waiver budget. CI runs
# this target, so this regex is the one list.
lint-fixtures:
	$(GO) test -count=1 -run 'TestEpochGuard|TestLockBlock|TestLockBlockWitnessIsMultiHop|TestErrDrop|TestSleepSync|TestCtxLeak|TestFieldGuard|TestGoLeak|TestChanLife|TestLockOrder|TestRPCFlow|TestRetrySafe|TestCowAlias|TestPoolSafe|TestSendShare|TestCrossPackageFacts|TestSARIF|TestDedupe|TestWaiverBudget|TestMalformedSuppression|TestOneStatementWalker' ./internal/analysis

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# One iteration of every benchmark so they cannot rot; part of ci.
# internal/script rides along for the VM microbenches, internal/cdc for
# the chunker throughput bench, internal/wal for the group-commit and
# replay benches.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/script/ ./internal/cdc/ ./internal/wal/

# Every fuzz target in the module (go test -list finds them) runs for
# FUZZTIME past its seeds and committed corpus (testdata/fuzz/); part of
# ci. A failing input lands in the package's testdata/fuzz/ to replay.
FUZZTIME ?= 10s

fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t = t " " $$1 } /^ok/ { if (t != "") print $$2 t; t = "" }' | \
	while read pkg targets; do \
		for t in $$targets; do \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# The repository's benchmark (bench/) is a nested module that the root
# module's vet and test runs do not see; vet and test it from inside.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# CPU and allocation profiles of the replicated op path — the rados-mem
# op mix, BenchmarkRadosOpsR3Delay0 — written to .prof/, then the top 25
# functions by cumulative CPU time and the top 15 by objects allocated.
# ROADMAP's account of what is left of a write's CPU is read off this
# output. Not part of ci: the numbers move with the host.
profile:
	@mkdir -p .prof
	$(GO) test -run='^$$' -bench='^BenchmarkRadosOpsR3Delay0$$' -benchmem -benchtime=3s \
		-o .prof/repro.test -cpuprofile .prof/cpu.out -memprofile .prof/mem.out .
	$(GO) tool pprof -top -cum -nodecount=25 .prof/repro.test .prof/cpu.out
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 .prof/repro.test .prof/mem.out
	@echo "note: a goroutine hand-off costs scheduler time and lost cache locality, not a function of ours; size it with alternated bench/run.sh pairs, not this list"

# Cluster-wide fault injection: boots a full cluster per scenario,
# injects the seeded fault script under client load, and audits the
# global invariants after heal. A failure prints the exact repro
# command and writes chaos-report.txt plus the WAL-backed scenarios'
# journal directories under chaos-wal/ (CI uploads both).
chaos:
	$(GO) run ./cmd/chaos -scenario $(SCENARIO) -seed $(SEED) -artifact chaos-report.txt -waldir chaos-wal

# The same invariants exercised under the race detector (plus the
# determinism and broken-recovery fixtures).
chaos-race:
	$(GO) test -race -count=1 -timeout 600s ./internal/chaos/

# Statement-coverage gate on the core packages. coverage.out is kept
# for CI to upload next to malacolint-report.json.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out \
		./internal/wire/ ./internal/rados/ ./internal/paxos/ \
		./internal/mon/ ./internal/mds/ ./internal/zlog/ \
		./internal/script/ ./internal/cdc/ ./internal/analysis/ \
		./internal/wal/ ./internal/core/
	$(GO) run ./cmd/covercheck -profile coverage.out

# The fabric's timerfd doorbell is Linux-only; vet the package for a
# non-Linux target so the !linux stand-in keeps compiling. Offline: the
# standard library cross-compiles from the local toolchain.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/wire/

ci: build vet cross lint-sarif lint-fixtures race bench-smoke bench-module fuzz-smoke chaos cover

# Non-test, non-fixture Go lines per package, largest first, with the
# total on top: ROADMAP aim 2's tracked number. go list leaves out
# _test.go files and testdata/ fixtures; the nested bench/ module is
# listed as well.
LOC_FORMAT = {{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}

loc:
	@{ $(GO) list -f '$(LOC_FORMAT)' ./... && cd bench && $(GO) list -f '$(LOC_FORMAT)' ./... ; } \
		| awk 'NF > 1 { n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
			printf "%7d %s\n", n, $$1; total += n } END { printf "%7d total\n", total }' \
		| sort -rn
