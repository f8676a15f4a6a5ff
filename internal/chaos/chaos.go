// Package chaos is the cluster-wide fault-injection harness: it boots a
// full Malacology deployment (monitors + OSDs + MDS ranks + ZLog
// clients) on one wire.Network, runs a scripted fault scenario
// interleaved with client workloads, and then audits global invariants
// after the faults heal — no acked append lost, sealed epochs reject
// late writes, replicas converge to zero scrub repairs, the capability
// system never grants two concurrent sequencers, cluster maps are
// monotone.
//
// Every scenario is a deterministic function of (scenario, seed): all
// fault-plan decisions (victims, drop rates, windows) are drawn from a
// seeded RNG in a fixed order on the scenario goroutine, and the event
// log records exactly that plan plus the invariant verdicts. Two runs
// with the same scenario and seed therefore produce identical event
// logs, and a failure is replayed with
//
//	make chaos SCENARIO=<name> SEED=<seed>
//
// This is the validation style CORFU-class systems use (partition/heal
// testing over the whole stack), applied to the reproduction so that
// every later scaling change is checked against the same invariants the
// paper's services rely on (PAPER.md §3, §4.2).
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/wire"
)

// Options selects and parameterizes one harness run.
type Options struct {
	// Scenario names the fault script to run; see Scenarios().
	Scenario string
	// Seed drives every randomized decision in the fault plan. Same
	// (Scenario, Seed) -> same event log.
	Seed int64
	// SkipSealOnRecovery deliberately breaks the sequencer-recovery path:
	// the harness bumps the log epoch and reinstalls the tail WITHOUT
	// sealing the stripe objects. Real recoveries must never do this —
	// the knob exists so fixture tests can prove the sealed-epoch
	// invariant checker catches the bug.
	SkipSealOnRecovery bool
	// SkipRemoteCensus deliberately breaks the dedup GC: each sweeper's
	// census counts only the manifests in the placement groups it leads
	// itself (rados.OSDConfig.SkipRemoteCensus), so it reclaims blocks
	// that manifests on other daemons still cite. Real sweeps must never
	// do this — the knob exists so fixture tests can prove the
	// dedup-refs-clean checker catches the resulting dangling blocks.
	SkipRemoteCensus bool
	// WALRoot, when set, is the directory under which WAL-backed
	// scenarios place their per-run journal directories
	// (<root>/<scenario>-seed<seed>/osd.<id>); a failing run keeps its
	// directory there for CI artifact upload. Empty means a temp
	// directory removed unconditionally at the end of the run.
	WALRoot string
	// Out, when set, receives the event stream as it happens (verbose
	// mode for the CLI); the Result carries the full log regardless.
	Out io.Writer
}

// Event is one entry in the deterministic event log: a planned fault
// action, a lifecycle step, or an invariant verdict.
type Event struct {
	Seq    int
	Kind   string // "boot", "fault", "crash", "restart", "recover", "check", ...
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%3d %-8s %s", e.Seq, e.Kind, e.Detail)
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario   string
	Seed       int64
	Events     []Event
	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// ReproCommand is the exact command that replays this run.
func (r *Result) ReproCommand() string {
	return fmt.Sprintf("make chaos SCENARIO=%s SEED=%d", r.Scenario, r.Seed)
}

// EventLog renders the event log, one line per event.
func (r *Result) EventLog() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Report renders the full artifact: header, verdict, violations, and
// the event log — what CI uploads on failure.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\nseed: %d\n", r.Scenario, r.Seed)
	if r.Failed() {
		fmt.Fprintf(&b, "verdict: FAILED (%d violations)\nrepro: %s\n", len(r.Violations), r.ReproCommand())
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "violation: %s\n", v)
		}
	} else {
		b.WriteString("verdict: ok\n")
	}
	b.WriteString("events:\n")
	b.WriteString(r.EventLog())
	return b.String()
}

// scenario is one registered fault script.
type scenario struct {
	name  string
	about string
	fn    func(ctx context.Context, r *run) error
}

// Scenarios lists the registered scenario names in run order.
func Scenarios() []string {
	out := make([]string, len(scenarioList))
	for i, s := range scenarioList {
		out[i] = s.name
	}
	return out
}

// Describe returns the one-line description of a scenario ("" if
// unknown).
func Describe(name string) string {
	for _, s := range scenarioList {
		if s.name == name {
			return s.about
		}
	}
	return ""
}

// run is the per-execution state shared by scenario scripts, workloads,
// and invariant checkers.
type run struct {
	ctx  context.Context
	opts Options
	rng  *rand.Rand
	cl   *core.Cluster

	mu         sync.Mutex
	seq        int             // guarded by mu
	events     []Event         // guarded by mu
	violations []string        // guarded by mu
	clients    []*rados.Client // guarded by mu; closed when the run ends
	down       map[int]bool    // guarded by mu; OSDs the scenario stopped for good
}

// Run executes one scenario to completion and returns its result. The
// returned error reports harness failures (boot errors, unknown
// scenario); invariant violations land in Result.Violations instead.
func Run(ctx context.Context, opts Options) (*Result, error) {
	var sc *scenario
	for i := range scenarioList {
		if scenarioList[i].name == opts.Scenario {
			sc = &scenarioList[i]
			break
		}
	}
	if sc == nil {
		return nil, fmt.Errorf("chaos: unknown scenario %q (have: %s)",
			opts.Scenario, strings.Join(Scenarios(), ", "))
	}
	r := &run{ctx: ctx, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	defer func() {
		r.mu.Lock()
		clients := r.clients
		r.mu.Unlock()
		for _, c := range clients {
			c.Close()
		}
		if r.cl != nil {
			r.cl.Stop()
		}
	}()
	if err := sc.fn(ctx, r); err != nil {
		return nil, fmt.Errorf("chaos: scenario %s: %w", opts.Scenario, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Result{
		Scenario:   opts.Scenario,
		Seed:       opts.Seed,
		Events:     append([]Event(nil), r.events...),
		Violations: append([]string(nil), r.violations...),
	}, nil
}

// boot starts the scenario's cluster, wires the fabric's fault hook
// into the event log, and records the topology.
func (r *run) boot(opts core.Options) error {
	opts.Seed = r.opts.Seed
	cl, err := core.Boot(r.ctx, opts)
	if err != nil {
		return err
	}
	r.cl = cl
	cl.Net.OnFault(func(ev wire.FaultEvent) {
		r.event("fault", describeFault(ev))
	})
	r.event("boot", fmt.Sprintf("mons=%d osds=%d mds=%d replicas=%d pgs=%d",
		len(cl.Mons), len(cl.OSDs), len(cl.MDSs), opts.Replicas, opts.PGNum))
	return nil
}

// stopOSD stops OSD id for the rest of the run; the checkers leave it out.
func (r *run) stopOSD(id int) {
	r.cl.OSDs[id].Stop()
	r.mu.Lock()
	if r.down == nil {
		r.down = make(map[int]bool)
	}
	r.down[id] = true
	r.mu.Unlock()
}

// liveOSDs is every OSD the scenario has not stopped for good.
func (r *run) liveOSDs() []*rados.OSD {
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []*rados.OSD
	for id, o := range r.cl.OSDs {
		if !r.down[id] {
			live = append(live, o)
		}
	}
	return live
}

// radosClient returns an object-store client named addr, closed when
// the run ends.
func (r *run) radosClient(addr string) *rados.Client {
	c := r.cl.NewRadosClient(addr)
	r.mu.Lock()
	r.clients = append(r.clients, c)
	r.mu.Unlock()
	return c
}

func describeFault(ev wire.FaultEvent) string {
	switch ev.Kind {
	case "partition":
		return fmt.Sprintf("%s %s <-> %s", ev.Kind, ev.A, ev.B)
	case "heal-all":
		return "heal-all"
	case "drop-rate":
		return fmt.Sprintf("drop-rate %.2f", ev.Rate)
	case "link-drop":
		return fmt.Sprintf("link-drop %s <-> %s %.2f", ev.A, ev.B, ev.Rate)
	case "latency":
		return fmt.Sprintf("latency %s jitter %s", ev.Base, ev.Jitter)
	}
	return ev.Kind
}

// event appends one deterministic entry to the event log.
func (r *run) event(kind, detail string) {
	r.mu.Lock()
	r.seq++
	e := Event{Seq: r.seq, Kind: kind, Detail: detail}
	r.events = append(r.events, e)
	out := r.opts.Out
	r.mu.Unlock()
	if out != nil {
		fmt.Fprintln(out, e.String())
	}
}

// pass records a successful invariant check.
func (r *run) pass(check string) { r.event("check", check+": ok") }

// fail records an invariant violation. The event log carries only the
// check name (so passing runs stay deterministic and failing runs still
// diff cleanly); the violation text carries the specifics.
func (r *run) fail(check, detail string) {
	r.event("check", check+": FAILED")
	r.mu.Lock()
	r.violations = append(r.violations, check+": "+detail)
	r.mu.Unlock()
}

// pause waits d (or until ctx ends) on a timer; the harness never uses
// time.Sleep as synchronization, matching the repository's sleepsync
// discipline.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// crew runs workload goroutines with a shared stop signal.
type crew struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func newCrew() *crew { return &crew{stop: make(chan struct{})} }

// go_ launches one workload member.
func (c *crew) go_(fn func(stop <-chan struct{})) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn(c.stop)
	}()
}

// halt stops every member and waits for them to drain.
func (c *crew) halt() {
	close(c.stop)
	c.wg.Wait()
}

// walRoot prepares the on-disk root for a WAL-backed scenario's
// journal directories. With no WALRoot configured the root is a temp
// directory removed unconditionally by cleanup; with one configured it
// lives at <root>/<scenario>-seed<seed> and cleanup keeps it when the
// run recorded violations, so CI uploads the journals that reproduce
// the failure alongside the report. Call cleanup after the cluster
// stops.
func (r *run) walRoot() (dir string, cleanup func(), err error) {
	if r.opts.WALRoot == "" {
		dir, err = os.MkdirTemp("", "chaos-wal-")
		if err != nil {
			return "", nil, err
		}
		return dir, func() { os.RemoveAll(dir) }, nil
	}
	dir = filepath.Join(r.opts.WALRoot, fmt.Sprintf("%s-seed%d", r.opts.Scenario, r.opts.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	cleanup = func() {
		r.mu.Lock()
		failed := len(r.violations) > 0
		r.mu.Unlock()
		if !failed {
			os.RemoveAll(dir)
		}
	}
	return dir, cleanup, nil
}

// sortedKeys returns m's keys in stable order (for deterministic
// violation messages).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
