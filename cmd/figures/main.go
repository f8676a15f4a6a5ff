// Command figures regenerates every table and figure of the paper's
// evaluation (Section 6) against the Go reproduction. Each experiment
// prints the same rows/series the paper reports; absolute numbers
// differ (the substrate is a simulator), but the shapes — who wins, by
// what factor, where crossovers fall — are the reproduction target.
//
// Usage:
//
//	figures -exp table1|fig2|fig5|fig6|fig7|fig8|fig9|fig10a|fig10b|fig12|backoff|all
//	figures -exp fig9 -scale 2.0     # stretch experiment durations
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	expFlag   = flag.String("exp", "all", "experiment to run (table1, fig2, fig5, fig6, fig7, fig8, fig9, fig10a, fig10b, fig12, backoff, all)")
	scaleFlag = flag.Float64("scale", 1.0, "duration multiplier for time-based experiments")
)

func main() {
	flag.Parse()
	ctx := context.Background()
	exps := map[string]func(context.Context) error{
		"table1": table1, "table2": table2, "fig2": fig2, "fig5": fig5,
		"fig6": fig6, "fig7": fig7, "fig8": fig8, "fig9": fig9,
		"fig10a": fig10a, "fig10b": fig10b, "fig12": fig12, "backoff": backoff,
	}
	order := []string{"table1", "table2", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig12", "backoff"}

	run := func(name string) {
		fmt.Printf("\n==================== %s ====================\n", name)
		if err := exps[name](ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *expFlag == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := exps[*expFlag]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	run(*expFlag)
}

func scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * *scaleFlag)
}

// ---- Table 1: object storage class inventory ----

func table1(context.Context) error {
	fmt.Println("Table 1: object storage classes by category")
	fmt.Println("(paper's Ceph census vs this repository's shipped classes)")
	paper := map[string]int{"logging": 11, "metadata+management": 74, "locking": 6, "other": 4}

	ours := map[string][]string{}
	methods := map[string]int{}
	for _, cls := range rados.BuiltinClasses() {
		cat := cls.Category
		if cat == "metadata" || cat == "management" {
			cat = "metadata+management"
		}
		ours[cat] = append(ours[cat], fmt.Sprintf("%s(%d)", cls.Name, len(cls.Methods)))
		methods[cat] += len(cls.Methods)
	}
	// The zlog script class ships through the monitor, not the binary;
	// count it in logging as the paper's census would (7 methods: write,
	// writev, read, fill, trim, seal, maxpos).
	ours["logging"] = append(ours["logging"], "zlog(7)")
	methods["logging"] += 7

	fmt.Printf("%-22s %10s %12s   %s\n", "category", "paper #", "this repo #", "classes here")
	for _, cat := range []string{"logging", "metadata+management", "locking", "other"} {
		sort.Strings(ours[cat])
		fmt.Printf("%-22s %10d %12d   %s\n", cat, paper[cat], methods[cat], strings.Join(ours[cat], " "))
	}
	return nil
}

// ---- Table 2: the Malacology interfaces and their realizations ----

func table2(context.Context) error {
	fmt.Println("Table 2: common internal abstractions exposed as interfaces")
	rows := [][3]string{
		{"interface", "provides (paper)", "realized here as"},
		{"Service Metadata", "consensus/consistency", "mon.Client.SetService + map pushes (internal/mon)"},
		{"Data I/O", "transaction/atomicity", "script object classes in the OSDMap, atomic undo-log exec (internal/rados)"},
		{"Shared Resource", "serialization/batching", "recallable capabilities: best-effort/delay/quota (internal/mds)"},
		{"File Type", "data/metadata access", "typed inodes (sequencer counter embedded in the inode) (internal/mds)"},
		{"Load Balancing", "migration/sampling", "inode export in proxy/client mode + pluggable balancers (internal/mds, internal/mantle)"},
		{"Durability", "persistence/safety", "replicated PGs, scrub, backfill, PG splitting (internal/rados)"},
	}
	for i, r := range rows {
		fmt.Printf("%-18s %-26s %s\n", r[0], r[1], r[2])
		if i == 0 {
			fmt.Println(strings.Repeat("-", 100))
		}
	}
	return nil
}

// ---- Figure 2: growth of co-designed interfaces ----

func fig2(context.Context) error {
	fmt.Println("Figure 2: growth of co-designed object storage interfaces in Ceph")
	fmt.Println("(the paper's census of the Ceph tree, 2010-2016; replayed dataset —")
	fmt.Println(" totals anchored to Table 1's 95 production methods)")
	type yr struct {
		year    int
		classes int
		methods int
	}
	series := []yr{
		{2010, 2, 5}, {2011, 4, 10}, {2012, 5, 14}, {2013, 7, 24},
		{2014, 9, 39}, {2015, 13, 61}, {2016, 18, 95},
	}
	fmt.Printf("%6s %9s %9s\n", "year", "classes", "methods")
	for _, p := range series {
		fmt.Printf("%6d %9d %9d  %s\n", p.year, p.classes, p.methods, strings.Repeat("#", p.methods/3))
	}
	fmt.Println("takeaway: accelerating growth — programmability demanded in production.")
	return nil
}

// ---- Figure 5: capability hand-off traces ----

func fig5(ctx context.Context) error {
	fmt.Println("Figure 5: sequencer access interleaving under capability policies")
	fmt.Println("(2 clients, 1 sequencer; per-policy ownership profile)")
	cases := []struct {
		label  string
		policy mds.CapPolicy
	}{
		{"best-effort (default)", mds.CapPolicy{Cacheable: true}},
		{"delay 250ms", mds.CapPolicy{Cacheable: true, Delay: 250 * time.Millisecond}},
		{"quota 500", mds.CapPolicy{Cacheable: true, Quota: 500, Delay: 250 * time.Millisecond}},
	}
	for _, tc := range cases {
		res, err := workload.RunCapExperiment(ctx, workload.CapConfig{
			Clients: 2, Duration: scaled(2 * time.Second), Policy: tc.policy,
		})
		if err != nil {
			return err
		}
		p := workload.Interleaving(res.Ops)
		fmt.Printf("\n%-22s ops=%-8d throughput=%8.0f ops/s\n", tc.label, len(res.Ops), res.Throughput)
		fmt.Printf("%-22s switches=%-6d mean-run=%-8.1f max-run=%d\n", "", p.Switches, p.MeanRunLen, p.MaxRunLen)
		fmt.Printf("%-22s ownership band: %s\n", "", ownershipBand(res.Ops, 60))
	}
	fmt.Println("\ntakeaway: default hand-off interleaves unpredictably; delay holds time")
	fmt.Println("slices; quota holds fixed op batches (paper Fig. 5 a/b/c).")
	return nil
}

// ownershipBand renders which client owned the sequencer over time as a
// width-character strip (A/B/=mixed), the textual analogue of Figure
// 5's dot plots.
func ownershipBand(ops []workload.OpRecord, width int) string {
	if len(ops) == 0 {
		return ""
	}
	maxOff := time.Duration(0)
	for _, op := range ops {
		if op.Offset > maxOff {
			maxOff = op.Offset
		}
	}
	counts := make([][2]int, width)
	for _, op := range ops {
		b := int(int64(op.Offset) * int64(width-1) / int64(maxOff+1))
		counts[b][op.Client%2]++
	}
	var sb strings.Builder
	for _, c := range counts {
		switch {
		case c[0] == 0 && c[1] == 0:
			sb.WriteByte('.')
		case c[1] == 0:
			sb.WriteByte('A')
		case c[0] == 0:
			sb.WriteByte('B')
		default:
			sb.WriteByte('=')
		}
	}
	return sb.String()
}

// ---- Figure 6: throughput/latency vs quota ----

func fig6(ctx context.Context) error {
	fmt.Println("Figure 6: sequencer throughput and latency vs quota")
	fmt.Println("(2 clients, 0.25 s maximum reservation, quota sweep)")
	quotas := []int{1, 10, 100, 1000, 10000}
	pts, err := workload.RunQuotaSweep(ctx, quotas, 250*time.Millisecond, scaled(1500*time.Millisecond))
	if err != nil {
		return err
	}
	fmt.Printf("%8s %14s %14s %12s\n", "quota", "ops/s", "mean-lat(us)", "p99(us)")
	for _, p := range pts {
		fmt.Printf("%8d %14.0f %14.1f %12.1f\n", p.Quota, p.Throughput, p.MeanLatUs, p.P99Us)
	}
	fmt.Println("takeaway: small quotas spend time exchanging exclusive access; large")
	fmt.Println("quotas trade fairness for throughput and lower mean latency (paper Fig. 6).")

	fmt.Println("\nbatched-client mode: end-to-end appends (range grant + striped writev)")
	sweep, err := workload.RunAppendSweep(ctx, workload.AppendSweepConfig{
		Batches:  []int{1, 8, 64},
		Duration: scaled(time.Second),
		Policy:   mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: 250 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%8s %14s %14s %12s\n", "batch", "entries/s", "mean-lat(us)", "p99(us)")
	for _, p := range sweep {
		fmt.Printf("%8d %14.0f %14.1f %12.1f\n", p.Batch, p.Throughput, p.MeanLatUs, p.P99Us)
	}
	fmt.Println("takeaway: batching amortizes both the sequencer and the object round-")
	fmt.Println("trips — one range grant plus at most Width writev calls per batch.")
	return nil
}

// ---- Figure 7: latency CDFs ----

func fig7(ctx context.Context) error {
	fmt.Println("Figure 7: per-client sequencer latency CDFs per quota configuration")
	quotas := []int{10, 1000}
	pts, err := workload.RunQuotaSweep(ctx, quotas, 250*time.Millisecond, scaled(1500*time.Millisecond))
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("\nquota=%d\n", p.Quota)
		for i, h := range p.PerClient {
			fmt.Printf("  client %d: %s\n", i, h.Summary("us"))
			fmt.Printf("  client %d CDF: %s\n", i, cdfRow(h))
		}
	}
	fmt.Println("\ntakeaway: longer holds push the competing client's tail out; at the")
	fmt.Println("99th percentile access stays sub-millisecond-scale (paper Fig. 7).")

	fmt.Println("\nbatched-client mode: amortized per-entry append latency CDFs")
	sweep, err := workload.RunAppendSweep(ctx, workload.AppendSweepConfig{
		Batches:  []int{1, 64},
		Duration: scaled(time.Second),
		Policy:   mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: 250 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	for _, p := range sweep {
		fmt.Printf("  batch=%-4d %s\n", p.Batch, p.Latency.Summary("us"))
		fmt.Printf("  batch=%-4d CDF: %s\n", p.Batch, cdfRow(p.Latency))
	}
	return nil
}

func cdfRow(h *stats.Histogram) string {
	var parts []string
	for _, p := range []float64{50, 90, 99, 99.9} {
		parts = append(parts, fmt.Sprintf("P%g=%.0fus", p, h.Percentile(p)))
	}
	return strings.Join(parts, " ")
}

// ---- Figure 8: interface propagation ----

func fig8(ctx context.Context) error {
	fmt.Println("Figure 8: cluster-wide interface-update propagation latency")
	fmt.Println("(script classes embedded in the cluster map; Paxos commit + bounded")
	fmt.Println(" push + OSD-to-OSD flood, 1 ms per hop; paper: 120 RAM OSDs, <=54ms @P90,")
	fmt.Println(" 194ms worst)")
	res, err := workload.RunPropagation(ctx, workload.PropagationConfig{
		OSDs:             120,
		Updates:          int(50 * *scaleFlag),
		ProposalInterval: 50 * time.Millisecond,
		GossipInterval:   25 * time.Millisecond,
		GossipFanout:     5,
		NetLatency:       time.Millisecond,
	})
	if err != nil {
		return err
	}
	fmt.Printf("propagation:   %s\n", res.Latency.Summary("us"))
	fmt.Printf("CDF: %s\n", cdfRow(res.Latency))
	fmt.Printf("commit (paxos proposal batching): %s\n", res.CommitLatency.Summary("us"))

	fmt.Println("\nproposal-interval study (paper: 1 s default vs 222 ms tuned quorum):")
	for _, iv := range []time.Duration{time.Second, 222 * time.Millisecond} {
		r, err := workload.RunPropagation(ctx, workload.PropagationConfig{
			OSDs: 12, Updates: 8, ProposalInterval: iv,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  interval=%-8v mean commit=%8.0fus\n", iv, r.CommitLatency.Mean())
	}
	return nil
}

// ---- Figure 9: balancer comparison over time ----

func fig9(ctx context.Context) error {
	fmt.Println("Figure 9: cluster throughput over time, 3 sequencers x 4 clients")
	fmt.Println("(paper: migration during 0-60 s lifts CephFS/Mantle above no-balancing)")
	dur := scaled(6 * time.Second)
	tick := scaled(500 * time.Millisecond)
	for _, kind := range []workload.BalancerKind{workload.BalNone, workload.BalCephFSWorkload, workload.BalMantle} {
		res, err := workload.RunBalanceExperiment(ctx, workload.BalanceConfig{
			Kind: kind, Duration: dur, Tick: tick,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (steady %.0f ops/s, total %d ops)\n", kind, res.SteadyRate, res.TotalOps)
		printSeries(res.Cluster, 50)
	}
	fmt.Println("\ntakeaway: no-balancing stays flat; CephFS jumps after its first")
	fmt.Println("decision; Mantle stabilizes later but highest (paper Fig. 9).")
	return nil
}

func printSeries(ts *stats.TimeSeries, maxWidth int) {
	rates := ts.Rates()
	peak := 1.0
	for _, r := range rates {
		if r > peak {
			peak = r
		}
	}
	for i, r := range rates {
		bar := int(r / peak * float64(maxWidth))
		fmt.Printf("  t=%5.2fs %9.0f ops/s %s\n",
			float64(i)*ts.BucketWidth().Seconds(), r, strings.Repeat("#", bar))
	}
}

// ---- Figure 10a: balancing modes ----

func fig10a(ctx context.Context) error {
	fmt.Println("Figure 10a: steady throughput by balancer")
	fmt.Println("(paper: the three CephFS modes tie — same structure, different metric —")
	fmt.Println(" with CPU mode noisiest; Mantle's sequencer policy wins)")
	dur := scaled(5 * time.Second)
	tick := scaled(500 * time.Millisecond)
	kinds := []workload.BalancerKind{
		workload.BalCephFSCPU, workload.BalCephFSWorkload,
		workload.BalCephFSHybrid, workload.BalMantle,
	}
	fmt.Printf("%-18s %14s\n", "balancer", "steady ops/s")
	for _, kind := range kinds {
		res, err := workload.RunBalanceExperiment(ctx, workload.BalanceConfig{
			Kind: kind, Duration: dur, Tick: tick,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %14.0f %s\n", kind, res.SteadyRate,
			strings.Repeat("#", int(res.SteadyRate/400)))
	}
	return nil
}

// ---- Figure 10b: modes x migration units ----

func fig10b(ctx context.Context) error {
	fmt.Println("Figure 10b: migration mode x migration units (2 sequencers, 2 ranks)")
	fmt.Println("(paper: proxy beats client mode, up to 2x; full migration beats half)")
	pts, err := workload.RunModeMatrix(ctx, scaled(4*time.Second))
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %14s\n", "config", "steady ops/s")
	for _, p := range pts {
		fmt.Printf("%-14s %14.0f %s\n", p.Label, p.SteadyRate,
			strings.Repeat("#", int(p.SteadyRate/400)))
	}
	return nil
}

// ---- Figure 12: proxy vs client timelines ----

func fig12(ctx context.Context) error {
	fmt.Println("Figure 12: per-sequencer throughput, migration at 1/3 of the run")
	fmt.Println("(paper: proxy mode boosts the migrated sequencer and total but is")
	fmt.Println(" unfair; client mode fairer but lower total — coherence strain)")
	dur := scaled(5 * time.Second)
	for _, mode := range []mds.MigrationMode{mds.ModeProxy, mds.ModeClient} {
		m := mode
		res, err := workload.RunBalanceExperiment(ctx, workload.BalanceConfig{
			Kind: workload.BalNone, MDSs: 2, Sequencers: 2, ClientsPerSeq: 4,
			Duration: dur, ManualMode: &m, ManualHalf: true,
			ManualMigrateAt: dur / 3,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s mode (cluster steady %.0f ops/s)\n", mode, res.SteadyRate)
		for i, ts := range res.PerSeq {
			fmt.Printf(" sequencer %d:\n", i)
			printSeries(ts, 40)
		}
	}
	return nil
}

// ---- §6.2.3: backoff ----

func backoff(ctx context.Context) error {
	fmt.Println("Backoff study (§6.2.3): aggressiveness of migration decisions")
	fmt.Println("(paper: the more conservative the approach, the less total throughput)")
	pts, err := workload.RunBackoffStudy(ctx, scaled(5*time.Second))
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %14s %12s\n", "policy", "steady ops/s", "total ops")
	for _, p := range pts {
		fmt.Printf("%-20s %14.0f %12d\n", p.Label, p.SteadyRate, p.TotalOps)
	}
	return nil
}
