// Benchmarks mapping one-to-one onto the paper's tables and figures.
// Each benchmark measures the core operation behind the corresponding
// evaluation artifact; cmd/figures regenerates the full curves. Run:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mantle"
	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/script"
	"repro/internal/wire"
	"repro/internal/zlog"
)

func bootB(b *testing.B, opts core.Options) *core.Cluster {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := core.Boot(ctx, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	return c
}

func mdsClientB(b *testing.B, c *core.Cluster, name string) *mds.Client {
	b.Helper()
	cl := c.NewMDSClient(name)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	return cl
}

// BenchmarkTable1Classes measures object-class invocation — the
// co-designed interfaces whose growth Table 1 and Figure 2 census —
// across the shipped native classes.
func BenchmarkTable1Classes(b *testing.B) {
	cluster := bootB(b, core.Options{OSDs: 2, Pools: []string{"data"}, Replicas: 1})
	ctx := context.Background()
	rc := cluster.NewRadosClient("client.bench")
	if err := rc.RefreshMap(ctx); err != nil {
		b.Fatal(err)
	}
	cases := []struct{ class, method string }{
		{"counter", "incr"}, // metadata
		{"log", "append"},   // logging
		{"lock", "info"},    // locking
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.class+"."+tc.method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = rc.Call(ctx, "data", "obj-"+tc.class, tc.class, tc.method, []byte("bench"))
			}
		})
	}
}

// touchScript is the omap read-modify-write class the class-call
// benchmarks install.
const touchScript = `
function touch(cls)
	local v = tonumber(cls.omap_get("n")) or 0
	cls.omap_set("n", tostring(v + 1))
	return tostring(v + 1)
end
`

// BenchmarkFig2ScriptClassCall measures dynamically installed (script)
// interface calls — the programmability whose adoption Figure 2 plots.
func BenchmarkFig2ScriptClassCall(b *testing.B) {
	cluster := bootB(b, core.Options{OSDs: 2, Pools: []string{"data"}, Replicas: 1})
	ctx := context.Background()
	rc := cluster.NewRadosClient("client.bench")
	monc := cluster.NewMonClient("client.bench.mon")
	if err := monc.InstallClass(ctx, "bench", touchScript, "other"); err != nil {
		b.Fatal(err)
	}
	if err := rc.RefreshMap(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := rc.Call(ctx, "data", "o", "bench", "touch", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Call(ctx, "data", "o", "bench", "touch", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapPolicy drives b.N sequencer ops under a capability policy
// with one background contender — the Figure 5 regimes.
func benchCapPolicy(b *testing.B, policy mds.CapPolicy) {
	cluster := bootB(b, core.Options{MDSs: 1, OSDs: 2})
	ctx := context.Background()
	main := mdsClientB(b, cluster, "client.main")
	rival := mdsClientB(b, cluster, "client.rival")
	if err := main.Open(ctx, "/seq", mds.TypeSequencer, &policy); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var stopped atomic.Bool
	go func() {
		for !stopped.Load() {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, _ = rival.Next(cctx, "/seq")
			cancel()
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := main.Next(ctx, "/seq"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stopped.Store(true)
	<-stop
}

// BenchmarkFig5CapPolicies: per-op cost of each hand-off policy.
func BenchmarkFig5CapPolicies(b *testing.B) {
	b.Run("best-effort", func(b *testing.B) {
		benchCapPolicy(b, mds.CapPolicy{Cacheable: true})
	})
	b.Run("delay-250ms", func(b *testing.B) {
		benchCapPolicy(b, mds.CapPolicy{Cacheable: true, Delay: 250 * time.Millisecond})
	})
	b.Run("quota-100", func(b *testing.B) {
		benchCapPolicy(b, mds.CapPolicy{Cacheable: true, Quota: 100, Delay: 250 * time.Millisecond})
	})
}

// BenchmarkFig6QuotaSweep: amortized sequencer op cost across the quota
// sweep of Figure 6.
func BenchmarkFig6QuotaSweep(b *testing.B) {
	for _, quota := range []int{1, 10, 100, 1000} {
		quota := quota
		b.Run(fmt.Sprintf("quota-%d", quota), func(b *testing.B) {
			benchCapPolicy(b, mds.CapPolicy{
				Cacheable: true, Quota: quota, Delay: 250 * time.Millisecond,
			})
		})
	}
}

// BenchmarkFig7LatencyTail reports the P99 sequencer latency (Figure
// 7's CDF tail) as a custom metric.
func BenchmarkFig7LatencyTail(b *testing.B) {
	cluster := bootB(b, core.Options{MDSs: 1, OSDs: 2})
	ctx := context.Background()
	cl := mdsClientB(b, cluster, "client.main")
	pol := mds.CapPolicy{Cacheable: true, Quota: 100, Delay: 250 * time.Millisecond}
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &pol); err != nil {
		b.Fatal(err)
	}
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := cl.Next(ctx, "/seq"); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(t0))
	}
	b.StopTimer()
	if len(lats) > 0 {
		// Simple selection of P99.
		idx := len(lats) * 99 / 100
		for i := range lats {
			for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
				lats[j], lats[j-1] = lats[j-1], lats[j]
			}
		}
		b.ReportMetric(float64(lats[min(idx, len(lats)-1)].Microseconds()), "p99-us")
	}
}

// BenchmarkFig8Propagation measures one full interface-update
// propagation wave: Paxos commit + push + flood until every OSD is
// live (Figure 8).
func BenchmarkFig8Propagation(b *testing.B) {
	cluster := bootB(b, core.Options{
		OSDs:             12,
		ProposalInterval: 5 * time.Millisecond,
		GossipFanout:     3,
	})
	ctx := context.Background()
	monc := cluster.NewMonClient("client.bench")

	version := uint64(0)
	live := make([]atomic.Uint64, len(cluster.OSDs))
	wake := make(chan struct{}, 1) // poked whenever an OSD reports a version
	for i, osd := range cluster.OSDs {
		i := i
		osd.OnClassLive(func(name string, v uint64) {
			if name != "bench.iface" {
				return
			}
			live[i].Store(v)
			select {
			case wake <- struct{}{}:
			default:
			}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		version++
		script := fmt.Sprintf("function f(cls) return %d end", version)
		if err := monc.InstallClass(ctx, "bench.iface", script, "other"); err != nil {
			b.Fatal(err)
		}
		for {
			all := true
			for j := range live {
				if live[j].Load() < version {
					all = false
					break
				}
			}
			if all {
				break
			}
			<-wake
		}
	}
}

// BenchmarkFig9Balancers measures round-trip sequencer throughput on a
// cluster whose sequencers have been spread by each strategy (the
// steady-state regime of Figure 9).
func BenchmarkFig9Balancers(b *testing.B) {
	for _, spread := range []bool{false, true} {
		name := "no-balancing"
		if spread {
			name = "balanced"
		}
		spread := spread
		b.Run(name, func(b *testing.B) {
			cluster := bootB(b, core.Options{
				MDSs: 3, OSDs: 2,
				MDS: mds.Config{
					HandleTime:  20 * time.Microsecond,
					ServiceTime: 20 * time.Microsecond,
				},
			})
			ctx := context.Background()
			cl := mdsClientB(b, cluster, "client.main")
			rt := mds.CapPolicy{}
			for i := 0; i < 3; i++ {
				path := fmt.Sprintf("/seq%d", i)
				if err := cl.Open(ctx, path, mds.TypeSequencer, &rt); err != nil {
					b.Fatal(err)
				}
			}
			if spread {
				// The balanced placement Figure 9's winners converge to.
				for i := 1; i < 3; i++ {
					if err := cluster.MDSs[0].Export(ctx, fmt.Sprintf("/seq%d", i), i, mds.ModeClient); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Next(ctx, fmt.Sprintf("/seq%d", i%3)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Modes measures per-op cost through each migration mode
// (Figures 10b/11/12): direct authority, proxy forwarding, client-mode
// redirect with coherence.
func BenchmarkFig10Modes(b *testing.B) {
	run := func(b *testing.B, mode *mds.MigrationMode) {
		cluster := bootB(b, core.Options{
			MDSs: 2, OSDs: 2,
			MDS: mds.Config{
				HandleTime:    20 * time.Microsecond,
				ServiceTime:   20 * time.Microsecond,
				CoherenceTime: 20 * time.Microsecond,
			},
		})
		ctx := context.Background()
		cl := mdsClientB(b, cluster, "client.main")
		rt := mds.CapPolicy{}
		if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &rt); err != nil {
			b.Fatal(err)
		}
		if mode != nil {
			if err := cluster.MDSs[0].Export(ctx, "/seq", 1, *mode); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cl.Next(ctx, "/seq"); err != nil { // drain redirect
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Next(ctx, "/seq"); err != nil {
				b.Fatal(err)
			}
		}
	}
	proxy, client := mds.ModeProxy, mds.ModeClient
	b.Run("direct", func(b *testing.B) { run(b, nil) })
	b.Run("proxy", func(b *testing.B) { run(b, &proxy) })
	b.Run("client-coherence", func(b *testing.B) { run(b, &client) })
}

// BenchmarkFig12ZLogAppend measures the end-to-end shared-log append —
// the operation whose throughput all of Section 6.2 optimizes.
func BenchmarkFig12ZLogAppend(b *testing.B) {
	cluster := bootB(b, core.Options{MDSs: 1, OSDs: 3, Pools: []string{"zlog"}, Replicas: 2})
	ctx := context.Background()
	l, err := zlog.Open(ctx, cluster.Net, "client.bench", cluster.MonIDs(), zlog.Options{
		Name: "bench", Pool: "zlog",
		SeqPolicy: mds.CapPolicy{Cacheable: true, Quota: 1000, Delay: time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(l.Close)
	payload := []byte("benchmark-entry-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(ctx, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadosOpsR3Delay0 is the CPU-bound replicated op mix of the
// rados-mem workload (bench/): replicas=3, no fabric delay, one client
// per CPU doing 50% WriteFull 4 KiB / 30% Read / 20% script-class Call
// over its own 1,024 objects. With no delay to hide behind, ns/op and
// allocs/op are the op path's own fixed cost; profile it with
//
//	go test -run '^$' -bench RadosOpsR3Delay0 -benchmem -cpuprofile cpu.out .
func BenchmarkRadosOpsR3Delay0(b *testing.B) {
	cluster := bootB(b, core.Options{OSDs: 3, Pools: []string{"data"}, Replicas: 3})
	ctx := context.Background()
	if err := cluster.NewMonClient("client.bench.mon").InstallClass(ctx, "bench", touchScript, "other"); err != nil {
		b.Fatal(err)
	}
	const objects = 1024
	payload := make([]byte, 4<<10)
	// One client per RunParallel worker, each over its own objects,
	// created before the timer starts.
	type client struct {
		rc    *rados.Client
		names []string
	}
	clients := make([]client, runtime.GOMAXPROCS(0))
	for c := range clients {
		rc := cluster.NewRadosClient(fmt.Sprintf("client.bench.%d", c))
		if err := rc.RefreshMap(ctx); err != nil {
			b.Fatal(err)
		}
		names := make([]string, objects)
		for o := range names {
			names[o] = fmt.Sprintf("c%d-o%04d", c, o)
			if err := rc.WriteFull(ctx, "data", names[o], payload); err != nil {
				b.Fatal(err)
			}
		}
		clients[c] = client{rc: rc, names: names}
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1) - 1
		cl := clients[id]
		rng := rand.New(rand.NewSource(id))
		for pb.Next() {
			var err error
			name := cl.names[rng.Intn(objects)]
			switch p := rng.Intn(100); {
			case p < 50:
				err = cl.rc.WriteFull(ctx, "data", name, payload)
			case p < 80:
				_, err = cl.rc.Read(ctx, "data", name)
			default:
				_, err = cl.rc.Call(ctx, "data", name, "bench", "touch", nil)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkBackoff measures Mantle policy evaluation itself — the
// per-tick cost of programmable balancing (§6.2.3's knob lives in the
// policy).
func BenchmarkBackoff(b *testing.B) {
	cluster := bootB(b, core.Options{OSDs: 2})
	ctx := context.Background()
	rc := cluster.NewRadosClient("client.bench")
	monc := cluster.NewMonClient("client.bench.mon")
	if err := mantle.InstallPolicy(ctx, rc, monc, "metadata", "bench-pol", mantle.PolicyBackoff); err != nil {
		b.Fatal(err)
	}
	bal := mantle.NewBalancer(cluster.Net, wire.Addr("client.bal"), cluster.MonIDs(), "metadata", 200*time.Millisecond)
	m, err := monc.GetMDSMap(ctx)
	if err != nil {
		b.Fatal(err)
	}
	in := mds.BalancerInput{
		WhoAmI: 0,
		Loads:  map[int]float64{0: 300, 1: 50, 2: 50},
		MDSMap: m,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bal.Decide(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPolicyGlobals installs the 16-rank tick input the fig-8 addendum
// policy benchmark evaluates PolicySequencer against.
func benchPolicyGlobals(ip *script.Interp) {
	mdsTbl := script.NewTable()
	for rank := 0; rank < 16; rank++ {
		row := script.NewTable()
		load := 50.0
		if rank == 0 {
			load = 300
		}
		row.Set("load", load)          //nolint:errcheck
		mdsTbl.Set(float64(rank), row) //nolint:errcheck
	}
	ip.SetGlobal("mds", mdsTbl)
	ip.SetGlobal("whoami", 0.0)
	ip.SetGlobal("targets", script.NewTable())
	ip.SetGlobal("mode", "client")
}

// policyEval is one fig-8 policy evaluation on the VM: the compiled
// PolicySequencer's top level, then its when() predicate.
func policyEval(tb testing.TB, chunk *script.CompiledChunk, ip *script.Interp) {
	if _, err := chunk.Run(ip); err != nil {
		tb.Fatal(err)
	}
	if _, err := ip.Call(ip.Global("when")); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkScriptVM is the Figure 8 / §6.2.3 policy workload on the
// bytecode VM: PolicySequencer compiled once, evaluated with its when()
// predicate against 16 ranks on pooled activations.
func BenchmarkScriptVM(b *testing.B) {
	chunk, err := script.Compile(mantle.PolicySequencer)
	if err != nil {
		b.Fatal(err)
	}
	ip := script.New()
	benchPolicyGlobals(ip)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policyEval(b, chunk, ip)
	}
}

// TestPolicyEvalAllocations pins BenchmarkScriptVM's allocation count:
// one evaluation allocates 100 objects — mostly boxes for the policy's
// non-integer numbers and table keys, plus its loop iterators, the when()
// closure and the result slices — and nothing per instruction. One more
// allocation anywhere on the VM's call path fails it.
func TestPolicyEvalAllocations(t *testing.T) {
	chunk, err := script.Compile(mantle.PolicySequencer)
	if err != nil {
		t.Fatal(err)
	}
	ip := script.New()
	benchPolicyGlobals(ip)
	policyEval(t, chunk, ip) // warm the activation freelist
	const maxAllocs = 100
	if got := testing.AllocsPerRun(200, func() { policyEval(t, chunk, ip) }); got > maxAllocs {
		t.Errorf("fig-8 policy evaluation: %.1f allocs, want <= %d", got, maxAllocs)
	} else {
		t.Logf("fig-8 policy evaluation: %.1f allocs", got)
	}
}
