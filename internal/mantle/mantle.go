// Package mantle is the programmable metadata load balancer of Section
// 5.1, rebuilt on Malacology's interfaces. Administrators write
// balancing policies as scripts; Mantle
//
//   - versions the active policy through the monitor's Service Metadata
//     interface (the MDSMap's BalancerVersion field, §5.1.1);
//   - stores policy bodies durably as objects in RADOS, fetched with a
//     timeout of half the balancing tick so a sick object store yields
//     an immediate error instead of a wedged metadata cluster (§5.1.2);
//   - reports errors and version changes to the centralized cluster log
//     (§5.1.3).
//
// A policy sees, per tick: `whoami` (this rank), `mds` (table of rank →
// {load=...}), and writes `targets` (rank → load to shed) plus
// optionally `mode` ("proxy" or "client") and a `when()` predicate that
// gates migration. Persistent policy state survives across ticks in the
// script's globals (the save-state facility used for backoff, §6.2.3).
package mantle

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/script"
	"repro/internal/types"
	"repro/internal/wire"
)

// Balancer implements mds.Balancer by evaluating the activated policy
// script. One Balancer serves one MDS rank.
type Balancer struct {
	rc   *rados.Client
	monc *mon.Client
	pool string
	// Tick is the balancing interval; policy fetches time out at Tick/2
	// (the paper's "half the balancing tick interval").
	tick time.Duration

	mu      sync.Mutex
	version string
	ip      *script.Interp
	chunk   *script.CompiledChunk
	// cache holds compiled policies by version so re-activating a
	// version a rank has already seen (epoch churn, A/B flips) costs
	// neither a RADOS fetch nor a parse. Bounded FIFO.
	cache      map[string]*policyEntry
	cacheOrder []string
}

// policyEntry is one cached compilation; epoch records the MDS map
// epoch that first activated it (observability: see Version/Epoch in
// logs and tests).
type policyEntry struct {
	chunk *script.CompiledChunk
	epoch types.Epoch
}

// maxCachedPolicies bounds the per-rank compiled-policy cache.
const maxCachedPolicies = 32

// NewBalancer builds a policy-driven balancer. pool holds policy
// objects; tick must match the MDS balance interval.
func NewBalancer(net *wire.Network, self wire.Addr, mons []int, pool string, tick time.Duration) *Balancer {
	if tick <= 0 {
		tick = 10 * time.Second // Ceph's default balancing tick
	}
	return &Balancer{
		rc:   rados.NewClient(net, self, mons),
		monc: mon.NewClient(net, self, mons),
		pool: pool,
		tick: tick,
	}
}

// Decide implements mds.Balancer: sync the policy to the version named
// in the MDS map, evaluate it against this tick's metrics, and read the
// migration targets back out.
func (b *Balancer) Decide(ctx context.Context, in mds.BalancerInput) (mds.Decision, error) {
	version := in.MDSMap.BalancerVersion
	if version == "" {
		return mds.Decision{}, nil // balancing not configured; not an error
	}
	if err := b.ensurePolicy(ctx, version, in.MDSMap.Epoch); err != nil {
		return mds.Decision{}, err
	}

	b.mu.Lock()
	defer b.mu.Unlock()

	// Install this tick's metrics.
	mdsTbl := script.NewTable()
	for rank, load := range in.Loads {
		row := script.NewTable()
		row.Set("load", load)          //nolint:errcheck
		mdsTbl.Set(float64(rank), row) //nolint:errcheck
	}
	inoTbl := script.NewTable()
	for i, st := range in.Inodes {
		row := script.NewTable()
		row.Set("path", st.Path)             //nolint:errcheck
		row.Set("popularity", st.Popularity) //nolint:errcheck
		inoTbl.Set(float64(i+1), row)        //nolint:errcheck
	}
	b.ip.SetGlobal("whoami", float64(in.WhoAmI))
	b.ip.SetGlobal("mds", mdsTbl)
	b.ip.SetGlobal("inodes", inoTbl)
	b.ip.SetGlobal("targets", script.NewTable())
	b.ip.SetGlobal("mode", "client")

	if _, err := b.chunk.Run(b.ip); err != nil {
		return mds.Decision{}, fmt.Errorf("mantle: policy %s: %w", version, err)
	}

	// The when() predicate gates migration (conservative policies wait
	// for conditions to settle, §6.2.3).
	if when := b.ip.Global("when"); when != nil {
		rs, err := b.ip.Call(when)
		if err != nil {
			return mds.Decision{}, fmt.Errorf("mantle: policy %s when(): %w", version, err)
		}
		if len(rs) == 0 || !script.Truthy(rs[0]) {
			return mds.Decision{}, nil
		}
	}

	dec := mds.Decision{Targets: make(map[int]float64)}
	if m, ok := b.ip.Global("mode").(string); ok && m == "proxy" {
		dec.Mode = mds.ModeProxy
	} else {
		dec.Mode = mds.ModeClient
	}
	if targets, ok := b.ip.Global("targets").(*script.Table); ok {
		targets.Pairs(func(k, v script.Value) bool {
			rank, kok := k.(float64)
			amount, vok := v.(float64)
			if kok && vok && amount > 0 {
				dec.Targets[int(rank)] = amount
			}
			return true
		})
	}
	return dec, nil
}

// ensurePolicy makes the compiled policy for version current. A version
// already in the compiled cache activates instantly — no RADOS fetch,
// no parse, no compile (the tick-path fast case). Otherwise the body is
// fetched with a read bounded by half the balancing tick: "if the
// asynchronous read does not come back within half the balancing tick
// interval the operation is canceled and a Connection Timeout error is
// returned" (§5.1.2), then compiled once and cached.
func (b *Balancer) ensurePolicy(ctx context.Context, version string, epoch types.Epoch) error {
	b.mu.Lock()
	if b.version == version {
		b.mu.Unlock()
		return nil
	}
	if ent, ok := b.cache[version]; ok {
		b.switchTo(version, ent.chunk)
		b.mu.Unlock()
		b.log(ctx, "info", fmt.Sprintf("balancer version changed to %q (cached, first seen epoch %d)", version, ent.epoch))
		return nil
	}
	b.mu.Unlock()

	fctx, cancel := context.WithTimeout(ctx, b.tick/2)
	defer cancel()
	body, err := b.rc.Read(fctx, b.pool, version)
	if err != nil {
		if fctx.Err() != nil {
			err = fmt.Errorf("connection timeout fetching balancer: %w", err)
		}
		b.log(ctx, "error", fmt.Sprintf("failed to load balancer %q: %v", version, err))
		return err
	}
	chunk, err := script.Compile(string(body))
	if err != nil {
		b.log(ctx, "error", fmt.Sprintf("balancer %q does not parse: %v", version, err))
		return err
	}
	b.mu.Lock()
	if _, ok := b.cache[version]; !ok {
		if b.cache == nil {
			b.cache = make(map[string]*policyEntry)
		}
		b.cache[version] = &policyEntry{chunk: chunk, epoch: epoch}
		b.cacheOrder = append(b.cacheOrder, version)
		if len(b.cacheOrder) > maxCachedPolicies {
			delete(b.cache, b.cacheOrder[0])
			b.cacheOrder = b.cacheOrder[1:]
		}
	}
	b.switchTo(version, chunk)
	b.mu.Unlock()
	b.log(ctx, "info", fmt.Sprintf("balancer version changed to %q", version))
	return nil
}

// switchTo installs a compiled policy as current. Callers hold b.mu.
func (b *Balancer) switchTo(version string, chunk *script.CompiledChunk) {
	b.version = version
	b.chunk = chunk
	// A fresh interpreter per version: policy globals (save-state)
	// persist across ticks but not across versions.
	b.ip = script.New()
}

func (b *Balancer) log(ctx context.Context, level, msg string) {
	lctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	b.monc.Log(lctx, level, msg) //nolint:errcheck
}

// InstallPolicy writes a policy body to the pool and activates it via
// the monitor — the two-step (durable body, versioned pointer) flow of
// §5.1.1-5.1.2.
func InstallPolicy(ctx context.Context, rc *rados.Client, monc *mon.Client, pool, version, body string) error {
	if _, err := script.Compile(body); err != nil {
		return fmt.Errorf("mantle: policy %q does not parse: %w", version, err)
	}
	if err := rc.WriteFull(ctx, pool, version, []byte(body)); err != nil {
		return fmt.Errorf("mantle: store policy: %w", err)
	}
	if err := monc.SetBalancerVersion(ctx, version); err != nil {
		return fmt.Errorf("mantle: activate policy: %w", err)
	}
	return nil
}
