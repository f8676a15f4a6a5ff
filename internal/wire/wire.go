// Package wire is the in-process message fabric that every Malacology
// daemon (monitors, object storage daemons, metadata servers) and client
// communicates over. It stands in for the paper's data-center network:
// per-message latency with jitter, probabilistic drops, and pairwise
// partitions are all injectable, which is what lets the test suite and
// benchmark harness reproduce failure and contention scenarios from the
// evaluation without physical hardware.
package wire

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Addr names an endpoint on the fabric, e.g. "mon.0", "osd.17", "mds.a",
// "client.42".
type Addr string

// Handler processes a request addressed to an endpoint and returns a
// response. Handlers run on the caller's goroutine for Call and on a
// fresh goroutine for Send, so they must be safe for concurrent use. A
// handler whose reply is decided before its work is done returns a
// Deferred.
type Handler func(ctx context.Context, from Addr, req any) (any, error)

// Deferred is a handler's reply together with work to run after it: the
// caller receives Reply, and the fabric runs RunLater once the handler
// has returned. At zero delay RunLater runs on the caller's goroutine
// before Call returns, so the caller observes everything it did; at a
// nonzero delay it starts on its own goroutine while the reply is in
// transit, under the handler's context stripped of its cancellation
// (the caller may be done with it before the work is).
type Deferred interface {
	Reply() any
	RunLater(ctx context.Context)
}

// runAfter unwraps a Deferred reply and runs its work as the fabric's
// rule says for delay d; any other reply passes through.
func runAfter(ctx context.Context, resp any, d time.Duration) any {
	dr, ok := resp.(Deferred)
	if !ok {
		return resp
	}
	if d <= 0 {
		dr.RunLater(ctx)
	} else {
		go dr.RunLater(context.WithoutCancel(ctx))
	}
	return dr.Reply()
}

// Errors returned by the fabric itself (as opposed to by handlers).
var (
	ErrUnreachable = errors.New("wire: endpoint unreachable")
	ErrDropped     = errors.New("wire: message dropped")
	ErrPartitioned = errors.New("wire: endpoints partitioned")
)

// Stats counts fabric traffic; useful for asserting message complexity.
type Stats struct {
	Calls   uint64
	Sends   uint64
	Drops   uint64
	Refused uint64
	// Outbound breaks Call traffic down by calling endpoint. MaxInflight
	// is the high-water mark of concurrent Calls in flight from that
	// address — the observable signature of parallel fan-out.
	Outbound map[Addr]EndpointStats
}

// EndpointStats is the per-caller view of outbound Call traffic.
type EndpointStats struct {
	Calls       uint64
	Inflight    uint64
	MaxInflight uint64
}

// endpointStat is one caller's live counters, updated without a lock.
type endpointStat struct {
	calls       atomic.Uint64
	inflight    atomic.Uint64
	maxInflight atomic.Uint64
}

// FaultEvent describes one runtime change to the fabric's fault state:
// a partition, a heal, or a latency/drop-rate adjustment. The chaos
// harness subscribes to these to build its event log from the fabric's
// own view of what was injected.
type FaultEvent struct {
	Kind   string // "partition", "heal-all", "drop-rate", "link-drop", "latency"
	A, B   Addr   // the affected pair, when pairwise
	Rate   float64
	Base   time.Duration
	Jitter time.Duration
}

// Network is an in-process fabric. The zero value is not usable; call
// NewNetwork.
type Network struct {
	// routes is the fabric's endpoint and fault state, published
	// copy-on-write: a route reads it with one atomic load, and every
	// setter publishes a new snapshot under mu.
	routes  atomic.Pointer[routeState]
	mu      sync.Mutex       // serializes setters
	onFault func(FaultEvent) // guarded by mu
	rng     *rand.Rand
	rngMu   sync.Mutex

	sends   atomic.Uint64
	drops   atomic.Uint64
	refused atomic.Uint64

	// outbound is copy-on-write: Call reads the current map with one
	// atomic load, and only the first Call from a new address takes
	// outMu to publish a copy holding its entry. Its entries' counts
	// sum to Stats.Calls, so no Call updates a counter every caller
	// shares.
	outMu    sync.Mutex
	outbound atomic.Pointer[map[Addr]*endpointStat]
}

// routeState is one published snapshot of what routing reads. It is
// never written once published: a setter copies it, replaces the map it
// changes with an edited copy, and publishes the result.
type routeState struct {
	endpoints  map[Addr]Handler
	partitions map[[2]Addr]bool    // nil when no pair is severed
	linkDrop   map[[2]Addr]float64 // nil when no link has an override
	latency    time.Duration
	jitter     time.Duration
	dropRate   float64
}

// faultFree reports whether no pair is severed and no link has its own
// drop rate: a route then needs no pair lookup.
func (s *routeState) faultFree() bool { return s.partitions == nil && s.linkDrop == nil }

// update publishes the snapshot fn makes of a copy of the current one.
func (n *Network) update(fn func(s *routeState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := *n.routes.Load()
	fn(&s)
	n.routes.Store(&s)
}

// withKey returns a copy of m with k set to v, or deleted when del; an
// empty result is nil.
func withKey[V any](m map[[2]Addr]V, k [2]Addr, v V, del bool) map[[2]Addr]V {
	out := maps.Clone(m)
	if out == nil {
		out = make(map[[2]Addr]V, 1)
	}
	if del {
		delete(out, k)
	} else {
		out[k] = v
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the one-way delivery delay and its uniform jitter.
func WithLatency(base, jitter time.Duration) Option {
	return func(n *Network) {
		n.update(func(s *routeState) { s.latency, s.jitter = base, jitter })
	}
}

// WithSeed seeds the fabric's random source so drop/jitter sequences are
// reproducible.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewNetwork builds a fabric. By default delivery is immediate, lossless
// and unpartitioned.
func NewNetwork(opts ...Option) *Network {
	n := &Network{rng: rand.New(rand.NewSource(1))}
	n.routes.Store(&routeState{endpoints: map[Addr]Handler{}})
	n.outbound.Store(&map[Addr]*endpointStat{})
	for _, o := range opts {
		o(n)
	}
	return n
}

// Listen registers handler at addr, replacing any previous registration.
func (n *Network) Listen(addr Addr, h Handler) {
	n.update(func(s *routeState) {
		s.endpoints = maps.Clone(s.endpoints)
		s.endpoints[addr] = h
	})
}

// Unlisten removes addr from the fabric; subsequent messages to it fail
// with ErrUnreachable. Use it to simulate daemon crashes.
func (n *Network) Unlisten(addr Addr) {
	n.update(func(s *routeState) {
		s.endpoints = maps.Clone(s.endpoints)
		delete(s.endpoints, addr)
	})
}

// OnFault registers a hook invoked (synchronously, outside the fabric
// lock) after every runtime fault-state change. One hook at a time; nil
// unregisters. Register before injecting faults.
func (n *Network) OnFault(fn func(FaultEvent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onFault = fn
}

// notifyFault delivers ev to the registered hook, if any.
func (n *Network) notifyFault(ev FaultEvent) {
	n.mu.Lock()
	fn := n.onFault
	n.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// Partition severs connectivity between a and b (both directions).
func (n *Network) Partition(a, b Addr) {
	n.update(func(s *routeState) { s.partitions = withKey(s.partitions, pairKey(a, b), true, false) })
	n.notifyFault(FaultEvent{Kind: "partition", A: a, B: b})
}

// HealAll removes every partition and per-link drop override.
func (n *Network) HealAll() {
	n.update(func(s *routeState) { s.partitions, s.linkDrop = nil, nil })
	n.notifyFault(FaultEvent{Kind: "heal-all"})
}

// SetLatency adjusts delivery delay at runtime.
func (n *Network) SetLatency(base, jitter time.Duration) {
	n.update(func(s *routeState) { s.latency, s.jitter = base, jitter })
	n.notifyFault(FaultEvent{Kind: "latency", Base: base, Jitter: jitter})
}

// SetDropRate adjusts message loss probability at runtime.
func (n *Network) SetDropRate(p float64) {
	n.update(func(s *routeState) { s.dropRate = p })
	n.notifyFault(FaultEvent{Kind: "drop-rate", Rate: p})
}

// SetLinkDropRate sets a loss probability for the a<->b link alone,
// overriding the global rate when higher (a flaky cable rather than a
// congested fabric). p <= 0 clears the override.
func (n *Network) SetLinkDropRate(a, b Addr, p float64) {
	n.update(func(s *routeState) { s.linkDrop = withKey(s.linkDrop, pairKey(a, b), p, p <= 0) })
	n.notifyFault(FaultEvent{Kind: "link-drop", A: a, B: b, Rate: p})
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	s := Stats{
		Sends:   n.sends.Load(),
		Drops:   n.drops.Load(),
		Refused: n.refused.Load(),
	}
	out := *n.outbound.Load()
	s.Outbound = make(map[Addr]EndpointStats, len(out))
	for a, e := range out {
		es := EndpointStats{
			Calls:       e.calls.Load(),
			Inflight:    e.inflight.Load(),
			MaxInflight: e.maxInflight.Load(),
		}
		s.Outbound[a] = es
		s.Calls += es.Calls
	}
	return s
}

// callBegin marks a Call leaving from and updates its inflight high-water
// mark; callEnd on the returned entry must follow once the Call completes.
func (n *Network) callBegin(from Addr) *endpointStat {
	e := (*n.outbound.Load())[from]
	if e == nil {
		e = n.addOutbound(from)
	}
	e.calls.Add(1)
	cur := e.inflight.Add(1)
	for {
		hi := e.maxInflight.Load()
		if cur <= hi || e.maxInflight.CompareAndSwap(hi, cur) {
			return e
		}
	}
}

func (n *Network) callEnd(e *endpointStat) { e.inflight.Add(^uint64(0)) }

// addOutbound publishes a counters entry for an address seen for the
// first time (or returns the one a racing Call just published).
func (n *Network) addOutbound(from Addr) *endpointStat {
	n.outMu.Lock()
	defer n.outMu.Unlock()
	old := *n.outbound.Load()
	if e := old[from]; e != nil {
		return e
	}
	grown := make(map[Addr]*endpointStat, len(old)+1)
	for a, e := range old {
		grown[a] = e
	}
	e := &endpointStat{}
	grown[from] = e
	n.outbound.Store(&grown)
	return e
}

func pairKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}

// route validates reachability and returns the handler plus the one-way
// delay to apply. On a fault-free fabric it is one atomic load and one
// endpoint lookup; the pair lookups run only while some pair is severed
// or some link has its own drop rate.
func (n *Network) route(from, to Addr) (Handler, time.Duration, error) {
	s := n.routes.Load()
	drop := s.dropRate
	if !s.faultFree() {
		k := pairKey(from, to)
		if s.partitions[k] {
			n.refused.Add(1)
			return nil, 0, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, from, to)
		}
		if ld := s.linkDrop[k]; ld > drop {
			drop = ld
		}
	}
	h, ok := s.endpoints[to]
	if !ok {
		n.refused.Add(1)
		return nil, 0, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if drop > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < drop
		n.rngMu.Unlock()
		if lost {
			n.drops.Add(1)
			return nil, 0, ErrDropped
		}
	}
	d := s.latency
	if s.jitter > 0 {
		n.rngMu.Lock()
		d += time.Duration(n.rng.Int63n(int64(s.jitter)))
		n.rngMu.Unlock()
	}
	return h, d, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 || !wait(ctx.Done(), d) {
		return ctx.Err()
	}
	return nil
}

// wait waits out a delivery delay d > 0 on a runtime timer, or until
// done closes (a nil done never does), and reports whether the delay
// elapsed. The timer is set before the doorbell rings, so the doorbell
// never wakes the runtime before the timer is due.
func wait(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	at := ring(d)
	select {
	case <-t.C:
		woke(at)
		return true
	case <-done:
		return false
	}
}

// Call performs a round-trip RPC: request latency, handler execution,
// response latency. It is the fabric's synchronous primitive.
func (n *Network) Call(ctx context.Context, from, to Addr, req any) (any, error) {
	h, d, err := n.route(from, to)
	if err != nil {
		return nil, err
	}
	defer n.callEnd(n.callBegin(from))
	if err := sleepCtx(ctx, d); err != nil {
		return nil, err
	}
	resp, err := h(ctx, from, req)
	if err != nil {
		return nil, err
	}
	resp = runAfter(ctx, resp, d)
	// The response travels back under the same delay; once the request
	// was delivered the reply is considered in flight, so later drops or
	// partitions do not affect it.
	if err := sleepCtx(ctx, d); err != nil {
		return nil, err
	}
	return resp, nil
}

// Send delivers req one-way without waiting for handler completion. The
// handler's return value is discarded. Delivery failures are silent, as
// on a real network.
func (n *Network) Send(from, to Addr, req any) {
	h, d, err := n.route(from, to)
	if err != nil {
		return
	}
	n.sends.Add(1)
	go func() {
		if d > 0 {
			wait(nil, d)
		}
		resp, err := h(context.Background(), from, req)
		if err == nil {
			// Nobody receives the reply, so a Deferred's work runs here.
			runAfter(context.Background(), resp, 0)
		}
	}()
}

// Broadcast sends req one-way to every listed destination.
func (n *Network) Broadcast(from Addr, to []Addr, req any) {
	for _, t := range to {
		n.Send(from, t, req)
	}
}
