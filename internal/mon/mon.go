// Package mon implements the Malacology monitor service: a small Paxos
// quorum that integrates cluster-state changes into epoch-versioned maps,
// answers requests from out-of-date clients, and pushes updates to
// subscribed daemons (Section 4.1 of the paper). On top of the consensus
// engine it exposes:
//
//   - the Service Metadata interface: a strongly consistent key-value
//     bucket on each cluster map;
//   - dynamic object-interface installation: script classes embedded in
//     the OSDMap and propagated cluster-wide (Section 4.2, Figure 8);
//   - Mantle balancer-version management (Section 5.1.1);
//   - the centralized cluster log (Section 5.1.3).
//
// Proposals are batched: pending updates accumulate and are committed as
// one Paxos value per proposal interval (1 s by default in Ceph; the
// paper tunes it to ~222 ms on a 3-monitor quorum).
package mon

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/paxos"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config describes one monitor.
type Config struct {
	// ID is this monitor's rank.
	ID int
	// Peers lists all monitor ranks, including this one.
	Peers []int
	// ProposalInterval batches updates; one Paxos proposal fires per
	// interval when updates are pending.
	ProposalInterval time.Duration
	// GossipFanout bounds how many OSD subscribers this monitor pushes
	// each OSDMap update to directly (pushTargets picks which); the rest
	// learn it from their peers (Section 4.4). Zero means push to every
	// subscriber.
	GossipFanout int
	// BeaconTimeout marks daemons down when their liveness beacons go
	// silent for this long; zero disables failure detection.
	BeaconTimeout time.Duration
	// Paxos overrides consensus timing; zero values take defaults.
	Paxos paxos.Config
}

// Addr returns the wire address of monitor id.
func Addr(id int) wire.Addr {
	return wire.Addr(types.EntityName(types.EntityMon, id))
}

// LogEntry is one line of the centralized cluster log.
type LogEntry struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	Level  string    `json:"level"`
	Source string    `json:"source"`
	Msg    string    `json:"msg"`
}

// ---- RPC message types ----

// SubmitReq asks the monitor to commit an update. Forwarded marks a
// monitor-to-monitor relay, which is never relayed again (hop bound).
type SubmitReq struct {
	Update    types.Update
	Forwarded bool
}

// SubmitResp reports the outcome; on a non-leader monitor with
// forwarding disabled, Leader hints where to retry. A committed update
// is answered with the map of each kind it changed, as published by
// the commit that applied it (or a later one).
type SubmitResp struct {
	OK     bool
	Err    string
	Leader int
	Maps
}

// Maps carries cluster maps as a monitor published them; a kind not
// asked for (or not changed) is nil. Published maps are shared with
// every push and reply, and never written again.
type Maps struct {
	OSD *types.OSDMap
	MDS *types.MDSMap
}

// GetMapReq fetches the newest map of the given kind. Reads are served
// by the leader for read-your-writes consistency; Forwarded bounds the
// relay to one hop.
type GetMapReq struct {
	Kind      string
	Forwarded bool
}

// GetMapResp carries the requested map (one field set).
type GetMapResp struct {
	OSD *types.OSDMap
	MDS *types.MDSMap
}

// SubscribeReq registers addr for push notification of map changes.
// The reply is a Maps holding the monitor's current map of each kind
// subscribed to: every epoch published before the subscription was
// installed is covered by it, every later one by a push.
type SubscribeReq struct {
	Addr  wire.Addr
	Kinds []string
}

// MapNotify is pushed to subscribers when a map changes.
type MapNotify struct {
	Kind string
	OSD  *types.OSDMap
	MDS  *types.MDSMap
}

// BeaconReq is a daemon liveness report (Kind is "osd" or "mds").
type BeaconReq struct {
	Kind string
	ID   int
}

// LogReq appends to the centralized cluster log.
type LogReq struct {
	Level  string
	Source string
	Msg    string
}

// GetLogReq fetches the cluster log tail.
type GetLogReq struct{ Last int }

// GetLogResp returns log entries.
type GetLogResp struct{ Entries []LogEntry }

// pendingUpdate couples an update with its commit signal.
type pendingUpdate struct {
	u    types.Update
	done chan committed
}

// committed is a proposal's outcome, as handed to each of its updates.
type committed struct {
	maps Maps // the published maps once the proposal applied
	err  error
}

// Monitor is one daemon of the monitor quorum.
type Monitor struct {
	cfg  Config
	rank int // position of cfg.ID in cfg.Peers
	net  *wire.Network
	px   *paxos.Node

	mu          sync.Mutex
	osdMap      *types.OSDMap                 // guarded by mu
	mdsMap      *types.MDSMap                 // guarded by mu
	log         []LogEntry                    // guarded by mu; a ring: Seq s at (s-1) % logCap
	logSeq      int                           // guarded by mu; the last Seq appended
	pending     []pendingUpdate               // guarded by mu
	subscribers map[wire.Addr]map[string]bool // guarded by mu
	lastBeacon  map[string]time.Time          // guarded by mu; "kind.id" -> last report
	// published holds the maps as of the last applied Paxos slot: the
	// clones applyCommitted pushes, and what commits and subscriptions
	// are answered with. applied counts the slots applied so far.
	published Maps   // guarded by mu
	applied   uint64 // guarded by mu

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New constructs a monitor bound to the fabric. Call Start to join the
// quorum.
func New(net *wire.Network, cfg Config) *Monitor {
	if cfg.ProposalInterval <= 0 {
		cfg.ProposalInterval = time.Second
	}
	if cfg.Paxos.HeartbeatInterval <= 0 {
		cfg.Paxos = paxos.DefaultConfig()
	}
	m := &Monitor{
		cfg:         cfg,
		net:         net,
		osdMap:      types.NewOSDMap(),
		mdsMap:      types.NewMDSMap(),
		subscribers: make(map[wire.Addr]map[string]bool),
		lastBeacon:  make(map[string]time.Time),
		published:   Maps{OSD: types.NewOSDMap(), MDS: types.NewMDSMap()},
		stopCh:      make(chan struct{}),
	}
	peers := make([]paxos.NodeID, len(cfg.Peers))
	for i, p := range cfg.Peers {
		peers[i] = paxos.NodeID(p)
		if p == cfg.ID {
			m.rank = i
		}
	}
	tr := &monTransport{net: net, self: paxos.NodeID(cfg.ID), peers: peers}
	m.px = paxos.NewNode(tr, cfg.Paxos, m.applyCommitted)
	return m
}

// monTransport carries Paxos traffic over the shared monitor endpoint.
type monTransport struct {
	net   *wire.Network
	self  paxos.NodeID
	peers []paxos.NodeID
}

func (t *monTransport) Call(ctx context.Context, to paxos.NodeID, msg paxos.Msg) (paxos.Msg, error) {
	r, err := t.net.Call(ctx, Addr(int(t.self)), Addr(int(to)), msg)
	if err != nil {
		return paxos.Msg{}, err
	}
	return r.(paxos.Msg), nil
}

func (t *monTransport) Self() paxos.NodeID    { return t.self }
func (t *monTransport) Peers() []paxos.NodeID { return t.peers }

// Start registers the monitor on the fabric and launches the proposal
// and election loops.
func (m *Monitor) Start() {
	m.net.Listen(Addr(m.cfg.ID), m.handle)
	m.px.Start()
	m.wg.Add(1)
	go m.proposalLoop()
	if m.cfg.BeaconTimeout > 0 {
		m.wg.Add(1)
		go m.beaconLoop()
	}
}

// Stop removes the monitor from the fabric.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.px.Stop()
	m.net.Unlisten(Addr(m.cfg.ID))
	m.wg.Wait()
}

// MapEpochs returns this monitor's locally applied map epochs (no
// leader forwarding). Harnesses use it to audit that each individual
// monitor's view only ever moves forward.
func (m *Monitor) MapEpochs() (osd, mds types.Epoch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.osdMap.Epoch, m.mdsMap.Epoch
}

// Lead forces this monitor to run an election now; used by bootstrap
// code and tests that cannot wait for timeout-driven elections.
func (m *Monitor) Lead(ctx context.Context) error { return m.px.BecomeLeader(ctx) }

// handle is the single fabric endpoint: Paxos traffic and client RPCs.
func (m *Monitor) handle(ctx context.Context, from wire.Addr, req any) (any, error) {
	switch r := req.(type) {
	case paxos.Msg:
		return m.px.Handle(ctx, r)
	case SubmitReq:
		return m.handleSubmit(ctx, r)
	case GetMapReq:
		return m.handleGetMap(ctx, r)
	case SubscribeReq:
		var cur Maps
		m.mu.Lock()
		if m.subscribers[r.Addr] == nil {
			m.subscribers[r.Addr] = make(map[string]bool)
		}
		for _, k := range r.Kinds {
			m.subscribers[r.Addr][k] = true
			cur.add(k, m.published)
		}
		m.mu.Unlock()
		return cur, nil
	case BeaconReq:
		m.mu.Lock()
		m.lastBeacon[fmt.Sprintf("%s.%d", r.Kind, r.ID)] = time.Now()
		m.mu.Unlock()
		return true, nil
	case LogReq:
		m.appendLog(r.Level, r.Source, r.Msg)
		return true, nil
	case GetLogReq:
		m.mu.Lock()
		defer m.mu.Unlock()
		first := max(r.Last+1, m.logSeq-len(m.log)+1)
		var out []LogEntry
		for seq := first; seq <= m.logSeq; seq++ {
			out = append(out, m.log[(seq-1)%logCap])
		}
		return GetLogResp{Entries: out}, nil
	}
	return nil, fmt.Errorf("mon.%d: unknown request %T from %s", m.cfg.ID, req, from)
}

func (m *Monitor) handleSubmit(ctx context.Context, r SubmitReq) (any, error) {
	if !m.px.IsLeader() {
		hint := int(m.px.LeaderHint())
		if r.Forwarded {
			return SubmitResp{OK: false, Err: "not leader", Leader: hint}, nil
		}
		// Forward to the believed leader rather than bouncing the client;
		// with no hint, probe the other monitors in rank order.
		targets := []int{}
		if hint >= 0 && hint != m.cfg.ID {
			targets = append(targets, hint)
		} else {
			for _, p := range m.cfg.Peers {
				if p != m.cfg.ID {
					targets = append(targets, p)
				}
			}
		}
		fwd := r
		fwd.Forwarded = true
		for _, to := range targets {
			resp, err := m.net.Call(ctx, Addr(m.cfg.ID), Addr(to), fwd)
			if err != nil {
				continue
			}
			if sr, ok := resp.(SubmitResp); ok && sr.OK {
				return resp, nil
			}
		}
		return SubmitResp{OK: false, Err: "not leader", Leader: hint}, nil
	}
	done := make(chan committed, 1)
	m.mu.Lock()
	m.pending = append(m.pending, pendingUpdate{u: r.Update, done: done})
	m.mu.Unlock()

	select {
	case c := <-done:
		if c.err != nil {
			return SubmitResp{OK: false, Err: c.err.Error(), Leader: m.cfg.ID}, nil
		}
		resp := SubmitResp{OK: true, Leader: m.cfg.ID}
		for _, op := range r.Update.Ops {
			resp.add(mapOf(op), c.maps)
		}
		return resp, nil
	case <-ctx.Done():
		return SubmitResp{OK: false, Err: ctx.Err().Error(), Leader: m.cfg.ID}, nil
	}
}

func (m *Monitor) handleGetMap(ctx context.Context, r GetMapReq) (any, error) {
	if !m.px.IsLeader() && !r.Forwarded {
		// Serve reads from the leader so a client that just wrote through
		// a forwarded submit reads its own write. On failure fall back to
		// this monitor's (possibly slightly stale) state.
		hint := int(m.px.LeaderHint())
		if hint >= 0 && hint != m.cfg.ID {
			fwd := r
			fwd.Forwarded = true
			if resp, err := m.net.Call(ctx, Addr(m.cfg.ID), Addr(hint), fwd); err == nil {
				return resp, nil
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Kind {
	case types.MapOSD:
		return GetMapResp{OSD: m.osdMap.Clone()}, nil
	case types.MapMDS:
		return GetMapResp{MDS: m.mdsMap.Clone()}, nil
	}
	return nil, fmt.Errorf("mon: unknown map kind %q", r.Kind)
}

// proposalLoop drains the pending queue once per proposal interval,
// committing all queued updates as a single Paxos value.
func (m *Monitor) proposalLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ProposalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			m.failPending(fmt.Errorf("monitor stopping"))
			return
		case <-ticker.C:
		}
		if !m.px.IsLeader() {
			continue
		}
		m.mu.Lock()
		batch := m.pending
		m.pending = nil
		m.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		updates := make([]types.Update, len(batch))
		for i, p := range batch {
			updates[i] = p.u
		}
		var c committed
		val, err := types.EncodeUpdates(updates)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			var slot uint64
			slot, err = m.px.Propose(ctx, val)
			cancel()
			c.maps = m.publishedThrough(slot)
		}
		c.err = err
		for _, p := range batch {
			p.done <- c
		}
	}
}

// publishedThrough returns the published maps if slot has been applied.
// A slot chosen behind a gap applies only once the gap fills, so its
// proposer can be answered before then: with no maps.
func (m *Monitor) publishedThrough(slot uint64) Maps {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.applied <= slot {
		return Maps{}
	}
	return m.published
}

// beaconLoop is the failure detector: when a daemon's beacons go silent
// past the timeout, the leader proposes marking it down so placement,
// balancing, and recovery can react (the paper's "autonomously initiate
// recovery mechanisms when failures are discovered").
func (m *Monitor) beaconLoop() {
	defer m.wg.Done()
	interval := m.cfg.BeaconTimeout / 2
	if interval <= 0 {
		interval = m.cfg.BeaconTimeout
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-ticker.C:
		}
		if !m.px.IsLeader() {
			continue
		}
		now := time.Now()
		m.mu.Lock()
		var ops []types.Op
		for key, last := range m.lastBeacon {
			if now.Sub(last) <= m.cfg.BeaconTimeout {
				continue
			}
			var id int
			if n, err := fmt.Sscanf(key, "osd.%d", &id); err == nil && n == 1 {
				if info, ok := m.osdMap.OSDs[id]; ok && info.State == types.StateUp {
					ops = append(ops, types.Op{Code: types.OpOSDDown, Key: strconv.Itoa(id)})
				}
				delete(m.lastBeacon, key)
			} else if n, err := fmt.Sscanf(key, "mds.%d", &id); err == nil && n == 1 {
				if info, ok := m.mdsMap.Ranks[id]; ok && info.State == types.StateUp {
					ops = append(ops, types.Op{Code: types.OpMDSDown, Key: strconv.Itoa(id)})
				}
				delete(m.lastBeacon, key)
			}
		}
		if len(ops) > 0 {
			m.pending = append(m.pending, pendingUpdate{
				u:    types.Update{Source: fmt.Sprintf("mon.%d", m.cfg.ID), Ops: ops},
				done: make(chan committed, 1),
			})
		}
		m.mu.Unlock()
	}
}

func (m *Monitor) failPending(err error) {
	m.mu.Lock()
	batch := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, p := range batch {
		p.done <- committed{err: err}
	}
}

// applyCommitted is the Paxos apply callback: decode the batch and fold
// every op into the state machine, bumping epochs once per touched map
// and publishing each touched map.
func (m *Monitor) applyCommitted(slot uint64, value []byte) {
	updates, err := types.DecodeUpdates(value)
	m.mu.Lock()
	m.applied = slot + 1
	if err != nil {
		m.appendLogLocked("error", fmt.Sprintf("mon.%d", m.cfg.ID), "undecodable paxos value: "+err.Error())
		m.mu.Unlock()
		return
	}
	osdTouched, mdsTouched := false, false
	for _, u := range updates {
		for _, op := range u.Ops {
			if m.applyOp(u.Source, op) {
				osdTouched = osdTouched || mapOf(op) == types.MapOSD
				mdsTouched = mdsTouched || mapOf(op) == types.MapMDS
			}
		}
	}
	var notifyOSD *types.OSDMap
	var notifyMDS *types.MDSMap
	var osdSubs, mdsSubs []wire.Addr
	if osdTouched {
		m.osdMap.Epoch++
		notifyOSD = m.osdMap.Clone()
		m.published.OSD = notifyOSD
		osdSubs = m.subscribersLocked(types.MapOSD)
	}
	if mdsTouched {
		m.mdsMap.Epoch++
		notifyMDS = m.mdsMap.Clone()
		m.published.MDS = notifyMDS
		mdsSubs = m.subscribersLocked(types.MapMDS)
	}
	m.mu.Unlock()

	if notifyOSD != nil {
		to := pushTargets(osdSubs, m.cfg.GossipFanout, m.rank, notifyOSD.Epoch)
		m.net.Broadcast(Addr(m.cfg.ID), to, MapNotify{Kind: types.MapOSD, OSD: notifyOSD})
	}
	if notifyMDS != nil {
		m.net.Broadcast(Addr(m.cfg.ID), mdsSubs, MapNotify{Kind: types.MapMDS, MDS: notifyMDS})
	}
}

// subscribersLocked returns the addresses subscribed to kind in one
// order on every monitor of the quorum: shorter first, so that osd.2
// sorts before osd.10 and the order of OSD subscribers is that of their
// ids.
func (m *Monitor) subscribersLocked(kind string) []wire.Addr {
	var out []wire.Addr
	for a, kinds := range m.subscribers {
		if kinds[kind] {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// pushTargets picks which of subs (sorted) the monitor of the given rank
// pushes epoch to directly. fanout <= 0 pushes to all of them. Otherwise
// each monitor takes a window of fanout subscribers starting at
// epoch + rank*fanout, wrapping: the quorum's windows are disjoint (as
// far as the subscriber count allows) entry points into the OSDs' flood
// tree, and successive epochs rotate them. The remaining subscribers
// learn the map from their peers (rados.OSD.floodMap, gossipLoop). Any
// entry points cover the tree; while every subscribed OSD is up, these
// are its root and the positions after it, the shortest way down.
func pushTargets(subs []wire.Addr, fanout, rank int, epoch types.Epoch) []wire.Addr {
	n := len(subs)
	if fanout <= 0 || fanout >= n {
		return subs
	}
	start := int((uint64(epoch) + uint64(rank*fanout)) % uint64(n))
	if start+fanout <= n {
		return subs[start : start+fanout]
	}
	return append(subs[start:n:n], subs[:start+fanout-n]...)
}

// mapOf names the map op belongs to.
func mapOf(op types.Op) string {
	switch op.Code {
	case types.OpMDSBoot, types.OpMDSDown, types.OpBalancerSet:
		return types.MapMDS
	case types.OpServiceSet, types.OpServiceDel:
		if op.Map == types.MapMDS {
			return types.MapMDS
		}
	}
	return types.MapOSD
}

// add sets a's map of kind from src.
func (a *Maps) add(kind string, src Maps) {
	switch kind {
	case types.MapOSD:
		a.OSD = src.OSD
	case types.MapMDS:
		a.MDS = src.MDS
	}
}

// applyOp folds one op into the map mapOf names; it reports whether the
// map changed. Caller holds m.mu.
func (m *Monitor) applyOp(source string, op types.Op) bool {
	switch op.Code {
	case types.OpOSDBoot:
		id, err := strconv.Atoi(op.Key)
		if err != nil {
			m.appendLogLocked("error", source, fmt.Sprintf("osd boot with bad id %q ignored: %v", op.Key, err))
			return false
		}
		m.osdMap.OSDs[id] = types.OSDInfo{ID: id, Addr: op.Value, State: types.StateUp}
		return true
	case types.OpOSDDown:
		id, err := strconv.Atoi(op.Key)
		if err != nil {
			m.appendLogLocked("error", source, fmt.Sprintf("osd down with bad id %q ignored: %v", op.Key, err))
			return false
		}
		if info, ok := m.osdMap.OSDs[id]; ok {
			info.State = types.StateDown
			m.osdMap.OSDs[id] = info
			m.appendLogLocked("warn", source, fmt.Sprintf("osd.%d marked down", id))
		}
		return true
	case types.OpMDSBoot:
		rank, err := strconv.Atoi(op.Key)
		if err != nil {
			m.appendLogLocked("error", source, fmt.Sprintf("mds boot with bad rank %q ignored: %v", op.Key, err))
			return false
		}
		m.mdsMap.Ranks[rank] = types.MDSInfo{Rank: rank, Addr: op.Value, State: types.StateUp}
		return true
	case types.OpMDSDown:
		rank, err := strconv.Atoi(op.Key)
		if err != nil {
			m.appendLogLocked("error", source, fmt.Sprintf("mds down with bad rank %q ignored: %v", op.Key, err))
			return false
		}
		if info, ok := m.mdsMap.Ranks[rank]; ok {
			info.State = types.StateDown
			m.mdsMap.Ranks[rank] = info
			m.appendLogLocked("warn", source, fmt.Sprintf("mds.%d marked down", rank))
		}
		return true
	case types.OpPoolCreate:
		pg, err := strconv.Atoi(op.Value)
		if err != nil && op.Value != "" {
			m.appendLogLocked("warn", source, fmt.Sprintf("pool %q create: bad pg_num %q, using default", op.Key, op.Value))
		}
		reps, err := strconv.Atoi(op.Aux)
		if err != nil && op.Aux != "" {
			m.appendLogLocked("warn", source, fmt.Sprintf("pool %q create: bad replicas %q, using default", op.Key, op.Aux))
		}
		if pg <= 0 {
			pg = 8
		}
		if reps <= 0 {
			reps = 1
		}
		m.osdMap.Pools[op.Key] = types.PoolInfo{Name: op.Key, PGNum: pg, Replicas: reps}
		return true
	case types.OpPoolResize:
		pi, ok := m.osdMap.Pools[op.Key]
		if !ok {
			m.appendLogLocked("error", source, fmt.Sprintf("resize of unknown pool %q ignored", op.Key))
			return false
		}
		pg, err := strconv.Atoi(op.Value)
		if err != nil {
			m.appendLogLocked("error", source, fmt.Sprintf("pool %q resize with bad pg_num %q ignored: %v", op.Key, op.Value, err))
			return false
		}
		if pg <= pi.PGNum {
			m.appendLogLocked("error", source, fmt.Sprintf("pool %q resize to %d <= current %d ignored", op.Key, pg, pi.PGNum))
			return false
		}
		pi.PGNum = pg
		m.osdMap.Pools[op.Key] = pi
		m.appendLogLocked("info", source, fmt.Sprintf("pool %q split to %d PGs", op.Key, pg))
		return true
	case types.OpClassInstall:
		prev := m.osdMap.Classes[op.Key]
		m.osdMap.Classes[op.Key] = types.ClassDef{
			Name:     op.Key,
			Version:  prev.Version + 1,
			Script:   op.Value,
			Category: op.Aux,
		}
		m.appendLogLocked("info", source, fmt.Sprintf("class %q installed (v%d)", op.Key, prev.Version+1))
		return true
	case types.OpClassRemove:
		delete(m.osdMap.Classes, op.Key)
		return true
	case types.OpServiceSet:
		m.serviceOf(op)[op.Key] = op.Value
		return true
	case types.OpServiceDel:
		delete(m.serviceOf(op), op.Key)
		return true
	case types.OpBalancerSet:
		m.mdsMap.BalancerVersion = op.Value
		m.appendLogLocked("info", source, fmt.Sprintf("balancer version set to %q", op.Value))
		return true
	}
	m.appendLogLocked("error", source, fmt.Sprintf("unknown op %q ignored", op.Code))
	return false
}

// serviceOf returns the service-metadata bucket a svc.* op writes.
// Caller holds m.mu.
func (m *Monitor) serviceOf(op types.Op) map[string]string {
	if mapOf(op) == types.MapMDS {
		return m.mdsMap.Service
	}
	return m.osdMap.Service
}

func (m *Monitor) appendLog(level, source, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendLogLocked(level, source, msg)
}

// logCap is how many cluster-log entries a monitor keeps: the log is a
// ring, so its size does not grow with the cluster's history.
const logCap = 1024

func (m *Monitor) appendLogLocked(level, source, msg string) {
	m.logSeq++
	e := LogEntry{
		Seq:    m.logSeq,
		Time:   time.Now(),
		Level:  level,
		Source: source,
		Msg:    msg,
	}
	if len(m.log) < logCap {
		m.log = append(m.log, e)
	} else {
		m.log[(m.logSeq-1)%logCap] = e
	}
}
