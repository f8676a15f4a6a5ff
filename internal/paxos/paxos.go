// Package paxos implements multi-decree Paxos, the consensus engine
// underneath the Malacology monitor service. The paper's Service
// Metadata interface (Section 4.1) rides on Ceph's Paxos monitor; here
// the monitor package commits batched cluster-map updates as values in a
// replicated log maintained by this package.
//
// The implementation is a classic three-role design: each Node is
// proposer, acceptor, and learner. One node at a time acts as leader
// (distinguished proposer); it establishes leadership with a phase-1
// prepare that covers all unchosen slots, then commits client values
// with single-round-trip phase-2 accepts. Followers detect leader
// failure via heartbeat timeout and elect themselves with a higher
// ballot, staggered by rank to avoid duelling.
package paxos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/stopctx"
)

// NodeID identifies a Paxos participant (monitor rank).
type NodeID int

// Ballot orders proposals; ties break by node id.
type Ballot struct {
	Counter uint64 `json:"counter"`
	Node    NodeID `json:"node"`
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Counter != o.Counter {
		return b.Counter < o.Counter
	}
	return b.Node < o.Node
}

func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Counter, b.Node) }

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgPrepare MsgType = iota
	MsgPromise
	MsgAccept
	MsgAccepted
	MsgLearn
	MsgHeartbeat
	MsgFetch
	MsgFetchReply
)

// AcceptedValue is an acceptor's record for one slot.
type AcceptedValue struct {
	Ballot Ballot `json:"ballot"`
	Value  []byte `json:"value"`
}

// Msg is a protocol message. One struct covers all types; unused fields
// are zero.
type Msg struct {
	Type   MsgType
	From   NodeID
	Ballot Ballot
	Slot   uint64
	Value  []byte
	OK     bool
	// Promise: previously accepted values for slots >= Slot.
	Accepted map[uint64]AcceptedValue
	// Heartbeat/FetchReply: chosen values being pushed to a lagging peer.
	Chosen map[uint64][]byte
	// Heartbeat: leader's first slot with no chosen value, so followers
	// can detect gaps.
	FirstUnchosen uint64
}

// Transport delivers messages between nodes. Implementations must be
// safe for concurrent use.
type Transport interface {
	// Call sends m to node `to` and waits for its reply.
	Call(ctx context.Context, to NodeID, m Msg) (Msg, error)
	// Self returns this node's id.
	Self() NodeID
	// Peers returns all participant ids including self.
	Peers() []NodeID
}

// Errors surfaced to proposers.
var (
	ErrNotLeader = errors.New("paxos: not the leader")
	ErrNoQuorum  = errors.New("paxos: no quorum")
	ErrStopped   = errors.New("paxos: node stopped")
)

// Config tunes timing.
type Config struct {
	// HeartbeatInterval is how often the leader reasserts itself.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base silence interval after which a
	// follower tries to take over; rank staggers it.
	ElectionTimeout time.Duration
}

// DefaultConfig returns timing suitable for tests and simulation.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 25 * time.Millisecond,
		ElectionTimeout:   150 * time.Millisecond,
	}
}

// Node is one Paxos participant.
type Node struct {
	cfg   Config
	t     Transport
	apply func(slot uint64, value []byte)

	mu         sync.Mutex
	promised   Ballot                   // guarded by mu
	accepted   map[uint64]AcceptedValue // guarded by mu
	chosen     map[uint64][]byte        // guarded by mu
	nextApply  uint64                   // guarded by mu; first slot not yet delivered to apply
	leading    bool                     // guarded by mu
	ballot     Ballot                   // guarded by mu; leader ballot when leading
	nextSlot   uint64                   // guarded by mu; next free slot when leading
	lastLeader time.Time                // guarded by mu
	leaderHint NodeID                   // guarded by mu

	applyMu sync.Mutex // serializes apply callbacks in slot order

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewNode creates a participant. apply is invoked exactly once per slot,
// in slot order, for every committed value (on all nodes).
func NewNode(t Transport, cfg Config, apply func(slot uint64, value []byte)) *Node {
	return &Node{
		cfg:        cfg,
		t:          t,
		apply:      apply,
		accepted:   make(map[uint64]AcceptedValue),
		chosen:     make(map[uint64][]byte),
		stopCh:     make(chan struct{}),
		lastLeader: time.Now(),
		leaderHint: -1,
	}
}

// Start launches the heartbeat/election loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.run()
}

// Stop terminates background activity.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.wg.Wait()
}

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leading
}

// LeaderHint returns the last observed leader id (-1 when unknown).
func (n *Node) LeaderHint() NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leading {
		return n.t.Self()
	}
	return n.leaderHint
}

// NumChosen returns how many slots this node has learned; for tests.
func (n *Node) NumChosen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.chosen)
}

func (n *Node) quorum() int { return len(n.t.Peers())/2 + 1 }

func (n *Node) run() {
	defer n.wg.Done()
	// Stagger follower elections by rank so the lowest-ranked live node
	// usually wins without duels.
	rank := 0
	peers := n.t.Peers()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for i, p := range peers {
		if p == n.t.Self() {
			rank = i
		}
	}
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		leading := n.leading
		silent := time.Since(n.lastLeader)
		n.mu.Unlock()

		if leading {
			n.sendHeartbeats()
			continue
		}
		timeout := n.cfg.ElectionTimeout + time.Duration(rank)*n.cfg.ElectionTimeout/2
		if silent > timeout {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeout)
			//lint:ignore errdrop a failed election is normal contention; the next silent period retries it
			_ = n.BecomeLeader(ctx)
			cancel()
			n.mu.Lock()
			n.lastLeader = time.Now()
			n.mu.Unlock()
		}
	}
}

// sendHeartbeats pushes leadership liveness plus the leader's chosen
// frontier to followers.
func (n *Node) sendHeartbeats() {
	n.mu.Lock()
	if !n.leading {
		n.mu.Unlock()
		return
	}
	msg := Msg{
		Type:          MsgHeartbeat,
		From:          n.t.Self(),
		Ballot:        n.ballot,
		FirstUnchosen: n.firstUnchosenLocked(),
	}
	n.mu.Unlock()
	for _, p := range n.t.Peers() {
		if p == n.t.Self() {
			continue
		}
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := stopctx.WithTimeout(n.stopCh, n.cfg.HeartbeatInterval*2)
			defer cancel()
			//lint:ignore errdrop heartbeats are liveness hints; a follower that misses them calls its own election
			_, _ = n.t.Call(ctx, p, msg)
		}()
	}
}

func (n *Node) firstUnchosenLocked() uint64 {
	s := n.nextApply
	for {
		if _, ok := n.chosen[s]; !ok {
			return s
		}
		s++
	}
}

// BecomeLeader runs phase 1 over all unchosen slots. On success the node
// re-proposes any values it learned were accepted by others, then serves
// Propose calls with single-round-trip commits.
func (n *Node) BecomeLeader(ctx context.Context) error {
	n.mu.Lock()
	b := Ballot{Counter: n.promised.Counter + 1, Node: n.t.Self()}
	start := n.firstUnchosenLocked()
	n.promised = b
	n.mu.Unlock()

	prep := Msg{Type: MsgPrepare, From: n.t.Self(), Ballot: b, Slot: start}
	promises := n.collect(ctx, prep)
	// Count our own implicit promise.
	got := 1
	merged := make(map[uint64]AcceptedValue)
	n.mu.Lock()
	for s, av := range n.accepted {
		if s >= start {
			merged[s] = av
		}
	}
	n.mu.Unlock()
	for _, p := range promises {
		if !p.OK {
			continue
		}
		got++
		for s, av := range p.Accepted {
			if cur, ok := merged[s]; !ok || cur.Ballot.Less(av.Ballot) {
				merged[s] = av
			}
		}
	}
	if got < n.quorum() {
		return ErrNoQuorum
	}

	n.mu.Lock()
	if n.promised != b { // someone outbid us during phase 1
		n.mu.Unlock()
		return ErrNotLeader
	}
	n.leading = true
	n.ballot = b
	n.nextSlot = start
	for s := range merged {
		if s >= n.nextSlot {
			n.nextSlot = s + 1
		}
	}
	n.mu.Unlock()

	// Re-drive any in-flight values under our ballot so they are chosen.
	slots := make([]uint64, 0, len(merged))
	for s := range merged {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	for _, s := range slots {
		if err := n.commitSlot(ctx, s, merged[s].Value); err != nil {
			n.stepDown()
			return err
		}
	}
	return nil
}

func (n *Node) stepDown() {
	n.mu.Lock()
	n.leading = false
	n.mu.Unlock()
}

// Propose commits value to the next free slot. Only the leader may
// call it; others get ErrNotLeader with a hint available via LeaderHint.
func (n *Node) Propose(ctx context.Context, value []byte) (uint64, error) {
	n.mu.Lock()
	if !n.leading {
		n.mu.Unlock()
		return 0, ErrNotLeader
	}
	slot := n.nextSlot
	n.nextSlot++
	n.mu.Unlock()

	if err := n.commitSlot(ctx, slot, value); err != nil {
		n.stepDown()
		return 0, err
	}
	return slot, nil
}

// commitSlot runs phase 2 for one slot under the current leader ballot
// and, on quorum, marks the value chosen and teaches the followers.
func (n *Node) commitSlot(ctx context.Context, slot uint64, value []byte) error {
	n.mu.Lock()
	b := n.ballot
	if b.Less(n.promised) { // preempted since we last checked
		n.mu.Unlock()
		return ErrNotLeader
	}
	// Self-accept.
	n.promised = b
	n.accepted[slot] = AcceptedValue{Ballot: b, Value: value}
	n.mu.Unlock()

	acc := Msg{Type: MsgAccept, From: n.t.Self(), Ballot: b, Slot: slot, Value: value}
	replies := n.collect(ctx, acc)
	got := 1 // self
	for _, r := range replies {
		if r.OK {
			got++
		} else if b.Less(r.Ballot) {
			return fmt.Errorf("%w: preempted by ballot %s", ErrNotLeader, r.Ballot)
		}
	}
	if got < n.quorum() {
		return ErrNoQuorum
	}

	n.learn(slot, value)
	learn := Msg{Type: MsgLearn, From: n.t.Self(), Ballot: b, Slot: slot, Value: value}
	for _, p := range n.t.Peers() {
		if p == n.t.Self() {
			continue
		}
		p := p
		go func() {
			lctx, cancel := stopctx.WithTimeout(n.stopCh, time.Second)
			defer cancel()
			//lint:ignore errdrop learn pushes are an optimization; a peer that misses one catches up from the chosen frontier in the next heartbeat
			_, _ = n.t.Call(lctx, p, learn)
		}()
	}
	return nil
}

// collect fans msg out to all peers and gathers replies until a quorum
// has answered OK (counting this node), a peer answers with a ballot
// above msg's, every peer has answered, or ctx expires — whichever comes
// first, so a stalled acceptor costs a commit nothing while a quorum is
// live. Failed peers are simply absent; replies still in flight when it
// returns land in the buffered channel and are dropped with it.
func (n *Node) collect(ctx context.Context, msg Msg) []Msg {
	peers := n.t.Peers()
	ch := make(chan Msg, len(peers))
	outstanding := 0
	for _, p := range peers {
		if p == n.t.Self() {
			continue
		}
		outstanding++
		p := p
		go func() {
			r, err := n.t.Call(ctx, p, msg)
			if err != nil {
				ch <- Msg{OK: false, From: p, Type: -1}
				return
			}
			ch <- r
		}()
	}
	var out []Msg
	oks := 1 // self
	for i := 0; i < outstanding && oks < n.quorum(); i++ {
		select {
		case r := <-ch:
			if r.Type == -1 {
				continue
			}
			out = append(out, r)
			if r.OK {
				oks++
			} else if msg.Ballot.Less(r.Ballot) {
				return out
			}
		case <-ctx.Done():
			return out
		}
	}
	return out
}

// learn records a chosen value and applies any now-contiguous prefix.
func (n *Node) learn(slot uint64, value []byte) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	if _, ok := n.chosen[slot]; !ok {
		n.chosen[slot] = value
	}
	var ready [][]byte
	var first uint64
	first = n.nextApply
	for {
		v, ok := n.chosen[n.nextApply]
		if !ok {
			break
		}
		ready = append(ready, v)
		n.nextApply++
	}
	n.mu.Unlock()

	if n.apply != nil {
		for i, v := range ready {
			n.apply(first+uint64(i), v)
		}
	}
}

// Handle processes an incoming protocol message; wire it to the
// transport's receive path.
func (n *Node) Handle(_ context.Context, m Msg) (Msg, error) {
	switch m.Type {
	case MsgPrepare:
		return n.onPrepare(m), nil
	case MsgAccept:
		return n.onAccept(m), nil
	case MsgLearn:
		n.observeLeader(m.From)
		n.learn(m.Slot, m.Value)
		return Msg{Type: MsgLearn, OK: true, From: n.t.Self()}, nil
	case MsgHeartbeat:
		return n.onHeartbeat(m), nil
	case MsgFetch:
		return n.onFetch(m), nil
	}
	return Msg{}, fmt.Errorf("paxos: unknown message type %d", m.Type)
}

func (n *Node) observeLeader(id NodeID) {
	n.mu.Lock()
	n.lastLeader = time.Now()
	n.leaderHint = id
	n.mu.Unlock()
}

func (n *Node) onPrepare(m Msg) Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	reply := Msg{Type: MsgPromise, From: n.t.Self(), Ballot: n.promised}
	if n.promised.Less(m.Ballot) {
		n.promised = m.Ballot
		n.leading = false // someone with a higher ballot is taking over
		// The preparer is the likely next leader; remember it as a hint
		// so forwarded client requests find it promptly.
		n.leaderHint = m.From
		n.lastLeader = time.Now()
		reply.OK = true
		reply.Ballot = m.Ballot
		reply.Accepted = make(map[uint64]AcceptedValue)
		for s, av := range n.accepted {
			if s >= m.Slot {
				reply.Accepted[s] = av
			}
		}
	}
	return reply
}

func (n *Node) onAccept(m Msg) Msg {
	n.mu.Lock()
	if m.Ballot.Less(n.promised) {
		reply := Msg{Type: MsgAccepted, From: n.t.Self(), Ballot: n.promised, OK: false}
		n.mu.Unlock()
		return reply
	}
	n.promised = m.Ballot
	if n.leading && n.ballot.Less(m.Ballot) {
		n.leading = false
	}
	n.accepted[m.Slot] = AcceptedValue{Ballot: m.Ballot, Value: m.Value}
	n.lastLeader = time.Now()
	n.leaderHint = m.From
	n.mu.Unlock()
	return Msg{Type: MsgAccepted, From: n.t.Self(), Ballot: m.Ballot, Slot: m.Slot, OK: true}
}

func (n *Node) onHeartbeat(m Msg) Msg {
	n.mu.Lock()
	stale := m.Ballot.Less(n.promised)
	if !stale {
		n.promised = m.Ballot
		if n.leading && n.t.Self() != m.From {
			n.leading = false
		}
		n.lastLeader = time.Now()
		n.leaderHint = m.From
	}
	behind := n.firstUnchosenLocked() < m.FirstUnchosen
	promised := n.promised
	n.mu.Unlock()

	if behind {
		// Catch up asynchronously; the heartbeat reply itself stays small.
		go n.fetchFrom(m.From)
	}
	return Msg{Type: MsgHeartbeat, From: n.t.Self(), OK: !stale, Ballot: promised}
}

func (n *Node) fetchFrom(peer NodeID) {
	n.mu.Lock()
	from := n.firstUnchosenLocked()
	n.mu.Unlock()
	ctx, cancel := stopctx.WithTimeout(n.stopCh, time.Second)
	defer cancel()
	r, err := n.t.Call(ctx, peer, Msg{Type: MsgFetch, From: n.t.Self(), Slot: from})
	if err != nil || !r.OK {
		return
	}
	// Apply fetched values in slot order.
	slots := make([]uint64, 0, len(r.Chosen))
	for s := range r.Chosen {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	for _, s := range slots {
		n.learn(s, r.Chosen[s])
	}
}

func (n *Node) onFetch(m Msg) Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	reply := Msg{Type: MsgFetchReply, From: n.t.Self(), OK: true, Chosen: make(map[uint64][]byte)}
	const maxBatch = 256
	for s, v := range n.chosen {
		if s >= m.Slot && len(reply.Chosen) < maxBatch {
			reply.Chosen[s] = v
		}
	}
	return reply
}
