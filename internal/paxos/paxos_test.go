package paxos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

// wireTransport adapts the wire fabric to the paxos Transport interface.
type wireTransport struct {
	net   *wire.Network
	self  NodeID
	peers []NodeID
}

func addrOf(id NodeID) wire.Addr { return wire.Addr(fmt.Sprintf("paxos.%d", id)) }

func (t *wireTransport) Call(ctx context.Context, to NodeID, m Msg) (Msg, error) {
	r, err := t.net.Call(ctx, addrOf(t.self), addrOf(to), m)
	if err != nil {
		return Msg{}, err
	}
	return r.(Msg), nil
}

func (t *wireTransport) Self() NodeID    { return t.self }
func (t *wireTransport) Peers() []NodeID { return t.peers }

type cluster struct {
	net   *wire.Network
	nodes []*Node
	// applied[i] records (slot, value) pairs delivered to node i in order.
	mu      sync.Mutex
	applied [][]string
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		net:     wire.NewNetwork(),
		applied: make([][]string, n),
	}
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i)
	}
	for i := 0; i < n; i++ {
		i := i
		tr := &wireTransport{net: c.net, self: NodeID(i), peers: peers}
		node := NewNode(tr, DefaultConfig(), func(slot uint64, v []byte) {
			c.mu.Lock()
			c.applied[i] = append(c.applied[i], fmt.Sprintf("%d=%s", slot, v))
			c.mu.Unlock()
		})
		c.nodes = append(c.nodes, node)
		c.net.Listen(addrOf(NodeID(i)), func(ctx context.Context, _ wire.Addr, req any) (any, error) {
			return node.Handle(ctx, req.(Msg))
		})
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			nd.Stop()
		}
	})
	return c
}

func (c *cluster) appliedOf(i int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.applied[i]))
	copy(out, c.applied[i])
	return out
}

func (c *cluster) start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting: %s", msg)
}

func TestSingleProposerCommits(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		slot, err := c.nodes[0].Propose(ctx, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if slot != uint64(i) {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		for i := range c.nodes {
			if len(c.appliedOf(i)) != 5 {
				return false
			}
		}
		return true
	}, "all nodes apply 5 slots")
	want := []string{"0=v0", "1=v1", "2=v2", "3=v3", "4=v4"}
	for i := range c.nodes {
		got := c.appliedOf(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d applied %v, want %v", i, got, want)
			}
		}
	}
}

func TestNonLeaderRejected(t *testing.T) {
	c := newCluster(t, 3)
	_, err := c.nodes[1].Propose(context.Background(), []byte("x"))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestLeaderElection(t *testing.T) {
	c := newCluster(t, 3)
	c.start()
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range c.nodes {
			if n.IsLeader() {
				return true
			}
		}
		return false
	}, "a leader emerges")
}

func TestFailoverPreservesCommitted(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[0].Propose(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Crash the leader.
	c.net.Unlisten(addrOf(0))
	c.nodes[0].Stop()

	// Node 1 takes over and continues the log.
	waitFor(t, 5*time.Second, func() bool {
		return c.nodes[1].BecomeLeader(ctx) == nil
	}, "node 1 becomes leader")
	slot, err := c.nodes[1].Propose(ctx, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if slot != 1 {
		t.Fatalf("slot = %d, want 1 (committed prefix preserved)", slot)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(c.appliedOf(1)) == 2 && len(c.appliedOf(2)) == 2
	}, "survivors apply both slots")
	if got := c.appliedOf(1); got[0] != "0=before" || got[1] != "1=after" {
		t.Fatalf("node1 applied %v", got)
	}
}

func TestNewLeaderAdoptsAcceptedValue(t *testing.T) {
	// A value accepted by a quorum must survive leader change even if the
	// old leader died before broadcasting Learn. We simulate by having
	// leader 0 commit (which accepts on a quorum) and then a new leader
	// running phase 1, which must re-drive slot 0 with the same value.
	c := newCluster(t, 3)
	ctx := context.Background()
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[0].Propose(ctx, []byte("sticky")); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[2].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	slot, err := c.nodes[2].Propose(ctx, []byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if slot != 1 {
		t.Fatalf("new proposal went to slot %d, want 1", slot)
	}
	waitFor(t, 2*time.Second, func() bool { return len(c.appliedOf(2)) == 2 }, "node 2 applies")
	if got := c.appliedOf(2); got[0] != "0=sticky" {
		t.Fatalf("slot 0 = %v, want sticky", got[0])
	}
}

func TestPreemptedLeaderStepsDown(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	// Node 0's next proposal must fail: node 1 holds a higher ballot.
	if _, err := c.nodes[0].Propose(ctx, []byte("stale")); err == nil {
		t.Fatal("stale leader proposal succeeded")
	}
	if c.nodes[0].IsLeader() {
		t.Fatal("preempted leader still believes it leads")
	}
}

func TestNoQuorumFails(t *testing.T) {
	c := newCluster(t, 3)
	// Isolate node 0 from both peers.
	c.net.Partition(addrOf(0), addrOf(1))
	c.net.Partition(addrOf(0), addrOf(2))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := c.nodes[0].BecomeLeader(ctx)
	if err == nil {
		t.Fatal("isolated node became leader")
	}
}

func TestLaggingFollowerCatchesUp(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	// Partition node 2 away, commit values, then heal and run heartbeats.
	c.net.Partition(addrOf(0), addrOf(2))
	c.net.Partition(addrOf(1), addrOf(2))
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.nodes[0].Propose(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.appliedOf(2)); n != 0 {
		t.Fatalf("partitioned node applied %d values", n)
	}
	c.net.HealAll()
	c.start() // heartbeats now flow; node 2 fetches the gap
	waitFor(t, 5*time.Second, func() bool { return len(c.appliedOf(2)) == 4 }, "node 2 catches up")
	got := c.appliedOf(2)
	for i := 0; i < 4; i++ {
		if got[i] != fmt.Sprintf("%d=v%d", i, i) {
			t.Fatalf("node 2 applied %v", got)
		}
	}
}

func TestFiveNodeClusterToleratesTwoFailures(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	if err := c.nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	c.net.Unlisten(addrOf(3))
	c.net.Unlisten(addrOf(4))
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := c.nodes[0].Propose(ctx2, []byte("v")); err != nil {
		t.Fatalf("quorum of 3/5 should commit: %v", err)
	}
}

func TestBallotOrdering(t *testing.T) {
	f := func(c1, c2 uint64, n1, n2 int8) bool {
		b1 := Ballot{Counter: c1, Node: NodeID(n1)}
		b2 := Ballot{Counter: c2, Node: NodeID(n2)}
		// Total order: exactly one of <, ==, > holds.
		less, greater, equal := b1.Less(b2), b2.Less(b1), b1 == b2
		count := 0
		if less {
			count++
		}
		if greater {
			count++
		}
		if equal {
			count++
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAppliedPrefixesConsistent(t *testing.T) {
	// Under random proposal counts, all nodes apply identical prefixes
	// (the core safety property).
	f := func(numVals uint8) bool {
		n := int(numVals%8) + 1
		c := newCluster(t, 3)
		defer func() {
			for _, nd := range c.nodes {
				nd.Stop()
			}
		}()
		ctx := context.Background()
		if err := c.nodes[0].BecomeLeader(ctx); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := c.nodes[0].Propose(ctx, []byte(fmt.Sprintf("v%d", i))); err != nil {
				return false
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if len(c.appliedOf(0)) == n && len(c.appliedOf(1)) == n && len(c.appliedOf(2)) == n {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		a0, a1, a2 := c.appliedOf(0), c.appliedOf(1), c.appliedOf(2)
		if len(a0) != n || len(a1) != n || len(a2) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if a0[i] != a1[i] || a1[i] != a2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProposeCommit(b *testing.B) {
	net := wire.NewNetwork()
	peers := []NodeID{0, 1, 2}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		tr := &wireTransport{net: net, self: NodeID(i), peers: peers}
		node := NewNode(tr, DefaultConfig(), nil)
		nodes = append(nodes, node)
		id := NodeID(i)
		net.Listen(addrOf(id), func(ctx context.Context, _ wire.Addr, req any) (any, error) {
			return node.Handle(ctx, req.(Msg))
		})
	}
	ctx := context.Background()
	if err := nodes[0].BecomeLeader(ctx); err != nil {
		b.Fatal(err)
	}
	val := []byte("bench-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[0].Propose(ctx, val); err != nil {
			b.Fatal(err)
		}
	}
}

// stallTransport hands a message straight to the addressed node's
// Handle, after holding every message to the stalled node for stall.
type stallTransport struct {
	self    NodeID
	nodes   []*Node
	stalled NodeID
	stall   time.Duration
}

func (t *stallTransport) Call(ctx context.Context, to NodeID, m Msg) (Msg, error) {
	if to == t.stalled {
		select {
		case <-time.After(t.stall):
		case <-ctx.Done():
			return Msg{}, ctx.Err()
		}
	}
	return t.nodes[to].Handle(ctx, m)
}

func (t *stallTransport) Self() NodeID    { return t.self }
func (t *stallTransport) Peers() []NodeID { return []NodeID{0, 1, 2} }

// A commit needs a quorum, not every acceptor: with the third of three
// acceptors stalled for a second, phase 1 and phase 2 both return on the
// two live answers. Waiting for every acceptor, each took the stall.
func TestCommitReturnsAtQuorum(t *testing.T) {
	const stall = time.Second
	nodes := make([]*Node, 3)
	for i := range nodes {
		tr := &stallTransport{self: NodeID(i), nodes: nodes, stalled: 2, stall: stall}
		nodes[i] = NewNode(tr, DefaultConfig(), func(uint64, []byte) {})
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := nodes[0].BecomeLeader(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("BecomeLeader took %v with one acceptor stalled %v, want < 100ms", took, stall)
	}
	start = time.Now()
	slot, err := nodes[0].Propose(ctx, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("Propose took %v with one acceptor stalled %v, want < 100ms", took, stall)
	}
	nodes[1].mu.Lock()
	av, ok := nodes[1].accepted[slot]
	nodes[1].mu.Unlock()
	if !ok || string(av.Value) != "v" {
		t.Errorf("live acceptor holds %+v for slot %d, want the proposed value", av, slot)
	}
}
