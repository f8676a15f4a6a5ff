package paxos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// newChaosCluster builds a cluster over a lossy, jittery fabric.
func newChaosCluster(t *testing.T, n int, dropRate float64, seed int64) *cluster {
	t.Helper()
	c := &cluster{
		net: wire.NewNetwork(
			wire.WithSeed(seed),
			wire.WithLatency(100*time.Microsecond, 400*time.Microsecond),
		),
		applied: make([][]string, n),
	}
	c.net.SetDropRate(dropRate)
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

// proposeWithRetry drives one value to commitment through any live
// leader, tolerating drops and elections.
func proposeWithRetry(t *testing.T, c *cluster, value string, deadline time.Time) {
	t.Helper()
	for time.Now().Before(deadline) {
		for _, n := range c.nodes {
			if !n.IsLeader() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := n.Propose(ctx, []byte(value))
			cancel()
			if err == nil {
				return
			}
		}
		// Nobody leads (or the proposal failed): nudge an election.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = c.nodes[0].BecomeLeader(ctx)
		cancel()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("value %q never committed under chaos", value)
}

func TestCommitsUnderMessageLoss(t *testing.T) {
	c := newChaosCluster(t, 3, 0.10, 42)
	c.start()
	deadline := time.Now().Add(60 * time.Second)
	const vals = 10
	for i := 0; i < vals; i++ {
		proposeWithRetry(t, c, fmt.Sprintf("v%d", i), deadline)
	}
	// All nodes converge to identical logs (heartbeat catch-up fills any
	// gaps from dropped learns).
	waitFor(t, 30*time.Second, func() bool {
		for i := range c.nodes {
			if len(c.appliedOf(i)) < vals {
				return false
			}
		}
		return true
	}, "all nodes apply every value")
	ref := c.appliedOf(0)
	for i := 1; i < len(c.nodes); i++ {
		got := c.appliedOf(i)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("node %d log diverged at %d: %q vs %q", i, j, got[j], ref[j])
			}
		}
	}
}

func TestNoDivergenceUnderDuelingProposers(t *testing.T) {
	// Two nodes repeatedly seize leadership and propose; slots must
	// never hold different values on different nodes.
	c := newChaosCluster(t, 3, 0.05, 7)
	deadline := time.Now().Add(60 * time.Second)
	committed := 0
	for committed < 8 && time.Now().Before(deadline) {
		for _, idx := range []int{0, 1} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			if err := c.nodes[idx].BecomeLeader(ctx); err == nil {
				if _, err := c.nodes[idx].Propose(ctx, []byte(fmt.Sprintf("n%d-%d", idx, committed))); err == nil {
					committed++
				}
			}
			cancel()
		}
	}
	if committed < 8 {
		t.Fatalf("only %d values committed", committed)
	}
	c.start() // let catch-up finish
	waitFor(t, 30*time.Second, func() bool {
		n := len(c.appliedOf(0))
		return n >= committed && len(c.appliedOf(1)) >= n && len(c.appliedOf(2)) >= n
	}, "logs converge")
	ref := c.appliedOf(0)
	for i := 1; i < 3; i++ {
		got := c.appliedOf(i)
		limit := len(ref)
		if len(got) < limit {
			limit = len(got)
		}
		for j := 0; j < limit; j++ {
			if got[j] != ref[j] {
				t.Fatalf("divergence at slot %d: %q vs %q", j, ref[j], got[j])
			}
		}
	}
}

func TestRepeatedLeaderCrashes(t *testing.T) {
	// Crash the current leader twice (a 5-node quorum tolerates two
	// failures); each time the survivors elect a successor and the
	// committed prefix survives.
	c := newChaosCluster(t, 5, 0, 3)
	c.start()
	deadline := time.Now().Add(90 * time.Second)

	alive := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	total := 0
	for round := 0; round < 2; round++ {
		proposeWithRetryAlive(t, c, alive, fmt.Sprintf("round%d", round), deadline)
		total++
		// Find and crash the leader.
		for i, n := range c.nodes {
			if alive[i] && n.IsLeader() {
				c.net.Unlisten(addrOf(NodeID(i)))
				n.Stop()
				alive[i] = false
				break
			}
		}
	}
	proposeWithRetryAlive(t, c, alive, "final", deadline)
	total++

	// Some survivor applied everything, in order.
	waitFor(t, 30*time.Second, func() bool {
		for i := range c.nodes {
			if alive[i] && len(c.appliedOf(i)) >= total {
				return true
			}
		}
		return false
	}, "a survivor applies all values")
}

func proposeWithRetryAlive(t *testing.T, c *cluster, alive map[int]bool, value string, deadline time.Time) {
	t.Helper()
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if !alive[i] || !n.IsLeader() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := n.Propose(ctx, []byte(value))
			cancel()
			if err == nil {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("value %q never committed", value)
}
