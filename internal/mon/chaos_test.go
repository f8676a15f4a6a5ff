package mon

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/paxos"
	"repro/internal/types"
	"repro/internal/wire"
)

// lossyQuorum boots monitors over a dropping, jittery fabric.
func lossyQuorum(t *testing.T, n int, drop float64, seed int64) (*wire.Network, []*Monitor) {
	t.Helper()
	net := wire.NewNetwork(
		wire.WithSeed(seed),
		wire.WithLatency(50*time.Microsecond, 200*time.Microsecond),
	)
	net.SetDropRate(drop)
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	var mons []*Monitor
	for i := 0; i < n; i++ {
		m := New(net, Config{
			ID: i, Peers: peers,
			ProposalInterval: 5 * time.Millisecond,
			Paxos: paxos.Config{
				HeartbeatInterval: 10 * time.Millisecond,
				ElectionTimeout:   120 * time.Millisecond,
			},
		})
		m.Start()
		mons = append(mons, m)
	}
	t.Cleanup(func() {
		for _, m := range mons {
			m.Stop()
		}
	})
	return net, mons
}

// submitUntil keeps submitting until it succeeds or the deadline hits.
func submitUntil(t *testing.T, c *Client, key, value string, deadline time.Time) {
	t.Helper()
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := c.SetService(ctx, types.MapOSD, key, value)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("submit %s=%s never succeeded", key, value)
}

func TestServiceSurvivesMessageLoss(t *testing.T) {
	net, _ := lossyQuorum(t, 3, 0.08, 11)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < 10; i++ {
		submitUntil(t, c, fmt.Sprintf("k%d", i), fmt.Sprint(i), deadline)
	}
	// All committed keys are visible (retry the read, too: the fabric
	// still drops messages).
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		m, err := c.GetOSDMap(ctx)
		cancel()
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		ok := true
		for i := 0; i < 10; i++ {
			if m.Service[fmt.Sprintf("k%d", i)] != fmt.Sprint(i) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("committed keys never all visible")
}

func TestConcurrentSubmittersUnderLoss(t *testing.T) {
	net, _ := lossyQuorum(t, 3, 0.05, 23)
	deadline := time.Now().Add(60 * time.Second)
	var wg sync.WaitGroup
	const writers, keys = 4, 5
	for w := 0; w < writers; w++ {
		w := w
		c := NewClient(net, wire.Addr(fmt.Sprintf("client.%d", w)), []int{0, 1, 2})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				submitUntil(t, c, fmt.Sprintf("w%d.k%d", w, k), "v", deadline)
			}
		}()
	}
	wg.Wait()
	c := NewClient(net, "client.check", []int{0, 1, 2})
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		m, err := c.GetOSDMap(ctx)
		cancel()
		if err == nil {
			missing := 0
			for w := 0; w < writers; w++ {
				for k := 0; k < keys; k++ {
					if m.Service[fmt.Sprintf("w%d.k%d", w, k)] != "v" {
						missing++
					}
				}
			}
			if missing == 0 {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("not all writes visible")
}

func TestMonitorStateMachinesIdenticalAfterChaos(t *testing.T) {
	net, mons := lossyQuorum(t, 3, 0.05, 31)
	c := NewClient(net, "client.0", []int{0, 1, 2})
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < 8; i++ {
		submitUntil(t, c, fmt.Sprintf("cls%d", i), "x", deadline)
	}
	// Stop the chaos and let heartbeat catch-up settle, then compare
	// every monitor's local state machine.
	net.SetDropRate(0)
	var want map[string]string
	ok := false
	for time.Now().Before(deadline) {
		same := true
		want = nil
		for _, m := range mons {
			m.mu.Lock()
			svc := make(map[string]string, len(m.osdMap.Service))
			for k, v := range m.osdMap.Service {
				svc[k] = v
			}
			m.mu.Unlock()
			if want == nil {
				want = svc
				continue
			}
			if len(svc) != len(want) {
				same = false
				break
			}
			for k, v := range want {
				if svc[k] != v {
					same = false
					break
				}
			}
		}
		if same && len(want) >= 8 {
			ok = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ok {
		t.Fatal("monitor state machines never converged")
	}
}
