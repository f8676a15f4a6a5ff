package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func echoHandler(_ context.Context, _ Addr, req any) (any, error) {
	return req, nil
}

func TestCallRoundTrip(t *testing.T) {
	n := NewNetwork()
	n.Listen("osd.0", echoHandler)
	resp, err := n.Call(context.Background(), "client.1", "osd.0", "ping")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "ping" {
		t.Fatalf("resp = %v", resp)
	}
}

func TestCallUnreachable(t *testing.T) {
	n := NewNetwork()
	_, err := n.Call(context.Background(), "client.1", "osd.9", "ping")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestUnlistenSimulatesCrash(t *testing.T) {
	n := NewNetwork()
	n.Listen("mds.a", echoHandler)
	if _, err := n.Call(context.Background(), "c", "mds.a", 1); err != nil {
		t.Fatal(err)
	}
	n.Unlisten("mds.a")
	if _, err := n.Call(context.Background(), "c", "mds.a", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork()
	n.Listen("mon.0", echoHandler)
	n.Partition("client.1", "mon.0")
	if _, err := n.Call(context.Background(), "client.1", "mon.0", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	// Partition is symmetric.
	n.Listen("client.1", echoHandler)
	if _, err := n.Call(context.Background(), "mon.0", "client.1", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("reverse err = %v, want ErrPartitioned", err)
	}
	// Unrelated endpoints unaffected.
	if _, err := n.Call(context.Background(), "client.2", "mon.0", 1); err != nil {
		t.Fatalf("unrelated call failed: %v", err)
	}
	n.HealAll()
	if _, err := n.Call(context.Background(), "client.1", "mon.0", 1); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestHealAll(t *testing.T) {
	n := NewNetwork()
	n.Listen("a", echoHandler)
	n.Listen("b", echoHandler)
	n.Partition("a", "b")
	n.Partition("a", "c")
	n.HealAll()
	if _, err := n.Call(context.Background(), "b", "a", 1); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyApplied(t *testing.T) {
	n := NewNetwork(WithLatency(5*time.Millisecond, 0))
	n.Listen("osd.0", echoHandler)
	start := time.Now()
	if _, err := n.Call(context.Background(), "c", "osd.0", 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 10ms (two one-way hops)", d)
	}
}

func TestCallHonorsContext(t *testing.T) {
	n := NewNetwork(WithLatency(time.Second, 0))
	n.Listen("osd.0", echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Call(ctx, "c", "osd.0", 1)
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("context cancellation did not interrupt latency sleep")
	}
}

func TestDropRate(t *testing.T) {
	n := NewNetwork(WithSeed(7))
	n.SetDropRate(1.0)
	n.Listen("osd.0", echoHandler)
	if _, err := n.Call(context.Background(), "c", "osd.0", 1); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	n.SetDropRate(0)
	if _, err := n.Call(context.Background(), "c", "osd.0", 1); err != nil {
		t.Fatalf("after clearing drop rate: %v", err)
	}
}

func TestSendAsync(t *testing.T) {
	n := NewNetwork()
	var got atomic.Int64
	done := make(chan struct{})
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		got.Store(int64(req.(int)))
		close(done)
		return nil, nil
	})
	n.Send("c", "osd.0", 42)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("send not delivered")
	}
	if got.Load() != 42 {
		t.Fatalf("got %d", got.Load())
	}
}

func TestBroadcast(t *testing.T) {
	n := NewNetwork()
	var wg sync.WaitGroup
	var count atomic.Int64
	wg.Add(3)
	h := func(_ context.Context, _ Addr, _ any) (any, error) {
		count.Add(1)
		wg.Done()
		return nil, nil
	}
	n.Listen("osd.0", h)
	n.Listen("osd.1", h)
	n.Listen("osd.2", h)
	n.Broadcast("mon.0", []Addr{"osd.0", "osd.1", "osd.2"}, "map-update")
	waitTimeout(t, &wg, 2*time.Second)
	if count.Load() != 3 {
		t.Fatalf("delivered %d, want 3", count.Load())
	}
}

func TestStatsCounters(t *testing.T) {
	n := NewNetwork()
	n.Listen("a", echoHandler)
	_, _ = n.Call(context.Background(), "x", "a", 1)
	_, _ = n.Call(context.Background(), "x", "missing", 1)
	n.Send("x", "a", 1)
	s := n.Stats()
	if s.Calls != 1 || s.Refused != 1 || s.Sends != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOutboundEndpointStats(t *testing.T) {
	n := NewNetwork()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		entered.Done()
		<-release
		return req, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = n.Call(context.Background(), "osd.primary", "osd.0", 1)
		}()
	}
	entered.Wait() // both calls are in flight from osd.primary right now
	mid := n.Stats().Outbound["osd.primary"]
	close(release)
	wg.Wait()
	if mid.Inflight != 2 || mid.MaxInflight != 2 {
		t.Fatalf("mid-flight stats = %+v, want Inflight=2 MaxInflight=2", mid)
	}
	end := n.Stats().Outbound["osd.primary"]
	if end.Calls != 2 || end.Inflight != 0 || end.MaxInflight != 2 {
		t.Fatalf("final stats = %+v, want Calls=2 Inflight=0 MaxInflight=2", end)
	}
	// Failed routes (unreachable endpoint) never begin an outbound call.
	_, _ = n.Call(context.Background(), "osd.primary", "missing", 1)
	if got := n.Stats().Outbound["osd.primary"].Calls; got != 2 {
		t.Fatalf("refused call counted: Calls = %d, want 2", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := NewNetwork()
	var served atomic.Int64
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		served.Add(1)
		return req, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := n.Call(context.Background(), Addr("c"), "osd.0", i)
			if err != nil || resp != i {
				t.Errorf("call %d: resp=%v err=%v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if served.Load() != 64 {
		t.Fatalf("served %d", served.Load())
	}
}

func TestPropPartitionSymmetry(t *testing.T) {
	// pairKey must be order-insensitive for any pair of addresses.
	f := func(a, b string) bool {
		return pairKey(Addr(a), Addr(b)) == pairKey(Addr(b), Addr(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSeededNetworksAgree(t *testing.T) {
	// Two fabrics with the same seed drop the same message sequence.
	f := func(seed int64, trials uint8) bool {
		n1, n2 := NewNetwork(WithSeed(seed)), NewNetwork(WithSeed(seed))
		n1.SetDropRate(0.5)
		n2.SetDropRate(0.5)
		n1.Listen("a", echoHandler)
		n2.Listen("a", echoHandler)
		for i := 0; i < int(trials%32); i++ {
			_, e1 := n1.Call(context.Background(), "c", "a", i)
			_, e2 := n2.Call(context.Background(), "c", "a", i)
			if (e1 == nil) != (e2 == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func waitTimeout(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out waiting")
	}
}

// laterWork is a Deferred whose work reports on started once it begins
// and then waits for release.
type laterWork struct {
	reply   any
	started chan context.Context
	release chan struct{}
}

func (w *laterWork) Reply() any { return w.reply }

func (w *laterWork) RunLater(ctx context.Context) {
	w.started <- ctx
	<-w.release
}

// TestDeferredRunsAfterReply pins the fabric's rule for a handler's
// after-work: the caller receives the Deferred's Reply; at zero delay
// the work runs on the caller's goroutine before Call returns; at a
// nonzero delay it starts while the reply is in transit, so Call returns
// after one reply delay however long the work takes, and the work's
// context outlives the caller's. Send runs the work too.
func TestDeferredRunsAfterReply(t *testing.T) {
	newWork := func() *laterWork {
		return &laterWork{reply: "ack", started: make(chan context.Context, 1), release: make(chan struct{})}
	}
	n := NewNetwork()
	var w *laterWork
	n.Listen("osd.0", func(context.Context, Addr, any) (any, error) { return w, nil })

	w = newWork()
	close(w.release)
	resp, err := n.Call(context.Background(), "c", "osd.0", 1)
	if err != nil || resp != "ack" {
		t.Fatalf("zero delay: resp %v, err %v; want the Deferred's reply", resp, err)
	}
	select {
	case <-w.started:
	default:
		t.Fatal("zero delay: Call returned before the handler's after-work ran")
	}

	const d = 20 * time.Millisecond
	n.SetLatency(d, 0)
	w = newWork()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	resp, err = n.Call(ctx, "c", "osd.0", 1)
	took := time.Since(start)
	cancel()
	if err != nil || resp != "ack" {
		t.Fatalf("delay %v: resp %v, err %v", d, resp, err)
	}
	if took >= 4*d {
		t.Errorf("delay %v: Call took %v while its after-work was still blocked; want ~2 delays", d, took)
	}
	select {
	case wctx := <-w.started:
		if wctx.Err() != nil {
			t.Errorf("after-work context cancelled with its caller's: %v", wctx.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("after-work never started")
	}
	close(w.release)

	n.SetLatency(0, 0)
	w = newWork()
	close(w.release)
	n.Send("c", "osd.0", 1)
	select {
	case <-w.started:
	case <-time.After(2 * time.Second):
		t.Fatal("Send dropped the handler's after-work")
	}
}

// TestDeliveryNeverEarly runs many concurrent deliveries, the load under
// which the doorbell wakes the netpoller between the runtime's own
// timer waits: a Call at delay d never returns in under 2d, and a Send
// never runs its handler in under d. Waking on time must never mean
// waking early. There is deliberately no upper bound.
func TestDeliveryNeverEarly(t *testing.T) {
	const d = 2 * time.Millisecond
	const workers, rounds = 8, 5
	n := NewNetwork(WithLatency(d, 0))
	sent := make(chan time.Duration, workers*rounds) // one per Send
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		if at, ok := req.(time.Time); ok {
			sent <- time.Since(at)
		}
		return req, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the workers so deadlines interleave.
				time.Sleep(time.Duration(w) * 100 * time.Microsecond)
				n.Send("c", "osd.0", time.Now())
				start := time.Now()
				if _, err := n.Call(context.Background(), "c", "osd.0", r); err != nil {
					errs <- err
					return
				}
				if took := time.Since(start); took < 2*d {
					errs <- fmt.Errorf("call returned after %v, under two hops of %v", took, d)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < workers*rounds; i++ {
		if took := <-sent; took < d {
			t.Errorf("send ran its handler after %v, under one hop of %v", took, d)
		}
	}
}
