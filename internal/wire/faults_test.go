package wire

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A Call that was already delivered must complete even if the pair is
// partitioned while the reply is in flight; the next Call must fail.
func TestPartitionDuringInflightCall(t *testing.T) {
	n := NewNetwork(WithLatency(30*time.Millisecond, 0))
	entered := make(chan struct{})
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		close(entered)
		return req, nil
	})

	type outcome struct {
		resp any
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := n.Call(context.Background(), "client.1", "osd.0", "ping")
		done <- outcome{resp, err}
	}()

	// Sever the pair only after the request was delivered to the handler.
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never entered")
	}
	n.Partition("client.1", "osd.0")

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("in-flight call should survive partition, got %v", o.err)
		}
		if o.resp != "ping" {
			t.Fatalf("resp = %v, want ping", o.resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call did not complete")
	}

	if _, err := n.Call(context.Background(), "client.1", "osd.0", "ping"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("post-partition call: got %v, want ErrPartitioned", err)
	}
}

// Heal and HealAll racing Broadcast must be race-free and leave the
// fabric fully connected once the toggling stops.
func TestHealRacingBroadcast(t *testing.T) {
	n := NewNetwork()
	targets := []Addr{"osd.0", "osd.1", "osd.2"}
	for _, a := range targets {
		n.Listen(a, func(_ context.Context, _ Addr, req any) (any, error) {
			return req, nil
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n.Partition("mon.0", "osd.1")
			n.HealAll()
			n.Partition("mon.0", "osd.2")
			n.HealAll()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			n.Broadcast("mon.0", targets, i)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	n.HealAll()
	for _, a := range targets {
		if _, err := n.Call(context.Background(), "mon.0", a, "ok"); err != nil {
			t.Fatalf("call to %s after HealAll: %v", a, err)
		}
	}
}

// SetDropRate, SetLinkDropRate and SetLatency changing while Calls are
// streaming must be race-free, and clearing them must restore lossless
// immediate delivery.
func TestDropLatencyTogglesMidStream(t *testing.T) {
	n := NewNetwork(WithSeed(7))
	n.Listen("osd.0", echoHandler)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // caller stream
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			//lint:ignore errdrop drops are the point of this stream; correctness is checked after the toggles stop
			_, _ = n.Call(ctx, "client.1", "osd.0", "x")
			cancel()
		}
	}()
	go func() { // drop-rate toggler
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n.SetDropRate(float64(i%2) * 0.5)
			n.SetLinkDropRate("client.1", "osd.0", float64((i+1)%2)*0.8)
		}
	}()
	go func() { // latency toggler
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n.SetLatency(time.Duration(i%3)*time.Millisecond, time.Duration(i%2)*time.Millisecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	n.SetDropRate(0)
	n.SetLinkDropRate("client.1", "osd.0", 0)
	n.SetLatency(0, 0)
	for i := 0; i < 50; i++ {
		if _, err := n.Call(context.Background(), "client.1", "osd.0", i); err != nil {
			t.Fatalf("call %d after clearing faults: %v", i, err)
		}
	}
}

// Every setter publishes a new route snapshot: with Calls streaming
// over the same endpoints, the first Call after each setter returns
// sees the state it set, the streams see none of client.2's pair
// faults, and once the last fault is healed the route is
// back on the fault-free path, with no pair lookups.
func TestFaultSnapshotSettersUnderLoad(t *testing.T) {
	n := NewNetwork(WithSeed(11))
	n.Listen("osd.0", echoHandler)
	n.Listen("osd.1", echoHandler)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		to := Addr("osd.0")
		if i%2 == 1 {
			to = "osd.1"
		}
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// client.1's links are never faulted; only osd.1 leaves.
				if _, err := n.Call(context.Background(), "client.1", to, "x"); err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("stream call to %s: %v", to, err)
					return
				}
			}
		}()
	}

	probe := func(step string, to Addr, want error) {
		t.Helper()
		_, err := n.Call(context.Background(), "client.2", to, step)
		if want == nil && err != nil || want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: call to %s = %v, want %v", step, to, err, want)
		}
	}
	for round := 0; round < 200; round++ {
		n.Partition("client.2", "osd.0")
		probe("partition", "osd.0", ErrPartitioned)
		probe("partition, other pair", "osd.1", nil)
		n.HealAll()
		probe("heal", "osd.0", nil)
		n.SetLinkDropRate("client.2", "osd.0", 1)
		probe("link drop on", "osd.0", ErrDropped)
		n.SetLinkDropRate("client.2", "osd.0", 0)
		probe("link drop off", "osd.0", nil)
		n.Partition("client.2", "osd.1")
		n.SetLinkDropRate("client.2", "osd.0", 1)
		n.HealAll()
		probe("heal-all", "osd.1", nil)
		probe("heal-all", "osd.0", nil)
		n.Unlisten("osd.1")
		probe("unlisten", "osd.1", ErrUnreachable)
		n.Listen("osd.1", echoHandler)
		probe("listen", "osd.1", nil)
	}
	close(stop)
	wg.Wait()

	if !n.routes.Load().faultFree() {
		t.Fatal("route still takes the pair lookups after every fault was healed")
	}
	if st := n.Stats(); st.Drops == 0 || st.Refused == 0 {
		t.Fatalf("stats = %+v, want the probes' drops and refusals counted", st)
	}
}

// A per-link drop override affects only that link, and HealAll clears it.
func TestLinkDropRateIsolatesLink(t *testing.T) {
	n := NewNetwork()
	n.Listen("osd.0", echoHandler)
	n.Listen("osd.1", echoHandler)
	n.SetLinkDropRate("client.1", "osd.0", 1.0)

	if _, err := n.Call(context.Background(), "client.1", "osd.0", "x"); !errors.Is(err, ErrDropped) {
		t.Fatalf("flaky link: got %v, want ErrDropped", err)
	}
	if _, err := n.Call(context.Background(), "client.1", "osd.1", "x"); err != nil {
		t.Fatalf("clean link affected by override: %v", err)
	}

	n.HealAll()
	if _, err := n.Call(context.Background(), "client.1", "osd.0", "x"); err != nil {
		t.Fatalf("link override survived HealAll: %v", err)
	}
}

// The fault hook observes every injected change, in order, from the
// injecting goroutine.
func TestOnFaultHookObservesChanges(t *testing.T) {
	n := NewNetwork()
	var got []string
	n.OnFault(func(ev FaultEvent) { got = append(got, ev.Kind) })

	n.Partition("a", "b")
	n.SetDropRate(0.25)
	n.SetLinkDropRate("a", "b", 0.5)
	n.SetLatency(time.Millisecond, 0)
	n.HealAll()

	want := []string{"partition", "drop-rate", "link-drop", "latency", "heal-all"}
	if len(got) != len(want) {
		t.Fatalf("fault events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (%v)", i, got[i], want[i], got)
		}
	}
}
