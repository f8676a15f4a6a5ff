//go:build linux

package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"
)

// bellProbe drives a doorbell on a hand-moved clock and records what it
// arms the fd with.
type bellProbe struct {
	clock int64
	arms  []time.Duration
	fail  bool
}

func newBellProbe(start int64) (*doorbell, *bellProbe) {
	p := &bellProbe{clock: start}
	b := &doorbell{
		now: func() int64 { return p.clock },
		arm: func(d time.Duration) error {
			if p.fail {
				return errors.New("settime failed")
			}
			p.arms = append(p.arms, d)
			return nil
		},
	}
	return b, p
}

func (p *bellProbe) wantArms(t *testing.T, want ...time.Duration) {
	t.Helper()
	if !slices.Equal(p.arms, want) {
		t.Fatalf("arms = %v, want %v", p.arms, want)
	}
	p.arms = nil
}

func TestDoorbellArmsEarliest(t *testing.T) {
	b, p := newBellProbe(1000)
	b.ring(500) // due 1500: the first deadline arms
	b.ring(300) // due 1300: earlier, re-arms
	b.ring(900) // due 1900: later, leaves the arm alone
	p.clock = 1100
	b.ring(100) // due 1200: earlier again
	b.ring(200) // due 1300: a tie with a queued deadline, later than armed
	p.wantArms(t, 500, 300, 100)
	if b.armed != 1200 || len(b.due) != 5 {
		t.Fatalf("armed %d with %d queued, want 1200 with 5", b.armed, len(b.due))
	}
}

func TestDoorbellWokeDropsPastAndRearms(t *testing.T) {
	b, p := newBellProbe(1000)
	for _, d := range []time.Duration{900, 500, 300, 200, 510} { // due 1900, 1500, 1300, 1200, 1510
		b.ring(d)
	}
	p.arms = nil

	p.clock = 1250
	b.woke(1200) // the armed deadline's waiter: drops 1200, arms 1300
	p.wantArms(t, 50)
	p.clock = 1290
	b.woke(1300) // its timer fired just before the clock reached 1300: 1300 counts as passed
	p.wantArms(t, 210)
	p.clock = 1600
	b.woke(1500) // drops 1500 and 1510 together, arms 1900
	p.wantArms(t, 300)
	b.woke(1510) // already dropped: the fd is armed for a later deadline, left alone
	p.wantArms(t)
	if b.armed != 1900 || len(b.due) != 1 {
		t.Fatalf("armed %d with %d queued, want 1900 with 1", b.armed, len(b.due))
	}

	// Once the queue empties the fd is disarmed (it is one-shot and has
	// expired), so the next ring arms even for a later deadline.
	p.clock = 1900
	b.woke(1900)
	p.wantArms(t)
	if b.armed != 0 || len(b.due) != 0 {
		t.Fatalf("armed %d with %d queued after the last deadline, want disarmed and empty", b.armed, len(b.due))
	}
	p.clock = 2000
	b.ring(5000)
	p.wantArms(t, 5000)
}

// TestDoorbellRingDropsAbandonedDeadline: a wait cut short leaves its
// deadline queued, and armed; the next ring after it passed drops it and
// arms the fd for the earliest live one.
func TestDoorbellRingDropsAbandonedDeadline(t *testing.T) {
	b, p := newBellProbe(1000)
	b.ring(100) // due 1100, armed; its wait is cut short, so no woke follows
	b.ring(500) // due 1500
	p.wantArms(t, 100)
	p.clock = 1200
	b.ring(1000) // due 2200; 1100 has passed, so the fd is re-armed for 1500
	p.wantArms(t, 300)
	if b.armed != 1500 || len(b.due) != 2 {
		t.Fatalf("armed %d with %d queued, want 1500 with 2", b.armed, len(b.due))
	}
}

func TestDoorbellDiesWhenArmFails(t *testing.T) {
	b, p := newBellProbe(1000)
	b.ring(500)
	p.fail = true
	b.ring(100) // earlier, so it arms, and the arm fails
	if !b.dead || len(b.due) != 0 || b.armed != 0 {
		t.Fatalf("dead=%v queued=%d armed=%d after a failed arm, want dead, empty, disarmed", b.dead, len(b.due), b.armed)
	}
	p.fail = false
	if at := b.ring(50); at != 0 {
		t.Fatalf("a dead doorbell queued deadline %d", at)
	}
	b.woke(1100)
	p.wantArms(t, 500)
	if len(b.due) != 0 {
		t.Fatalf("a dead doorbell queued %d deadlines", len(b.due))
	}
}

// TestDoorbellTimerfdExpires opens a second doorbell as the package
// opens its own, arms it and reads its fd through the netpoller: the
// timerfd expires once, and a read parked on it wakes.
func TestDoorbellTimerfdExpires(t *testing.T) {
	b := openDoorbell()
	if b.fd == nil {
		t.Skip("timerfd_create failed here; delivery rests on the runtime timer alone")
	}
	t.Cleanup(func() { b.fd.Close() })
	if err := b.arm(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if _, err := b.fd.Read(buf[:]); err != nil {
		t.Fatal(err)
	}
	if n := binary.NativeEndian.Uint64(buf[:]); n != 1 {
		t.Fatalf("timerfd read %d expiries, want 1", n)
	}
}

// TestCallAndSendWithoutDoorbell runs the fabric with the doorbell dead,
// as when timerfd_create or timerfd_settime fails: the runtime timer
// alone still delivers.
func TestCallAndSendWithoutDoorbell(t *testing.T) {
	bell.mu.Lock()
	wasDead := bell.dead
	bell.dead = true
	bell.mu.Unlock()
	t.Cleanup(func() {
		bell.mu.Lock()
		bell.dead = wasDead
		bell.mu.Unlock()
	})

	const d = time.Millisecond
	n := NewNetwork(WithLatency(d, 0))
	delivered := make(chan struct{})
	n.Listen("osd.0", func(_ context.Context, _ Addr, req any) (any, error) {
		if req == "send" {
			close(delivered)
		}
		return req, nil
	})
	start := time.Now()
	if _, err := n.Call(context.Background(), "c", "osd.0", "call"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 2*d {
		t.Fatalf("call returned after %v, under two hops of %v", took, d)
	}
	n.Send("c", "osd.0", "send")
	<-delivered
}
