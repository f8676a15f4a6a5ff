package rados

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// A replicated mutation answers its sender in three hops: the primary
// replies as soon as its own copy is applied and committed, and each
// replica peer acknowledges the sender directly once it has applied and
// committed the forward (replicaAck). A peer whose ack cannot reach the
// sender — the forward failed, was refused, or the replica could not
// reach it — is answered for by the primary instead, a relay. The
// sender returns once it holds the primary's reply plus one answer per
// peer the reply counts (OpReply.Forwards): the guarantee a primary that
// waited for its replicas before replying gave. A witnessed op
// (witness.go) adds a third kind of answer, the peer's acceptance of the
// op's witness copy. Answers are tallied by peer, so an accept, an ack
// and a relay for the same peer count once.
//
// ackWait bounds each silence: after it the sender re-sends the op under
// its OpID, and the primary's replay cache answers — with Forwards 0 once
// a fan-out that lost an answer has finished. It is the longest a
// replica buffers an out-of-order forward by default
// (OSDConfig.ReplicaWaitTimeout), the one wait a forward may
// legitimately sit in besides fabric delays and a journal commit.
const ackWait = defaultReplicaWaitTimeout

// ackSlots is how many of a sender's mutations its table tracks without
// a map. A sender's OpIDs are sequential, so the ops it has in flight at
// once take distinct slots until more than ackSlots are.
const ackSlots = 64

// ackWaiter is one mutation's tally at its sender.
type ackWaiter struct {
	id    uint64 // the op's OpID; 0 marks a free slot
	heard peerSet
	want  int           // peers the blocked waiter needs
	wake  chan struct{} // closed once heard reaches want; nil while nobody waits
}

// ackInline is how many peers a tally holds without allocating: a
// replicas=5 acting set's.
const ackInline = 4

// peerSet is the peers an op has heard from.
type peerSet struct {
	inline [ackInline]wire.Addr
	n      int         // peers in inline
	more   []wire.Addr // peers past the first ackInline
}

// add counts peer once; false when it was already counted.
func (s *peerSet) add(peer wire.Addr) bool {
	if slices.Contains(s.inline[:s.n], peer) || slices.Contains(s.more, peer) {
		return false
	}
	if s.n < ackInline {
		s.inline[s.n] = peer
		s.n++
	} else {
		s.more = append(s.more, peer)
	}
	return true
}

// len is how many peers have answered.
func (s *peerSet) len() int { return s.n + len(s.more) }

// ackTable is a sender's pending mutations, by OpID. The zero value is
// ready; only a Client closes one.
type ackTable struct {
	mu     sync.Mutex
	slots  [ackSlots]ackWaiter   // guarded by mu; by OpID % ackSlots
	spill  map[uint64]*ackWaiter // guarded by mu; ops whose slot was taken
	closed bool                  // guarded by mu
	done   chan struct{}         // guarded by mu; closed by close
}

// find returns id's tally, nil when it has none. Caller holds t.mu.
func (t *ackTable) find(id uint64) *ackWaiter {
	if w := &t.slots[id%ackSlots]; w.id == id {
		return w
	}
	return t.spill[id]
}

// drop closes id's tally. Caller holds t.mu.
func (t *ackTable) drop(id uint64) {
	if w := &t.slots[id%ackSlots]; w.id == id {
		*w = ackWaiter{}
		return
	}
	delete(t.spill, id)
}

// expect opens a tally for id before its op is sent, so an answer that
// beats the primary's reply is counted; false once the table is closed.
func (t *ackTable) expect(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if w := &t.slots[id%ackSlots]; w.id == 0 {
		*w = ackWaiter{id: id}
		return true
	}
	if t.spill == nil {
		t.spill = make(map[uint64]*ackWaiter)
	}
	t.spill[id] = &ackWaiter{id: id}
	return true
}

// note counts peer's answer for id, once however many of its accept,
// ack and relay arrive. An answer for an op nobody waits for any more is
// dropped.
func (t *ackTable) note(id uint64, peer wire.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.find(id)
	if w == nil || !w.heard.add(peer) {
		return
	}
	if w.wake != nil && w.heard.len() >= w.want {
		close(w.wake)
		w.wake = nil
	}
}

// forget closes id's tally.
func (t *ackTable) forget(id uint64) {
	t.mu.Lock()
	t.drop(id)
	t.mu.Unlock()
}

// close fails every waiting op, and every later expect.
func (t *ackTable) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		if t.done != nil {
			close(t.done)
		}
	}
}

// wait blocks until id has want answers (true), ackWait passes (false),
// ctx ends, stop closes or the table closes (the error). The answers
// already in are checked first, so at zero fabric delay — where every
// peer has answered before the primary's reply returns — it takes no
// timer. A true return closes id's tally.
func (t *ackTable) wait(ctx context.Context, stop <-chan struct{}, id uint64, want int) (bool, error) {
	t.mu.Lock()
	w := t.find(id)
	if w == nil || w.heard.len() >= want {
		t.drop(id)
		t.mu.Unlock()
		return true, nil
	}
	if t.closed {
		t.mu.Unlock()
		return false, ErrClosed
	}
	if t.done == nil {
		t.done = make(chan struct{})
	}
	done := t.done
	if w.wake == nil {
		w.wake = make(chan struct{})
	}
	w.want = want
	wake := w.wake
	t.mu.Unlock()
	timer := time.NewTimer(ackWait)
	defer timer.Stop()
	select {
	case <-wake:
		t.forget(id)
		return true, nil
	case <-timer.C:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	case <-stop:
		return false, errStopped
	case <-done:
		return false, ErrClosed
	}
}

// errStopped ends the wait of an op whose sender stopped.
var errStopped = errors.New("rados: sender stopped")

// settle returns once every peer the primary's reply rep counts has
// answered id, re-sending the op (resend, to that primary, under the same
// OpID) each time ackWait passes in silence, until stop closes (nil:
// never); it closes id's tally. The
// primary applied and committed the op before rep was sent, so a re-send
// that no longer reaches it, or that it refuses as stale, ends the wait
// with rep standing: its replicas are then backfill's and scrub's to
// repair, as a forward the primary could not deliver always was.
func (t *ackTable) settle(ctx context.Context, stop <-chan struct{}, id uint64, rep OpReply, resend func() (OpReply, error)) error {
	for round := 1; ; round++ {
		done, err := t.wait(ctx, stop, id, int(rep.Forwards))
		if done {
			return nil
		}
		if err != nil || round == maxOpRetries {
			t.forget(id)
			return err
		}
		again, err := resend()
		if err != nil || again.Result == EMapStale {
			t.forget(id)
			return nil
		}
		rep = again
	}
}
