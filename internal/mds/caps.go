package mds

import (
	"context"
	"time"

	"repro/internal/stopctx"
	"repro/internal/wire"
)

// The capability protocol (Shared Resource interface, Section 4.3.1):
// one client at a time may hold the exclusive cached capability on an
// inode, operating on its state locally. Competing clients queue; the
// metadata server recalls the cap from the holder, whose policy decides
// how promptly it yields:
//
//   best-effort — release as soon as recalled (Ceph's default; heavy
//                 interleaving, most time spent redistributing);
//   delay       — hold until the grant's lease expires;
//   quota       — hold until the granted operation budget is consumed.
//
// The protocol is cooperative, as in CephFS; an unresponsive holder is
// force-reclaimed after RecallTimeout.

// CapEvent is one capability transition on an inode, recorded under the
// server mutex so the per-server sequence is a linearization. The chaos
// harness audits these: a "grant" while another client still holds the
// cap would mean two concurrent sequencers.
type CapEvent struct {
	Path   string
	Client wire.Addr
	Kind   string // "grant" or "release"
}

// CapHistory returns a copy of this rank's capability transition log.
func (s *Server) CapHistory() []CapEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CapEvent, len(s.capLog))
	copy(out, s.capLog)
	return out
}

func (s *Server) handleAcquire(ctx context.Context, r AcquireReq) AcquireResp {
	s.work(s.cfg.HandleTime)
	s.countOp()
	ino, fwd, redir := s.resolve(r.Path)
	switch {
	case redir >= 0:
		return AcquireResp{Status: StRedirect, Redirect: redir}
	case fwd >= 0:
		// Capabilities are not proxied: the client must talk to the
		// authority directly.
		return AcquireResp{Status: StRedirect, Redirect: fwd}
	case ino == nil:
		return AcquireResp{Status: StNotFound}
	}

	s.mu.Lock()
	if !ino.Policy.Cacheable {
		s.mu.Unlock()
		return AcquireResp{Status: StDenied}
	}
	if ino.holder == "" {
		if ino.fenced(time.Now()) {
			// A SetValue (recovery tail install) is chasing this inode;
			// grants resume when it lands or the fence expires.
			s.mu.Unlock()
			return AcquireResp{Status: StAgain}
		}
		resp := s.grantLocked(ino, r.Client)
		s.mu.Unlock()
		return resp
	}
	ch := s.enqueueWaiterLocked(ino, r.Client)
	s.mu.Unlock()

	select {
	case resp := <-ch:
		return resp
	case <-ctx.Done():
		// The client gave up; withdraw from the queue.
		s.mu.Lock()
		for i, w := range ino.waiters {
			if w.client == r.Client {
				ino.waiters = append(ino.waiters[:i], ino.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return AcquireResp{Status: StAgain}
	}
}

// grantLocked hands the capability to client. If others are already
// waiting, a recall chases the grant immediately so the new holder
// yields per its policy.
func (s *Server) grantLocked(ino *inode, client wire.Addr) AcquireResp {
	ino.holder = client
	ino.grantSeq++
	ino.recallSent = false
	ino.Popularity++
	s.capLog = append(s.capLog, CapEvent{Path: ino.Path, Client: client, Kind: "grant"})
	resp := AcquireResp{
		Status: StOK,
		Value:  ino.Value,
		Quota:  ino.Policy.Quota,
		Lease:  ino.Policy.Delay,
	}
	if len(ino.waiters) > 0 {
		s.sendRecallLocked(ino)
	}
	return resp
}

// enqueueWaiterLocked queues a contender and triggers a recall.
func (s *Server) enqueueWaiterLocked(ino *inode, client wire.Addr) chan AcquireResp {
	ch := make(chan AcquireResp, 1)
	ino.waiters = append(ino.waiters, &waiter{client: client, ch: ch})
	s.sendRecallLocked(ino)
	return ch
}

// sendRecallLocked pushes a recall to the current holder (once per
// grant) and arms the force-reclaim timer.
func (s *Server) sendRecallLocked(ino *inode) {
	if ino.recallSent || ino.holder == "" || ino.holder == s.Addr() {
		return
	}
	ino.recallSent = true
	s.net.Send(s.Addr(), ino.holder, RecallMsg{Path: ino.Path})

	seq := ino.grantSeq
	path := ino.Path
	holder := ino.holder
	timeout := s.cfg.RecallTimeout
	if ino.Policy.Delay > 0 && timeout < 2*ino.Policy.Delay {
		timeout = 2 * ino.Policy.Delay
	}
	time.AfterFunc(timeout, func() {
		s.mu.Lock()
		cur, ok := s.inodes[path]
		if !ok || cur.grantSeq != seq || cur.holder != holder {
			s.mu.Unlock()
			return // the grant was already released
		}
		// Force-reclaim from the unresponsive client; local increments it
		// made since the grant are lost (ZLog recovers via seal).
		_, g := s.releaseLocked(cur, holder, cur.Value)
		s.mu.Unlock()
		g.deliver()
		go func() {
			ctx, cancel := stopctx.WithTimeout(s.stopCh, time.Second)
			defer cancel()
			s.monc.Log(ctx, "warn", "force-reclaimed cap on "+path+" from "+string(holder)) //nolint:errcheck
		}()
	})
}

func (s *Server) handleRelease(r ReleaseReq) ReleaseResp {
	s.work(s.cfg.HandleTime)
	s.countOp()
	s.mu.Lock()
	ino, ok := s.inodes[r.Path]
	if !ok {
		s.mu.Unlock()
		return ReleaseResp{Status: StNotFound}
	}
	released, g := s.releaseLocked(ino, r.Client, r.Value)
	if released {
		// The holder's final value is a checkpoint, journaled off the
		// reply path.
		s.checkpointLocked(ino.Path, ino.Value)
	}
	s.mu.Unlock()
	g.deliver()
	return ReleaseResp{Status: StOK}
}

// grantMsg is a pending capability grant: the next waiter's channel and
// the response to put on it. Grants are delivered after s.mu is
// released, so no waiter ever wakes while the server holds the lock.
type grantMsg struct {
	ch   chan AcquireResp
	resp AcquireResp
}

// deliver completes the grant; nil-safe for the no-grant case. Waiter
// channels are buffered (capacity 1), so this never blocks.
func (g *grantMsg) deliver() {
	if g != nil {
		g.ch <- g.resp
	}
}

// releaseLocked returns the cap, folds the holder's final value into the
// inode, and dequeues the next waiter. It reports whether client held
// the cap, and returns the grant to deliver outside the lock (nil when
// there is none).
func (s *Server) releaseLocked(ino *inode, client wire.Addr, value uint64) (bool, *grantMsg) {
	if ino.holder != client {
		return false, nil // stale release (e.g. after force-reclaim)
	}
	if value > ino.Value {
		ino.Value = value
	}
	ino.holder = ""
	ino.recallSent = false
	s.capLog = append(s.capLog, CapEvent{Path: ino.Path, Client: client, Kind: "release"})
	var g *grantMsg
	if now := time.Now(); ino.fenced(now) {
		// A SetValue is waiting for exactly this moment: leave the cap
		// ungranted so its retry can install the value. Queued waiters are
		// resumed by the SetValue itself — or by this timer if the fencing
		// client crashed and the fence expires unclaimed.
		if len(ino.waiters) > 0 {
			path := ino.Path
			time.AfterFunc(ino.fenceUntil.Sub(now)+time.Millisecond, func() {
				s.regrantAfterFence(path)
			})
		}
	} else if len(ino.waiters) > 0 {
		next := ino.waiters[0]
		ino.waiters = ino.waiters[1:]
		g = &grantMsg{ch: next.ch, resp: s.grantLocked(ino, next.client)}
	}
	return true, g
}

// regrantAfterFence resumes a waiter queue that a fenced release left
// paused, if the fence lapsed without the fencing SetValue landing.
func (s *Server) regrantAfterFence(path string) {
	s.mu.Lock()
	ino, ok := s.inodes[path]
	if !ok || ino.holder != "" || len(ino.waiters) == 0 || ino.fenced(time.Now()) {
		s.mu.Unlock()
		return
	}
	next := ino.waiters[0]
	ino.waiters = ino.waiters[1:]
	g := &grantMsg{ch: next.ch, resp: s.grantLocked(ino, next.client)}
	s.mu.Unlock()
	g.deliver()
}
