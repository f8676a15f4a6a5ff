// Fixture for the lockblock pass: no sync mutex held across an RPC, a
// channel operation, a blocking select, or time.Sleep — directly, or
// through call hops, with the witness chain in the finding.
package lockblock

import (
	"context"
	"sync"
	"time"
)

type conn struct{}

func (c *conn) Call(ctx context.Context, req string) (string, error) {
	return req, nil
}

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	net  *conn
	ch   chan int
	data map[string]int
}

// Bad: RPC while holding the lock (deferred unlock runs at return).
func (s *server) rpcUnderLock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net.Call(ctx, "x") // want "s.mu held across"
}

// Bad: sleeping while holding the lock.
func (s *server) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "s.mu held across time.Sleep"
	s.mu.Unlock()
}

// Bad: channel send while holding a read lock.
func (s *server) sendUnderLock() {
	s.rw.RLock()
	s.ch <- 1 // want "s.rw held across channel send"
	s.rw.RUnlock()
}

// waitOne blocks on a receive, so callers holding a lock inherit that.
func (s *server) waitOne() int {
	return <-s.ch
}

// Bad: the blocking operation is one call away.
func (s *server) transitive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitOne() // want "which blocks on"
}

// Bad: a type switch's own assignment runs under the lock.
func (s *server) typeSwitchUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch x := any(s.waitOne()).(type) { // want "which blocks on a channel receive"
	case int:
		return x
	}
	return 0
}

// push reaches the wire Call itself; sync is one call hop further away.
func (s *server) push(ctx context.Context) {
	s.net.Call(ctx, "flush")
}

func (s *server) sync(ctx context.Context) {
	s.push(ctx)
}

// Bad: s.mu is held while sync — two hops from a wire Call — runs, and
// the finding spells out every hop of the witness chain.
func (s *server) flushUnderLock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sync(ctx) // want "(which blocks on (*lockblock.conn).Call: (*lockblock.server).sync (fixture.go:84) -> (*lockblock.server).push (fixture.go:76) -> (*lockblock.conn).Call (fixture.go:72))"
}

// Good: the lock is dropped before the reaching call.
func (s *server) flushUnlocked(ctx context.Context) {
	s.mu.Lock()
	s.data["k"]++
	s.mu.Unlock()
	s.sync(ctx)
}

// Good: the lock is released before the RPC.
func (s *server) unlockFirst(ctx context.Context) {
	s.mu.Lock()
	s.data["k"]++
	s.mu.Unlock()
	s.net.Call(ctx, "x")
}

// Good: the early-unlock branch does not poison the fall-through path,
// and the fall-through path never blocks.
func (s *server) branchy(ctx context.Context, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.net.Call(ctx, "fast")
		return
	}
	s.data["k"]++
	s.mu.Unlock()
}

// Good: a spawned goroutine runs on its own stack and does not hold the
// spawner's lock.
func (s *server) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		<-s.ch
	}()
	s.data["k"]++
}
