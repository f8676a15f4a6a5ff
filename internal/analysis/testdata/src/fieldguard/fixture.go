// Fixture for the fieldguard pass: annotated or inferred mutex-guarded
// fields must only be accessed with the mutex held.
package fieldguard

import "sync"

type server struct {
	mu    sync.Mutex
	table map[string]int // guarded by mu
	hits  int            // guarded by mu
}

// Good: locked access.
func (s *server) get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table[k]
}

// Bad: unlocked write to an annotated field.
func (s *server) put(k string, v int) {
	s.table[k] = v // want "s.table accessed without holding s.mu"
}

// Bad: access after the explicit unlock earlier in the function.
func (s *server) bump(k string) int {
	s.mu.Lock()
	v := s.table[k]
	s.mu.Unlock()
	s.hits++ // want "s.hits accessed after s.mu was unlocked"
	return v
}

// Bad: a type switch's own operand reads the table without the lock.
func (s *server) kind(k string) string {
	switch any(s.table[k]).(type) { // want "s.table accessed without holding s.mu"
	case int:
		return "int"
	}
	return "other"
}

// Good: the *Locked suffix documents that callers hold the mutex.
func (s *server) dropLocked(k string) {
	delete(s.table, k)
}

// Good: the doc comment documents the protocol.
// Caller holds s.mu.
func (s *server) raw(k string) int {
	return s.table[k]
}

// lock/unlock helpers: callee summaries teach the scanner that calling
// them acquires/releases the receiver mutex.
func (s *server) lock()   { s.mu.Lock() }
func (s *server) unlock() { s.mu.Unlock() }

// Good: helper-held lock counts.
func (s *server) viaHelper(k string) int {
	s.lock()
	defer s.unlock()
	return s.table[k]
}

// Bad: the helper released the lock before the access.
func (s *server) viaHelperLate(k string) int {
	s.lock()
	s.unlock()
	return s.table[k] // want "s.table accessed after s.mu was unlocked"
}

// counter has no annotations: the guard is inferred from the majority
// of accesses (3 of 4 hold mu).
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) incA() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) incB() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) read() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Bad: the minority access without the inferred guard.
func (c *counter) racyPeek() int {
	return c.n // want "c.n accessed without holding c.mu"
}

// Good: constructors initialize before publication.
func newCounter() *counter {
	c := &counter{}
	c.n = 0
	return c
}

// misannotated: the annotation names a non-mutex sibling, which is
// itself a finding so annotations cannot rot.
type misannotated struct {
	mu sync.Mutex
	// guarded by lock
	bad int // want "not a sync.Mutex/RWMutex field of misannotated"
}

func (m *misannotated) use() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bad
}
