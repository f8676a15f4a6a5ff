// Fixture for the retrysafe pass: ops resent by a retry wrapper must
// be idempotent, versioned, or explicitly justified. The store's
// dispatch exercises every classification (read, overwrite, write-set
// overwrite, read-modify-write, delegate); the gstore's dispatch sits behind an
// OpID-style replay guard and is upgraded to versioned wholesale.
package retrysafe

import (
	"context"
	"time"
)

// Backoff stands in for the retry pacing helper the real module keeps
// in internal/retry.
func Backoff(ctx context.Context, attempt int, base, max time.Duration) bool {
	return ctx.Err() == nil
}

type addr string

func serverAddr(i int) addr { return addr("srv") }

type fabric struct{}

func (f *fabric) Call(ctx context.Context, from, to addr, req any) (any, error) {
	return req, nil
}

// ---- the unguarded dispatch ----

type opKind int

const (
	opRead opKind = iota
	opPut
	opBump
	opExec
	opTxn
)

type write struct {
	Key string
	Val []byte // nil deletes
}

type request struct {
	Op  opKind
	Key string
	Val []byte
	Set []write
}

type store struct {
	data   map[string][]byte
	counts map[string]int
}

func (s *store) apply(req request) (string, bool) {
	switch req.Op {
	case opRead:
		return string(s.data[req.Key]), false
	case opPut:
		s.data[req.Key] = req.Val
		return "", true
	case opBump:
		s.counts[req.Key] = s.counts[req.Key] + 1
		return "", true
	case opExec:
		return s.exec(req)
	case opTxn:
		// The final values some earlier execution left: installed without
		// reading what they replace.
		for _, w := range req.Set {
			if w.Val == nil {
				delete(s.data, w.Key)
			} else {
				s.data[w.Key] = w.Val
			}
		}
		return "", true
	}
	return "", false
}

func (s *store) exec(req request) (string, bool) {
	s.counts[req.Key] = 0
	return "", true
}

// ---- the retry wrapper ----

type client struct {
	fab  *fabric
	self addr
}

func (c *client) do(ctx context.Context, req request) (string, error) {
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !Backoff(ctx, attempt, time.Millisecond, time.Second) {
			return "", ctx.Err()
		}
		if out, err := c.fab.Call(ctx, c.self, serverAddr(0), req); err == nil {
			s, _ := out.(string)
			return s, nil
		}
	}
	return "", ctx.Err()
}

// Bad: a lost ack makes the resend increment twice.
func bumpTwice(ctx context.Context, c *client) {
	c.do(ctx, request{Op: opBump, Key: "k"}) // want "non-idempotent"
}

// Good: a pure read resends harmlessly.
func readIt(ctx context.Context, c *client) {
	c.do(ctx, request{Op: opRead, Key: "k"})
}

// Good: an absolute overwrite converges on any number of deliveries.
func putIt(ctx context.Context, c *client) {
	c.do(ctx, request{Op: opPut, Key: "k", Val: []byte("v")})
}

// Good: a write-set of final values is an overwrite however many keys
// it carries — the shape a replicated class call takes.
func txnIt(ctx context.Context, c *client) {
	c.do(ctx, request{Op: opTxn, Set: []write{{Key: "k", Val: []byte("v")}, {Key: "gone"}}})
}

// Good: the delegate is non-idempotent to the classifier, but the call
// site carries an explicit justification.
func execJustified(ctx context.Context, c *client) {
	//rpc:idempotent-because exec resets the counter to an absolute value
	c.do(ctx, request{Op: opExec, Key: "k"})
}

// ---- the replay-guarded dispatch ----

type gkind int

const (
	gRead gkind = iota
	gBump
)

type greq struct {
	Op  gkind
	ID  uint64
	Key string
}

type gstore struct {
	seen   map[uint64]string
	counts map[string]int
}

// handle is the replay-guard gateway: a duplicate ID returns the
// recorded outcome before the dispatch runs.
func (g *gstore) handle(req greq) (string, bool) {
	if rep, ok := g.seen[req.ID]; ok {
		return rep, false
	}
	return g.apply(req)
}

func (g *gstore) apply(req greq) (string, bool) {
	switch req.Op {
	case gRead:
		return "", false
	case gBump:
		g.counts[req.Key] = g.counts[req.Key] + 1
		return "", true
	}
	return "", false
}

func (c *client) gdo(ctx context.Context, req greq) (string, error) {
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !Backoff(ctx, attempt, time.Millisecond, time.Second) {
			return "", ctx.Err()
		}
		if out, err := c.fab.Call(ctx, c.self, serverAddr(1), req); err == nil {
			s, _ := out.(string)
			return s, nil
		}
	}
	return "", ctx.Err()
}

// Good: gBump alone is read-modify-write, but its dispatch sits behind
// the gateway's ID check, so a resend is a cache hit.
func bumpGuarded(ctx context.Context, c *client) {
	c.gdo(ctx, greq{Op: gBump, ID: 7, Key: "k"})
}
