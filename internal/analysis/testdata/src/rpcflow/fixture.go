// Fixture for the rpcflow pass: registered daemon handlers whose
// synchronous wire Calls form wait-for cycles — a mutual cycle and a
// self-loop are findings; a relay-guarded forward is not. (A lock held
// while a call reaches an RPC is lockblock's finding, in its fixture.)
package rpcflow

import "context"

type addr string

type fabric struct{}

func (f *fabric) Call(ctx context.Context, from, to addr, req any) (any, error) {
	return req, nil
}

func (f *fabric) Listen(a addr, h func(ctx context.Context, from addr, req any) (any, error)) {
}

func alphaAddr(i int) addr { return addr("alpha") }
func betaAddr(i int) addr  { return addr("beta") }
func gammaAddr(i int) addr { return addr("gamma") }
func deltaAddr(i int) addr { return addr("delta") }

type alphaSrv struct{ fab *fabric }

// Bad: alpha synchronously calls beta, and beta calls back into alpha
// (via a helper), so neither handler can make progress once the fabric
// saturates. The cycle is reported once, anchored at alpha's Call.
func (a *alphaSrv) handle(ctx context.Context, from addr, req any) (any, error) {
	return a.fab.Call(ctx, alphaAddr(0), betaAddr(1), req) // want "wait-for cycle"
}

type betaSrv struct{ fab *fabric }

func (b *betaSrv) handle(ctx context.Context, from addr, req any) (any, error) {
	return b.relay(ctx, req)
}

func (b *betaSrv) relay(ctx context.Context, req any) (any, error) {
	return b.fab.Call(ctx, betaAddr(1), alphaAddr(0), req)
}

// relayReq is a hop-bounded relay: the sender sets Hop and the
// receiving handler branches on it, so a relayed request never relays
// again.
type relayReq struct {
	Hop  bool
	Body string
}

type gammaSrv struct{ fab *fabric }

// Good: the self-directed forward is relay-guarded.
func (g *gammaSrv) handle(ctx context.Context, from addr, req any) (any, error) {
	r, _ := req.(relayReq)
	if r.Hop {
		return r.Body, nil
	}
	fwd := relayReq{Hop: true, Body: r.Body}
	return g.fab.Call(ctx, gammaAddr(2), gammaAddr(9), fwd)
}

type deltaSrv struct{ fab *fabric }

// Bad: an unguarded synchronous self-call — the smallest wait-for
// cycle.
func (d *deltaSrv) handle(ctx context.Context, from addr, req any) (any, error) {
	if s, ok := req.(string); ok && s == "again" {
		return d.fab.Call(ctx, deltaAddr(3), deltaAddr(4), "done") // want "wait-for cycle"
	}
	return "ok", nil
}

func start(f *fabric, al *alphaSrv, be *betaSrv, ga *gammaSrv, de *deltaSrv) {
	f.Listen(alphaAddr(0), al.handle)
	f.Listen(betaAddr(1), be.handle)
	f.Listen(gammaAddr(2), ga.handle)
	f.Listen(deltaAddr(3), de.handle)
}
