// Fixture for the poolsafe pass: a sync.Pool handle must be Put
// exactly once on every path, never used after the Put, and no
// interior pointer read from it may outlive the Put. vm stands in for
// the pooled classVM in internal/rados/class.go.
package poolsafe

import (
	"errors"
	"sync"
)

var errFail = errors.New("fail")

type interp struct{ n int }

func (i *interp) run() int { return i.n }

type vm struct {
	ip  *interp
	buf []byte
}

var pool = sync.Pool{New: func() any { return &vm{ip: &interp{}} }}

// ---- findings ----

// useAfterPut touches the handle after returning it: another
// goroutine's Get may already own it.
func useAfterPut() int {
	v, _ := pool.Get().(*vm)
	if v == nil {
		v = &vm{ip: &interp{}}
	}
	pool.Put(v)
	return v.ip.run() // want "use of pool handle v after it returned to pool"
}

// doublePutStraight returns the same handle twice.
func doublePutStraight() {
	v, _ := pool.Get().(*vm)
	pool.Put(v)
	pool.Put(v) // want "double Put of pool handle v"
}

// doublePutBranch puts on one arm, then again on the rejoined path.
func doublePutBranch(fail bool) {
	v, _ := pool.Get().(*vm)
	if fail {
		pool.Put(v)
	}
	pool.Put(v) // want "may already be returned"
}

// leakOnError forgets the Put on the early error return.
func leakOnError(fail bool) error {
	v, _ := pool.Get().(*vm)
	if fail {
		return errFail // want "return without Put of pool handle v"
	}
	pool.Put(v)
	return nil
}

// interiorPtr keeps a field read from the handle alive past the Put.
func interiorPtr() int {
	v, _ := pool.Get().(*vm)
	ip := v.ip
	pool.Put(v)
	return ip.run() // want "interior pointer"
}

// typeSwitchAfterPut inspects the handle's dynamic type after the Put:
// the type switch's own operand is a use.
func typeSwitchAfterPut() {
	v, _ := pool.Get().(*vm)
	pool.Put(v)
	switch any(v).(type) { // want "use of pool handle v after it returned to pool"
	case *vm:
	}
}

// ---- clean lifecycles ----

// cleanLifecycle is the class-VM shape: Put-and-return on the error
// path, Put after the last use on success.
func cleanLifecycle(fail bool) (int, error) {
	v, _ := pool.Get().(*vm)
	if v == nil {
		v = &vm{ip: &interp{}}
	}
	if fail {
		pool.Put(v)
		return 0, errFail
	}
	n := v.ip.run()
	pool.Put(v)
	return n, nil
}

// deferredPut covers every exit path with one deferred Put.
func deferredPut(fail bool) (int, error) {
	v, _ := pool.Get().(*vm)
	if v == nil {
		v = &vm{ip: &interp{}}
	}
	defer pool.Put(v)
	if fail {
		return 0, errFail
	}
	return v.ip.run(), nil
}

// resultUsedAfterPut uses a method-call *result* after the Put: a
// value, not an interior pointer into the pooled object.
func resultUsedAfterPut() int {
	v, _ := pool.Get().(*vm)
	n := v.ip.run()
	pool.Put(v)
	return n
}

// copiedFieldAfterPut clones the interior buffer before the Put; the
// copy owns its backing.
func copiedFieldAfterPut() []byte {
	v, _ := pool.Get().(*vm)
	out := append([]byte(nil), v.buf...)
	pool.Put(v)
	return out
}

// escapes hands the handle to another goroutine: its lifecycle is no
// longer this function's to verify.
func escapes(sink chan *vm) {
	v, _ := pool.Get().(*vm)
	sink <- v
}
