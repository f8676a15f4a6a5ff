package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewLockBlock builds the lockblock pass, the one "held across a
// blocking operation" report: no sync.Mutex/RWMutex held across a wire
// RPC (any method named Call whose first parameter is a
// context.Context), a channel send or receive, a blocking select, or
// time.Sleep in the daemon packages, zlog and wire. Holding a lock
// across the fabric is the classic distributed-deadlock shape: the
// callee may need the same lock (directly, or via a callback through
// the same daemon) and the whole quorum wedges.
//
// It reads the one held-lock walk (flow.go): lock state keyed by the
// receiver expression (s.mu), each branch arm on a copy, so an
// early-unlock-and-return path does not poison the fall-through path;
// defer mu.Unlock() leaves the lock held to the end of the function,
// which is exactly what it does at runtime; a function starts from its
// documented entry locks, and lock helpers count. A call into a function
// that itself blocks within maxHops synchronous call hops, across
// packages, counts as blocking at the call site, and the finding carries
// the witness chain down to the blocking operation.
func NewLockBlock() *Pass {
	p := &Pass{
		Name: "lockblock",
		Doc:  "no mutex held across wire calls, channel operations, or time.Sleep in daemon packages",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/zlog",
			"repro/internal/wire",
		),
	}
	p.Run = byPackage(func(idx *Index) map[string][]Diagnostic { return lockBlockDiagnostics(p.Name, idx) })
	return p
}

func lockBlockDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	blocking := blockingReach(idx)
	byPkg := make(map[string][]Diagnostic)
	for _, s := range heldSites(idx) {
		if !anyHeld(s.locks) {
			continue
		}
		var (
			what  string
			chain []chainStep
		)
		switch x := s.node.(type) {
		case *ast.SendStmt:
			what = "channel send"
		case *ast.UnaryExpr:
			what = "channel receive"
		case *ast.SelectStmt:
			what = "blocking select"
		case *ast.CallExpr:
			what, chain = blockingCall(s.pkg, x, blocking)
		}
		if what == "" {
			continue
		}
		var held []heldLock
		var names []string
		for _, l := range s.locks {
			if l.held() {
				held = append(held, l)
			}
		}
		sort.Slice(held, func(i, j int) bool { return held[i].expr < held[j].expr })
		for _, l := range held {
			names = append(names, l.expr)
		}
		byPkg[s.pkg.Path] = append(byPkg[s.pkg.Path], Diagnostic{
			Pos:  s.pkg.position(s.node.Pos()),
			Pass: pass,
			Message: fmt.Sprintf("%s held across %s (acquired at line %d)",
				strings.Join(names, ", "), what, s.pkg.position(held[0].acquired).Line),
			Related: relatedOf(chain),
		})
	}
	return byPkg
}

// blockingCall says why a call blocks: time.Sleep, a wire Call, or a
// callee that blocks within maxHops hops, with the witness chain.
func blockingCall(pkg *Package, call *ast.CallExpr, blocking map[string]reached) (string, []chainStep) {
	fn := Callee(pkg.Info, call)
	if fn == nil {
		return "", nil
	}
	full := fn.FullName()
	if full == "time.Sleep" {
		return "time.Sleep", nil
	}
	if isWireCall(fn) {
		return "blocking call " + full, nil
	}
	r, ok := blocking[full]
	if !ok {
		return "", nil
	}
	chain := append([]chainStep{{name: full, pos: pkg.position(call.Pos())}}, r.chain...)
	return fmt.Sprintf("call to %s (which blocks on %s: %s)", full, shortName(r.site()), renderChain(chain)), chain
}

const (
	opLock = iota + 1
	opUnlock
)

// lockOp classifies mu.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex, returning the receiver expression.
func lockOp(pkg *Package, call *ast.CallExpr) (int, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, nil
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return 0, nil
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return 0, nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0, nil
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return 0, nil
	}
	return op, sel.X
}

// isWireCall matches methods named Call taking a context.Context first:
// wire.Network.Call, the paxos Transport interface, and anything shaped
// like them.
func isWireCall(fn *types.Func) bool {
	if fn.Name() != "Call" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// blockingReach is, per function, the first blocking operation it
// reaches on its own stack within maxHops call hops: a channel send or
// receive, a select with no default, time.Sleep, or a wire Call.
func blockingReach(idx *Index) map[string]reached {
	return firstReach(idx, func(pkg *Package, n ast.Node) string {
		switch x := n.(type) {
		case *ast.SendStmt:
			return "a channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				return "a channel receive"
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					return ""
				}
			}
			return "a select"
		case *ast.CallExpr:
			if fn := Callee(pkg.Info, x); fn != nil && (fn.FullName() == "time.Sleep" || isWireCall(fn)) {
				return fn.FullName()
			}
		}
		return ""
	})
}
