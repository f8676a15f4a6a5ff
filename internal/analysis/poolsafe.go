package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewPoolSafe checks sync.Pool handle lifecycles: a value obtained
// with Get must be returned with exactly one Put on every path, must
// not be used after Put (another goroutine may already hold it), and no
// interior pointer read from the handle may outlive the Put. It runs on
// the one statement walker (flow.go): each if/switch arm gets its own
// state copy and the arms re-merge afterwards, so a Put on one arm plus
// a use on the rejoined path is caught as may-be-returned.
func NewPoolSafe() *Pass {
	p := &Pass{
		Name: "poolsafe",
		Doc:  "sync.Pool lifecycle: use-after-Put, double Put, or Get without Put on an exit path",
		Help: "A sync.Pool handle is shared property the moment Put returns it: another " +
			"goroutine's Get may receive it immediately. This pass tracks every " +
			"variable bound from a Pool.Get (including the comma-ok type-assert form) " +
			"through branch-cloned control flow and flags uses after Put, double Puts " +
			"(including Put on one branch followed by Put on the rejoined path), " +
			"return paths that leak the handle without a Put or a deferred Put, and " +
			"interior pointers (direct field reads off the handle) used past the Put.",
		Scope: inPrefix("repro/internal/"),
	}

	p.Run = byPackage(poolSafeAll)
	return p
}

const (
	psLive  = iota // obtained, not yet returned
	psPut          // returned to the pool on every path here
	psMaybe        // returned on some path through a rejoined branch
)

// psHandle is one tracked pool handle.
type psHandle struct {
	pool     string // rendered pool expression, for messages
	getPos   token.Position
	state    int
	deferred bool // a deferred Put covers every exit path
}

func (h *psHandle) clone() *psHandle {
	c := *h
	return &c
}

// psState is the per-path tracking state.
type psState struct {
	handles map[types.Object]*psHandle
	derived map[types.Object]types.Object // interior pointer -> handle it was read from
}

func newPSState() *psState {
	return &psState{handles: make(map[types.Object]*psHandle), derived: make(map[types.Object]types.Object)}
}

func (st *psState) clone() *psState {
	c := newPSState()
	for o, h := range st.handles {
		c.handles[o] = h.clone()
	}
	for o, p := range st.derived {
		c.derived[o] = p
	}
	return c
}

// merge folds another arm's end state into st: a handle Put on one arm
// but live on another is maybe-returned afterwards.
func (st *psState) merge(other *psState) {
	for o, h := range st.handles {
		oh, ok := other.handles[o]
		if !ok {
			continue // untracked (escaped/killed) on the other arm: keep ours
		}
		if oh.state != h.state {
			h.state = psMaybe
		}
		h.deferred = h.deferred && oh.deferred
	}
	for o, h := range other.handles {
		if _, ok := st.handles[o]; !ok {
			st.handles[o] = h.clone()
		}
	}
	for o, p := range other.derived {
		st.derived[o] = p
	}
}

type psScanner struct {
	pkg     *Package
	flow    flow[*psState]
	diags   map[string][]Diagnostic
	seen    map[string]bool // dedupe across re-walked paths
	inDefer bool
}

func (s *psScanner) report(pos token.Pos, msg string, related []Related) {
	p := s.pkg.position(pos)
	key := fmt.Sprintf("%s:%d:%d:%s", p.Filename, p.Line, p.Column, msg)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.diags[s.pkg.Path] = append(s.diags[s.pkg.Path], Diagnostic{Pos: p, Pass: "poolsafe", Message: msg, Related: related})
}

func poolSafeAll(idx *Index) map[string][]Diagnostic {
	s := &psScanner{diags: make(map[string][]Diagnostic), seen: make(map[string]bool)}
	s.flow = flow[*psState]{
		stmt:  s.stmt,
		expr:  func(st *psState, e ast.Expr) { s.checkUses(e, st) },
		clone: (*psState).clone,
		join:  mergeArms((*psState).merge),
		fresh: newPSState,
		end:   func(st *psState, body *ast.BlockStmt) { s.checkLeaks(st, body.End()) },
	}
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		s.pkg = fd.Pkg
		s.flow.root(fd.Decl.Body, newPSState())
	}
	return s.diags
}

// isPoolMethod reports whether call is (*sync.Pool).<method> and
// returns the rendered pool expression.
func isPoolMethod(pkg *Package, call *ast.CallExpr, method string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Pool" || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// getCall unwraps a Get handle-producing right-hand side:
// pool.Get() or pool.Get().(*T).
func getCall(pkg *Package, e ast.Expr) (string, bool) {
	x := ast.Unparen(e)
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		x = ast.Unparen(ta.X)
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return isPoolMethod(pkg, call, "Get")
}

func (s *psScanner) obj(id *ast.Ident) types.Object { return s.pkg.Info.ObjectOf(id) }

// stmt walks one simple statement's lifecycle effects.
func (s *psScanner) stmt(st *psState, stmt ast.Stmt) {
	switch x := stmt.(type) {
	case *ast.AssignStmt:
		s.scanAssign(x, st)
	case *ast.ExprStmt:
		s.scanExpr(x.X, st)
	case *ast.DeclStmt:
		s.checkUses(x, st)
	case *ast.ReturnStmt:
		s.checkUses(x, st)
		s.checkLeaks(st, x.Pos())
	case *ast.DeferStmt:
		s.scanDefer(x, st)
	case *ast.GoStmt:
		// The goroutine runs later; any handle it captures escapes this
		// function's lifecycle discipline.
		s.escapeIdents(x.Call, st)
	case *ast.SendStmt:
		s.checkUses(x.Value, st)
		s.escapeIdents(x.Value, st)
	case *ast.IncDecStmt:
		s.checkUses(x.X, st)
	}
}

func (s *psScanner) scanAssign(x *ast.AssignStmt, st *psState) {
	for _, r := range x.Rhs {
		s.scanExpr(r, st)
	}
	// New handle: v := pool.Get() / v, ok := pool.Get().(*T).
	if len(x.Rhs) == 1 {
		if pool, ok := getCall(s.pkg, x.Rhs[0]); ok {
			if id, isID := x.Lhs[0].(*ast.Ident); isID && id.Name != "_" {
				if obj := s.obj(id); obj != nil {
					st.handles[obj] = &psHandle{pool: pool, getPos: s.pkg.position(x.Rhs[0].Pos()), state: psLive}
					delete(st.derived, obj)
				}
			}
			return
		}
	}
	for i, lhs := range x.Lhs {
		var rhs ast.Expr
		if len(x.Rhs) == len(x.Lhs) {
			rhs = x.Rhs[i]
		}
		id, isID := ast.Unparen(lhs).(*ast.Ident)
		if !isID {
			// Handle stored into a field/map/slice escapes the local
			// lifecycle.
			if rhs != nil {
				s.escapeIdents(rhs, st)
			}
			s.checkUses(lhs, st)
			continue
		}
		obj := s.obj(id)
		if obj == nil {
			continue
		}
		if h, tracked := st.handles[obj]; tracked {
			// Reassigned from something that is not a Get: a handle
			// already Put is simply untracked again; a live handle keeps
			// its outstanding Put obligation (the pool.Get-returned-nil
			// replacement pattern: vm == nil → vm = &T{...} → later Put
			// returns the fresh value).
			if h.state == psPut || h.state == psMaybe {
				delete(st.handles, obj)
			}
			continue
		}
		// Interior pointer: x := handle.Field (direct field read, not a
		// method-call result).
		if rhs != nil {
			if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok {
				if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if bObj := s.obj(base); bObj != nil {
						if _, isHandle := st.handles[bObj]; isHandle {
							if selObj := s.pkg.Info.Selections[sel]; selObj != nil && selObj.Kind() == types.FieldVal {
								st.derived[obj] = bObj
								continue
							}
						}
					}
				}
			}
		}
		delete(st.derived, obj)
	}
}

// scanExpr checks one expression: Put transitions, uses of dead
// handles, escapes through calls that are not pool methods.
func (s *psScanner) scanExpr(e ast.Expr, st *psState) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		s.checkUses(e, st)
		return
	}
	if _, isPut := isPoolMethod(s.pkg, call, "Put"); isPut && len(call.Args) == 1 {
		s.doPut(call, st)
		return
	}
	s.checkUses(e, st)
	// A tracked handle passed whole as a call argument to an arbitrary
	// function escapes: the callee may retain or Put it. Passing an
	// interior field value (handle.f.x) does not transfer the handle.
	for _, arg := range call.Args {
		a := ast.Unparen(arg)
		if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
			a = ast.Unparen(u.X)
		}
		if id, ok := a.(*ast.Ident); ok {
			s.escapeIdent(id, st)
		}
	}
}

func (s *psScanner) doPut(call *ast.CallExpr, st *psState) {
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		s.checkUses(call.Args[0], st)
		return
	}
	obj := s.obj(arg)
	if obj == nil {
		return
	}
	h, tracked := st.handles[obj]
	if !tracked {
		return
	}
	switch h.state {
	case psPut:
		s.report(call.Pos(), fmt.Sprintf("double Put of pool handle %s (already returned to %s); another goroutine may hold it now", arg.Name, h.pool),
			[]Related{{Pos: h.getPos, Note: "handle obtained here"}})
	case psMaybe:
		s.report(call.Pos(), fmt.Sprintf("Put of pool handle %s that may already be returned to %s on a path through an earlier branch", arg.Name, h.pool),
			[]Related{{Pos: h.getPos, Note: "handle obtained here"}})
	}
	if s.inDefer {
		h.deferred = true
	} else {
		h.state = psPut
	}
}

func (s *psScanner) scanDefer(x *ast.DeferStmt, st *psState) {
	if _, isPut := isPoolMethod(s.pkg, x.Call, "Put"); isPut && len(x.Call.Args) == 1 {
		if id, ok := ast.Unparen(x.Call.Args[0]).(*ast.Ident); ok {
			if obj := s.obj(id); obj != nil {
				if h, tracked := st.handles[obj]; tracked {
					h.deferred = true
				}
			}
		}
		return
	}
	// A deferred function literal runs at return time: Puts inside it
	// satisfy the obligation without killing the handle now.
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		saved := s.inDefer
		s.inDefer = true
		s.flow.run(st, lit)
		s.inDefer = saved
		return
	}
	s.checkUses(x.Call, st)
}

// checkUses reports any identifier use of a handle that is (or may be)
// already returned to its pool, and of interior pointers whose parent
// handle is dead.
func (s *psScanner) checkUses(n ast.Node, st *psState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.obj(id)
		if obj == nil {
			return true
		}
		if h, tracked := st.handles[obj]; tracked && h.state != psLive {
			qual := "returned to"
			if h.state == psMaybe {
				qual = "may already be returned to"
			}
			s.report(id.Pos(), fmt.Sprintf("use of pool handle %s after it %s %s", id.Name, qual, h.pool),
				[]Related{{Pos: h.getPos, Note: "handle obtained here"}})
			return true
		}
		if parent, isDerived := st.derived[obj]; isDerived {
			if h, tracked := st.handles[parent]; tracked && h.state != psLive {
				s.report(id.Pos(), fmt.Sprintf("use of %s, an interior pointer read from pool handle now returned to %s; it may be rebound by another goroutine", id.Name, h.pool),
					[]Related{{Pos: h.getPos, Note: "handle obtained here"}})
			}
		}
		return true
	})
}

// escapeIdents stops tracking any handle mentioned in e: it has been
// handed to code outside this function's control.
func (s *psScanner) escapeIdents(e ast.Expr, st *psState) {
	ast.Inspect(e, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			s.escapeIdent(id, st)
		}
		return true
	})
}

func (s *psScanner) escapeIdent(id *ast.Ident, st *psState) {
	obj := s.obj(id)
	if obj == nil {
		return
	}
	if h, tracked := st.handles[obj]; tracked && h.state == psLive {
		delete(st.handles, obj)
	}
	delete(st.derived, obj)
}

// checkLeaks fires at a return (or fall-off-the-end) site for every
// handle still live without a deferred Put.
func (s *psScanner) checkLeaks(st *psState, pos token.Pos) {
	objs := make([]types.Object, 0, len(st.handles))
	for o := range st.handles {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, o := range objs {
		h := st.handles[o]
		if h.state == psLive && !h.deferred {
			s.report(pos, fmt.Sprintf("return without Put of pool handle %s obtained from %s; the pooled value is leaked on this path", o.Name(), h.pool),
				[]Related{{Pos: h.getPos, Note: "handle obtained here"}})
		}
	}
}
