package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the one statement walker under the flow-sensitive passes
// (lockblock, fieldguard, lockorder, chanlife, poolsafe, sendshare), and
// the one held-lock walk the three lock passes read. The walker owns
// control flow; a pass owns only a per-path state and the hooks that
// read and update it:
//
//   - every statement reaches the stmt hook on entry, in the state of
//     the path it is on, and the walker then runs a compound statement's
//     Init, Assign, Tag, Cond and Comm parts in that state;
//   - each arm of an if, switch, type switch or select, and each loop
//     body, runs on its own clone of the state before the statement, so
//     sibling arms never see each other's effects;
//   - a return, a panic, or a break, continue or goto ends the path. The
//     arms that fall through are joined back (a switch with no default
//     adds the path that takes no case); a statement whose every arm
//     ended ends the path too. A loop never ends the path after it;
//   - a function literal passed directly to a call runs there, under a
//     clone of the caller's state (sort.Slice and friends run it before
//     they return). Every other literal — go, defer, stored, or handed
//     to time.AfterFunc, which runs it later on a goroutine of its own —
//     is a fresh root, walked after the body that holds it.

// flow is the walker for one pass over a state type S. S is a reference
// (a map, or a pointer): hooks update it in place.
type flow[S any] struct {
	// stmt sees every statement on entry.
	stmt func(st S, s ast.Stmt)
	// expr sees each expression the walker evaluates itself: an if or
	// for condition, a switch tag or case, a range operand.
	expr func(st S, e ast.Expr)
	// clone copies a state for an arm.
	clone func(st S) S
	// join folds into st, the state before a branch statement, the end
	// states of its arms that fall through; nil leaves st as it was, so
	// an arm's changes do not outlive the arm.
	join func(st S, arms []S)
	// fresh is the state a literal root starts from.
	fresh func() S
	// end, if set, sees the state where a root's body falls off its end.
	end func(st S, body *ast.BlockStmt)
	// rounds is how many times a loop body is walked (one if unset): a
	// second round sees what the bottom of the body left for the top.
	rounds int

	inline map[*ast.FuncLit]bool
}

// root walks body from st, then every function literal in it that did
// not run inline, each as a root of its own from a fresh state.
func (w *flow[S]) root(body *ast.BlockStmt, st S) {
	if !w.walk(st, body.List) && w.end != nil {
		w.end(st, body)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if w.inline[fl] {
			return true // ran in place; literals stored inside it are still roots
		}
		w.root(fl.Body, w.fresh())
		return false
	})
}

// run walks a literal's body on st in place of its own root.
func (w *flow[S]) run(st S, fl *ast.FuncLit) {
	if w.inline == nil {
		w.inline = make(map[*ast.FuncLit]bool)
	}
	w.inline[fl] = true
	w.walk(st, fl.Body.List)
}

// inspect visits the nodes of an expression in pre-order, for a hook
// that reads expressions node by node. A literal passed directly to
// a call (but time.AfterFunc) runs right after the call's node is
// visited, under a clone of st; any other literal is skipped, left to
// its own root.
func (w *flow[S]) inspect(st S, e ast.Expr, visit func(ast.Node)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case nil, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(x)
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AfterFunc" && types.ExprString(sel.X) == "time" {
				return true
			}
			for _, a := range x.Args {
				if fl, ok := a.(*ast.FuncLit); ok {
					w.run(w.clone(st), fl)
				}
			}
			return true
		}
		visit(n)
		return true
	})
}

// walk runs a statement list on st and reports whether the path ended.
func (w *flow[S]) walk(st S, list []ast.Stmt) bool {
	for _, s := range list {
		if w.walkStmt(st, s) {
			return true
		}
	}
	return false
}

func (w *flow[S]) walkStmt(st S, s ast.Stmt) bool {
	w.stmt(st, s)
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return x.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		return isPanic(x.X)
	case *ast.BlockStmt:
		return w.walk(st, x.List)
	case *ast.LabeledStmt:
		return w.walkStmt(st, x.Stmt)
	case *ast.IfStmt:
		w.header(st, x.Init, x.Cond)
		var arms []S
		then := w.clone(st)
		if !w.walk(then, x.Body.List) {
			arms = append(arms, then)
		}
		els := w.clone(st)
		if x.Else == nil || !w.walkStmt(els, x.Else) {
			arms = append(arms, els)
		}
		return w.rejoin(st, arms)
	case *ast.SwitchStmt:
		w.header(st, x.Init, x.Tag)
		return w.cases(st, x.Body)
	case *ast.TypeSwitchStmt:
		w.header(st, x.Init, nil)
		w.walkStmt(st, x.Assign)
		return w.cases(st, x.Body)
	case *ast.SelectStmt:
		return w.cases(st, x.Body)
	case *ast.ForStmt:
		w.header(st, x.Init, x.Cond)
		w.loop(st, x.Body.List, x.Post)
	case *ast.RangeStmt:
		w.expr(st, x.X)
		w.loop(st, x.Body.List, nil)
	}
	return false
}

// header runs a compound statement's Init and its Cond or Tag.
func (w *flow[S]) header(st S, init ast.Stmt, cond ast.Expr) {
	if init != nil {
		w.walkStmt(st, init)
	}
	if cond != nil {
		w.expr(st, cond)
	}
}

// cases runs each clause of a switch, type switch or select as an arm.
// A select always takes one clause; a switch with no default may take
// none, which adds the state before it as an arm.
func (w *flow[S]) cases(st S, body *ast.BlockStmt) bool {
	var arms []S
	none := true
	for _, c := range body.List {
		arm := w.clone(st)
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			none = none && cc.List != nil
			for _, e := range cc.List {
				w.expr(arm, e)
			}
			list = cc.Body
		case *ast.CommClause:
			none = false
			if cc.Comm != nil {
				w.walkStmt(arm, cc.Comm)
			}
			list = cc.Body
		}
		if !w.walk(arm, list) {
			arms = append(arms, arm)
		}
	}
	if none {
		arms = append(arms, w.clone(st))
	}
	return w.rejoin(st, arms)
}

// loop walks a loop body on a clone, rounds times, and joins what falls
// out of its bottom. The path after a loop never ends: the condition may
// fail, or a break leave it.
func (w *flow[S]) loop(st S, body []ast.Stmt, post ast.Stmt) {
	b := w.clone(st)
	for i := 0; i < max(w.rounds, 1); i++ {
		if w.walk(b, body) {
			return
		}
		if post != nil {
			w.walkStmt(b, post)
		}
	}
	w.rejoin(st, []S{b})
}

// rejoin joins the arms that fall through into st, or reports that none
// does.
func (w *flow[S]) rejoin(st S, arms []S) bool {
	if len(arms) == 0 {
		return true
	}
	if w.join != nil {
		w.join(st, arms)
	}
	return false
}

// mergeArms makes a join for a state with a pairwise merge: the state
// after the statement is the arms that fall through, merged in order.
func mergeArms[T any](merge func(st, other *T)) func(st *T, arms []*T) {
	return func(st *T, arms []*T) {
		m := arms[0]
		for _, a := range arms[1:] {
			merge(m, a)
		}
		*st = *m
	}
}

// isPanic reports whether e is a call of the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// evaluated lists the expressions a simple statement evaluates where it
// stands, in order. A go or defer statement evaluates its call's
// arguments, not the call, and not a function literal argument, which
// runs later as a root.
func evaluated(s ast.Stmt) []ast.Expr {
	var call *ast.CallExpr
	switch x := s.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{x.X}
	case *ast.AssignStmt:
		return append(append([]ast.Expr(nil), x.Rhs...), x.Lhs...)
	case *ast.ReturnStmt:
		return x.Results
	case *ast.IncDecStmt:
		return []ast.Expr{x.X}
	case *ast.SendStmt:
		return []ast.Expr{x.Chan, x.Value}
	case *ast.DeclStmt:
		var out []ast.Expr
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
		return out
	case *ast.GoStmt:
		call = x.Call
	case *ast.DeferStmt:
		call = x.Call
	default:
		return nil
	}
	var out []ast.Expr
	for _, a := range call.Args {
		if _, ok := a.(*ast.FuncLit); !ok {
			out = append(out, a)
		}
	}
	return out
}

// ---- memoised whole-program results ----

// perIndex memoises f on the last Index it was called with: the driver
// runs a pass once per package against one Index, so a whole-program
// result is computed once per run.
func perIndex[T any](f func(*Index) T) func(*Index) T {
	var (
		last *Index
		v    T
	)
	return func(idx *Index) T {
		if idx != last {
			v, last = f(idx), idx
		}
		return v
	}
}

// byPackage makes a whole-program pass's Run: findings are computed once
// per Index, keyed by package path, and each package gets its own.
func byPackage(f func(*Index) map[string][]Diagnostic) func(*Package, *Index) []Diagnostic {
	get := perIndex(f)
	return func(pkg *Package, idx *Index) []Diagnostic { return get(idx)[pkg.Path] }
}

// ---- the held-lock walk ----

// heldLock is one mutex a path has locked, or locked and released: the
// expression naming it (s.mu), its type identity ("pkg.Type.mu"; "" for
// a local mutex, which has no identity across functions), where it was
// acquired, and where it was released (token.NoPos while held).
type heldLock struct {
	expr, ident        string
	acquired, released token.Pos
}

func (l heldLock) held() bool { return l.released == token.NoPos }

// heldState is a path's locks. The slice is never written in place — an
// update installs a new one — so a clone, or the snapshot a site keeps,
// is a copy of the slice header.
type heldState struct{ locks []heldLock }

func (st *heldState) set(l heldLock) {
	out := make([]heldLock, 0, len(st.locks)+1)
	for _, o := range st.locks {
		if o.expr != l.expr {
			out = append(out, o)
		}
	}
	st.locks = append(out, l)
}

func (st *heldState) lock(expr, ident string, pos token.Pos) {
	st.set(heldLock{expr: expr, ident: ident, acquired: pos})
}

func (st *heldState) unlock(expr, ident string, pos token.Pos) {
	l := heldLock{expr: expr, ident: ident, released: pos}
	for _, o := range st.locks {
		if o.expr == expr {
			l.acquired = o.acquired
		}
	}
	st.set(l)
}

// anyHeld reports whether any lock in locks is still held.
func anyHeld(locks []heldLock) bool {
	for _, l := range locks {
		if l.held() {
			return true
		}
	}
	return false
}

// heldSite is one event of the held-lock walk, with the path's locks
// just before it: every field selection; and, while a lock is held,
// every call (lock operations included), channel send and receive, and
// blocking select.
type heldSite struct {
	pkg   *Package
	fd    *ast.FuncDecl // the declaration the site is in, literals included
	node  ast.Node      // *ast.SelectorExpr, *ast.CallExpr, *ast.SendStmt, *ast.UnaryExpr or *ast.SelectStmt
	locks []heldLock
}

// heldSites is the one held-lock walk per Index that lockblock,
// fieldguard and lockorder read: every declared function, in name order,
// from its documented entry locks, with lock-helper calls applied.
func heldSites(idx *Index) []heldSite {
	idx.heldOnce.Do(func() { idx.held = walkHeld(idx) })
	return idx.held
}

func walkHeld(idx *Index) []heldSite {
	hw := &heldWalker{helpers: lockHelpers(idx), comm: make(map[ast.Node]bool)}
	hw.flow = flow[*heldState]{
		stmt:  hw.stmt,
		expr:  func(st *heldState, e ast.Expr) { hw.flow.inspect(st, e, func(n ast.Node) { hw.visit(st, n) }) },
		clone: func(st *heldState) *heldState { c := *st; return &c },
		fresh: func() *heldState { return &heldState{} },
	}
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		hw.pkg, hw.fd = fd.Pkg, fd.Decl
		hw.flow.root(fd.Decl.Body, &heldState{locks: entryLocks(fd.Pkg, fd.Decl)})
	}
	return hw.sites
}

type heldWalker struct {
	flow    flow[*heldState]
	helpers map[string]lockHelper
	pkg     *Package
	fd      *ast.FuncDecl
	comm    map[ast.Node]bool // a select clause's own channel operation
	sites   []heldSite
}

func (hw *heldWalker) site(n ast.Node, st *heldState) {
	hw.sites = append(hw.sites, heldSite{pkg: hw.pkg, fd: hw.fd, node: n, locks: st.locks})
}

func (hw *heldWalker) stmt(st *heldState, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.SendStmt:
		if anyHeld(st.locks) && !hw.comm[x] {
			hw.site(x, st)
		}
	case *ast.SelectStmt:
		// The select is the blocking operation; its clauses' own sends
		// and receives are not reported again.
		blocking := true
		for _, c := range x.Body.List {
			switch comm := c.(*ast.CommClause).Comm.(type) {
			case nil:
				blocking = false
			case *ast.SendStmt:
				hw.comm[comm] = true
			case *ast.ExprStmt:
				hw.comm[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				hw.comm[ast.Unparen(comm.Rhs[0])] = true
			}
		}
		if blocking && anyHeld(st.locks) {
			hw.site(x, st)
		}
	}
	// A deferred Unlock runs at return: the lock stays held for the rest
	// of the function, which the state already says.
	for _, e := range evaluated(s) {
		hw.flow.expr(st, e)
	}
}

// visit handles one expression node: lock operations and lock-helper
// calls update the state, and the sites are recorded.
func (hw *heldWalker) visit(st *heldState, n ast.Node) {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		hw.site(x, st)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && anyHeld(st.locks) && !hw.comm[x] {
			hw.site(x, st)
		}
	case *ast.CallExpr:
		if anyHeld(st.locks) {
			hw.site(x, st)
		}
		if op, lockExpr := lockOp(hw.pkg, x); op != 0 {
			ident, _ := lockIdentOf(hw.pkg, lockExpr)
			if op == opLock {
				st.lock(types.ExprString(lockExpr), ident, x.Pos())
			} else {
				st.unlock(types.ExprString(lockExpr), ident, x.Pos())
			}
			return
		}
		hw.applyHelper(st, x)
	}
}

// applyHelper updates the state across a call to a lock or unlock
// helper method.
func (hw *heldWalker) applyHelper(st *heldState, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := Callee(hw.pkg.Info, call)
	if fn == nil {
		return
	}
	h, ok := hw.helpers[fn.FullName()]
	if !ok {
		return
	}
	base := types.ExprString(sel.X)
	for _, f := range h.acquires {
		st.lock(base+"."+f, h.recv+"."+f, call.Pos())
	}
	for _, f := range h.releases {
		st.unlock(base+"."+f, h.recv+"."+f, call.Pos())
	}
}

// entryLocks is the one entry rule: a function named *Locked starts
// holding every mutex of its receiver, and a "Caller holds x.mu" doc
// comment holds exactly what it names.
func entryLocks(pkg *Package, fd *ast.FuncDecl) []heldLock {
	var st heldState
	recv, key, isMethod := receiverOf(pkg, fd)
	if isMethod && strings.HasSuffix(fd.Name.Name, "Locked") {
		for _, m := range receiverMutexes(pkg, fd) {
			st.lock(recv+"."+m, key+"."+m, fd.Pos())
		}
	}
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			base, field, _ := strings.Cut(m[1], ".")
			ident := ""
			if key, ok := namedKey(pkg, fd, base); ok {
				ident = key + "." + field
			}
			st.lock(m[1], ident, fd.Pos())
		}
	}
	return st.locks
}

// namedKey resolves a receiver or parameter name to its struct key.
func namedKey(pkg *Package, fd *ast.FuncDecl, name string) (string, bool) {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	fields = append(fields, fd.Type.Params.List...)
	for _, f := range fields {
		for _, n := range f.Names {
			if n.Name == name {
				key, _, ok := structKeyOf(pkg.Info.TypeOf(f.Type))
				return key, ok
			}
		}
	}
	return "", false
}

// lockHelper records a method's net effect on its receiver's mutexes: a
// lock helper acquires, an unlock helper releases. Balanced bodies
// (including defer-unlock) have no net effect and no entry.
type lockHelper struct {
	recv               string // the receiver's struct key
	acquires, releases []string
}

// lockHelpers scans every method's top-level statements for
// unconditional lock operations on receiver mutexes, so calls to
// lock/unlock helpers update the caller's held state.
func lockHelpers(idx *Index) map[string]lockHelper {
	sums := make(map[string]lockHelper)
	for name, fd := range idx.decls {
		recvName, key, ok := receiverOf(fd.Pkg, fd.Decl)
		if !ok {
			continue
		}
		acquired := make(map[string]bool)
		released := make(map[string]bool)
		deferred := make(map[string]bool)
		record := func(call *ast.CallExpr, isDefer bool) {
			op, lockExpr := lockOp(fd.Pkg, call)
			if op == 0 {
				return
			}
			sel, ok := ast.Unparen(lockExpr).(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || base.Name != recvName {
				return
			}
			f := sel.Sel.Name
			switch {
			case isDefer && op == opUnlock:
				deferred[f] = true
			case op == opLock:
				if released[f] {
					delete(released, f)
				} else {
					acquired[f] = true
				}
			case op == opUnlock:
				if acquired[f] {
					delete(acquired, f)
				} else {
					released[f] = true
				}
			}
		}
		for _, st := range fd.Decl.Body.List {
			switch x := st.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					record(call, false)
				}
			case *ast.DeferStmt:
				record(x.Call, true)
			}
		}
		for f := range deferred {
			delete(acquired, f)
		}
		h := lockHelper{recv: key, acquires: sortedKeys(acquired), releases: sortedKeys(released)}
		if len(h.acquires) > 0 || len(h.releases) > 0 {
			sums[name] = h
		}
	}
	return sums
}
