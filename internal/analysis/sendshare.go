package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewSendShare checks that buffers handed across a wire RPC are not
// mutated afterwards. A request struct is copied by value at the call,
// but its slice and map fields share backing with the receiver — which
// on the in-process fabric reads them concurrently — and a reply handed
// to the replay cache is retained verbatim for future duplicate
// answers. Scalar field writes on the local copy (the retry loop's
// req.Epoch refresh) are safe and not flagged; writes through shared
// backing (element writes, copy-into, self-append, map inserts) are.
func NewSendShare() *Pass {
	p := &Pass{
		Name: "sendshare",
		Doc:  "mutation of a request/reply buffer after it was handed to a wire RPC or retained by the replay cache",
		Help: "wire.Call copies the request struct but not the backing arrays of its " +
			"slice and map fields: after the call is issued the receiver (and the " +
			"replay cache, for retained replies) reads those buffers concurrently. " +
			"This pass marks every buffer reachable from a wire Call/Send argument — " +
			"and every argument a callee summary says is retained in stored state — " +
			"as sent, then flags element writes, copy-into, append-in-place, and map " +
			"inserts through them. Rebinding a field or variable to a fresh value " +
			"(req = OpRequest{...}, req.Data = newBuf) is safe and clears the mark; " +
			"scalar field writes like the retry loop's req.Epoch refresh never flag.",
		Scope: inPrefix("repro/internal/"),
	}

	p.Run = byPackage(sendShareAll)
	return p
}

// sentInfo records why a path is considered shared.
type sentInfo struct {
	pos  token.Position
	note string
}

type ssState struct {
	roots map[string]sentInfo
	// cleared shadows an ancestor root: req.Data rebound to a fresh
	// clone is no longer shared even though req itself was sent.
	cleared map[string]bool
}

func newSSState() *ssState {
	return &ssState{roots: make(map[string]sentInfo), cleared: make(map[string]bool)}
}

func (st *ssState) clone() *ssState {
	c := newSSState()
	for k, v := range st.roots {
		c.roots[k] = v
	}
	for k := range st.cleared {
		c.cleared[k] = true
	}
	return c
}

// merge folds another arm's end state into st: a path is shared if
// either arm shared it, and cleared only if both cleared it.
func (st *ssState) merge(other *ssState) {
	for k, v := range other.roots {
		if _, ok := st.roots[k]; !ok {
			st.roots[k] = v
		}
	}
	// A path is safely cleared only if every rejoining arm cleared it.
	for k := range st.cleared {
		if !other.cleared[k] {
			delete(st.cleared, k)
		}
	}
}

// sentPrefix returns the root covering path, if any: the path itself,
// or an ancestor expression it was read from. A cleared entry at any
// level shadows roots above it.
func (st *ssState) sentPrefix(path string) (string, sentInfo, bool) {
	p := path
	for {
		if st.cleared[p] {
			return "", sentInfo{}, false
		}
		if info, ok := st.roots[p]; ok {
			return p, info, true
		}
		i := strings.LastIndexAny(p, ".[")
		if i < 0 {
			return "", sentInfo{}, false
		}
		p = p[:i]
	}
}

// kill records that path was rebound: marks at or below it no longer
// apply, and an ancestor mark is shadowed for this subtree.
func (st *ssState) kill(path string) {
	for k := range st.roots {
		if k == path || strings.HasPrefix(k, path+".") || strings.HasPrefix(k, path+"[") {
			delete(st.roots, k)
		}
	}
	for k := range st.cleared {
		if strings.HasPrefix(k, path+".") || strings.HasPrefix(k, path+"[") {
			delete(st.cleared, k)
		}
	}
	st.cleared[path] = true
}

// root marks path as shared, un-shadowing it and its subtree.
func (st *ssState) root(path string, info sentInfo) {
	for k := range st.cleared {
		if k == path || strings.HasPrefix(k, path+".") || strings.HasPrefix(k, path+"[") {
			delete(st.cleared, k)
		}
	}
	st.roots[path] = info
}

type ssScanner struct {
	pkg   *Package
	flow  flow[*ssState]
	sums  map[string]*funcEffect
	diags map[string][]Diagnostic
	seen  map[string]bool
}

func (s *ssScanner) report(pos token.Pos, msg string, info sentInfo) {
	p := s.pkg.position(pos)
	key := fmt.Sprintf("%s:%d:%d:%s", p.Filename, p.Line, p.Column, msg)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.diags[s.pkg.Path] = append(s.diags[s.pkg.Path], Diagnostic{
		Pos: p, Pass: "sendshare", Message: msg,
		Related: []Related{{Pos: info.pos, Note: info.note}},
	})
}

// sendShareAll walks every function on the one statement walker
// (flow.go). A loop body is walked twice: a send at the loop bottom is
// live when control reaches the top again, so the second round catches
// top-of-body mutations of loop-carried sent buffers.
func sendShareAll(idx *Index) map[string][]Diagnostic {
	s := &ssScanner{sums: effectsFor(idx), diags: make(map[string][]Diagnostic), seen: make(map[string]bool)}
	s.flow = flow[*ssState]{
		stmt:   s.stmt,
		expr:   s.scanExpr,
		clone:  (*ssState).clone,
		join:   mergeArms((*ssState).merge),
		fresh:  newSSState,
		rounds: 2,
	}
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		s.pkg = fd.Pkg
		s.flow.root(fd.Decl.Body, newSSState())
	}
	return s.diags
}

// pathOf renders an expression as a root path when it is a trackable
// chain of selectors/indexes off a local identifier.
func pathOf(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := pathOf(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := pathOf(x.X)
		if !ok {
			return "", false
		}
		return base + "[" + types.ExprString(x.Index) + "]", true
	}
	return "", false
}

// sharesBacking reports whether a value of type t aliases backing
// storage when copied (slice, map, or pointer — or a struct containing
// them, which the by-value RPC request is).
func sharesBacking(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sharesBacking(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func (s *ssScanner) stmt(st *ssState, stmt ast.Stmt) {
	switch x := stmt.(type) {
	case *ast.AssignStmt:
		s.scanAssign(x, st)
	case *ast.GoStmt:
		s.scanExpr(st, x.Call)
	case *ast.DeferStmt:
		s.scanExpr(st, x.Call)
	case *ast.IncDecStmt:
		if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
			s.checkMutation("element write", ix.X, x.Pos(), st)
		}
	default:
		for _, e := range evaluated(stmt) {
			s.scanExpr(st, e)
		}
	}
}

func (s *ssScanner) scanAssign(x *ast.AssignStmt, st *ssState) {
	for _, r := range x.Rhs {
		s.scanExpr(st, r)
	}
	for i, lhs := range x.Lhs {
		var rhs ast.Expr
		if i < len(x.Rhs) && len(x.Rhs) == len(x.Lhs) {
			rhs = x.Rhs[i]
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			kind := "element write into"
			if t := s.pkg.Info.TypeOf(l.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					kind = "map insert into"
				}
			}
			s.checkMutation(kind, l.X, x.Pos(), st)
		case *ast.Ident, *ast.SelectorExpr:
			path, ok := pathOf(l)
			if !ok {
				continue
			}
			// Self-append grows in place when capacity allows: the
			// receiver's view is overwritten.
			if rhs != nil && isSelfAppend(rhs, path) {
				if root, info, sent := st.sentPrefix(path); sent {
					s.report(x.Pos(), fmt.Sprintf("append to %s after %s was handed to the RPC layer; growth within capacity overwrites the shared backing array — build a fresh slice instead", path, root), info)
					continue
				}
			}
			// Rebinding replaces the local header only: safe, and the
			// old mark no longer applies to this path.
			st.kill(path)
			// Aliasing a sent buffer propagates the mark.
			if rhs != nil {
				if rp, ok := pathOf(rhs); ok {
					if _, info, sent := st.sentPrefix(rp); sent {
						if t := s.pkg.Info.TypeOf(rhs); t != nil && sharesBacking(t) {
							st.root(path, info)
						}
					}
				}
			}
		case *ast.StarExpr:
			s.scanExpr(st, l.X)
		}
	}
}

// isSelfAppend matches path = append(path, ...).
func isSelfAppend(rhs ast.Expr, path string) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	ap, ok := pathOf(call.Args[0])
	return ok && ap == path
}

func (s *ssScanner) checkMutation(kind string, base ast.Expr, pos token.Pos, st *ssState) {
	path, ok := pathOf(base)
	if !ok {
		return
	}
	if root, info, sent := st.sentPrefix(path); sent {
		s.report(pos, fmt.Sprintf("%s %s after %s was handed to the RPC layer; the receiver reads this backing concurrently — clone before mutating or rebind to a fresh buffer", kind, path, root), info)
	}
}

// scanExpr walks an expression: wire sends and retaining callees mark
// their arguments; copy() through a sent buffer is a mutation; nested
// function literals, a goroutine's included, run inline on this path's
// state (a goroutine's send races the parent's later writes).
func (s *ssScanner) scanExpr(st *ssState, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			s.flow.run(st, x)
			return false
		case *ast.CallExpr:
			s.checkCall(x, st)
		}
		return true
	})
}

func (s *ssScanner) checkCall(call *ast.CallExpr, st *ssState) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := s.pkg.Info.ObjectOf(id).(*types.Builtin); isB {
			if b.Name() == "copy" && len(call.Args) > 0 {
				s.checkMutation("copy into", call.Args[0], call.Pos(), st)
			}
			return
		}
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	if isWireSend(fn) {
		for _, arg := range call.Args[1:] {
			s.markSent(arg, call.Pos(), "handed to "+fn.Name()+" here", st)
		}
		return
	}
	if sum := s.sums[fn.FullName()]; sum != nil {
		for p := range sum.stores {
			if p < 0 || p >= len(call.Args) {
				continue
			}
			s.markSent(call.Args[p], call.Pos(), "retained in stored state by "+shortName(fn.FullName())+" here", st)
		}
	}
}

// isWireSend matches the wire transport entry points: a method named
// Call or Send whose first parameter is a context.Context.
func isWireSend(fn *types.Func) bool {
	if fn.Name() != "Call" && fn.Name() != "Send" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

// markSent roots the argument's mutable reach: a trackable path, or the
// identifier fields of a composite literal built in place.
func (s *ssScanner) markSent(arg ast.Expr, pos token.Pos, note string, st *ssState) {
	info := sentInfo{pos: s.pkg.position(pos), note: note}
	a := ast.Unparen(arg)
	if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
		a = ast.Unparen(u.X)
	}
	if lit, ok := a.(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if p, ok := pathOf(kv.Value); ok {
				if t := s.pkg.Info.TypeOf(kv.Value); t != nil && sharesBacking(t) {
					st.root(p, info)
				}
			}
		}
		return
	}
	if p, ok := pathOf(a); ok {
		if t := s.pkg.Info.TypeOf(a); t != nil && sharesBacking(t) {
			st.root(p, info)
		}
	}
}
