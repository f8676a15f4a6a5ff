package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared cross-package infrastructure under the
// protocol passes (lockorder, rpcflow, retrysafe) and lockblock: a
// synchronous-only call graph with one hop-bounded reach helper, lock
// identity resolution (mutex = owning struct type + field), and the
// wire-endpoint derivation that maps Listen registrations and Call
// destinations onto daemon handlers.
//
// "Synchronous" is load-bearing everywhere here: function literals and
// go statements run on their own stacks, so their bodies never extend a
// caller's lock scope or a handler's wait-for chain. Every traversal in
// this file skips them.

// maxHops bounds how many call edges a summary propagates through. The
// paper-scale daemons keep their RPC plumbing shallow (handler → client
// stub → fabric is three hops); four catches one helper layer beyond
// that without dragging in whole-program noise.
const maxHops = 4

// inPrefix builds a Scope matcher over an import-path prefix.
func inPrefix(prefix string) func(string) bool {
	return func(pkg string) bool { return strings.HasPrefix(pkg, prefix) }
}

// chainStep is one hop of a witness path: the function (or lock/RPC
// operation) reached, and where.
type chainStep struct {
	name string
	pos  token.Position
}

// renderChain prints a witness path as "a (x.go:1) -> b (y.go:2)".
func renderChain(chain []chainStep) string {
	parts := make([]string, 0, len(chain))
	for _, s := range chain {
		parts = append(parts, fmt.Sprintf("%s (%s:%d)", shortName(s.name), shortBase(s.pos.Filename), s.pos.Line))
	}
	return strings.Join(parts, " -> ")
}

// relatedOf converts a witness chain to diagnostic related positions.
func relatedOf(chain []chainStep) []Related {
	out := make([]Related, 0, len(chain))
	for _, s := range chain {
		out = append(out, Related{Pos: s.pos, Note: shortName(s.name)})
	}
	return out
}

// shortName trims the module prefix from a function or lock identity so
// witness paths stay readable. Replace rather than trim-prefix: method
// full names embed the path inside the receiver parens,
// "(*repro/internal/rados.OSD).handle".
func shortName(full string) string {
	return strings.ReplaceAll(full, "repro/internal/", "")
}

// shortBase keeps the last path element of a filename.
func shortBase(file string) string {
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		return file[i+1:]
	}
	return file
}

// syncInspect walks a function body, skipping function literals and go
// statements: only work on the caller's own stack is visited.
func syncInspect(body *ast.BlockStmt, visit func(ast.Node) bool) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		return visit(n)
	})
}

// lockIdentOf resolves the receiver expression of a Lock/Unlock call
// (s.mu) to a whole-program mutex identity "pkgpath.Type.field". Local
// mutex variables and unresolvable receivers return ok=false: without a
// struct identity there is no cross-function aliasing to reason about.
func lockIdentOf(pkg *Package, lockExpr ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lockExpr).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	key, _, ok := structKeyOf(pkg.Info.TypeOf(sel.X))
	if !ok {
		return "", false
	}
	return key + "." + sel.Sel.Name, true
}

// sortedDeclNames returns the index's function names in stable order so
// every propagation below is deterministic.
func sortedDeclNames(idx *Index) []string {
	names := make([]string, 0, len(idx.decls))
	for name := range idx.decls {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// reached is one fact a function reaches on its own stack — a Lock of
// one mutex identity, a wire Call, a blocking operation — with the
// witness chain: the call hops, then the site itself.
type reached struct {
	key   string
	chain []chainStep
}

// site names the operation the chain ends at.
func (r reached) site() string { return r.chain[len(r.chain)-1].name }

// reachSummaries is the one hop-bounded reach helper under lockblock,
// lockorder and retrysafe: per function, the facts it reaches on its own
// stack within maxHops call edges. direct names the fact one body node
// is, by key and witness name ("" for none). Each key is recorded once
// per function, with the first of the shortest chains that find it.
func reachSummaries(idx *Index, direct func(pkg *Package, n ast.Node) (key, name string)) map[string][]reached {
	sums := make(map[string][]reached)
	names := sortedDeclNames(idx)
	has := func(facts []reached, key string) bool {
		for _, f := range facts {
			if f.key == key {
				return true
			}
		}
		return false
	}
	for _, name := range names {
		fd := idx.decls[name]
		var facts []reached
		syncInspect(fd.Decl.Body, func(n ast.Node) bool {
			if key, what := direct(fd.Pkg, n); key != "" && !has(facts, key) {
				facts = append(facts, reached{key: key, chain: []chainStep{{name: what, pos: fd.Pkg.position(n.Pos())}}})
			}
			return true
		})
		if len(facts) > 0 {
			sums[name] = facts
		}
	}

	// BFS rounds: each round extends reach by one call hop.
	for hop := 1; hop < maxHops; hop++ {
		next := make(map[string][]reached, len(sums))
		changed := false
		for _, name := range names {
			fd := idx.decls[name]
			merged := append([]reached(nil), sums[name]...)
			syncInspect(fd.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := Callee(fd.Pkg.Info, call)
				if fn == nil {
					return true
				}
				for _, r := range sums[fn.FullName()] {
					if has(merged, r.key) {
						continue
					}
					chain := append([]chainStep{{name: fn.FullName(), pos: fd.Pkg.position(call.Pos())}}, r.chain...)
					merged = append(merged, reached{key: r.key, chain: chain})
					changed = true
				}
				return true
			})
			if len(merged) > 0 {
				next[name] = merged
			}
		}
		sums = next
		if !changed {
			break
		}
	}
	return sums
}

// acquireSummaries is, per function, each identified mutex it may
// acquire, keyed by identity, with the chain ending at the Lock call.
// Release is deliberately ignored: "B acquired while A is held"
// establishes the lock-order edge even if B is released before
// returning.
func acquireSummaries(idx *Index) map[string][]reached {
	return reachSummaries(idx, func(pkg *Package, n ast.Node) (string, string) {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, lockExpr := lockOp(pkg, call); op == opLock {
				if ident, ok := lockIdentOf(pkg, lockExpr); ok {
					return ident, ident
				}
			}
		}
		return "", ""
	})
}

// firstReach is reachSummaries for a fact of one kind: what names is the
// witness of a node that is one ("" for none), and each function keeps
// the first it reaches.
func firstReach(idx *Index, what func(pkg *Package, n ast.Node) string) map[string]reached {
	out := make(map[string]reached)
	for name, facts := range reachSummaries(idx, func(pkg *Package, n ast.Node) (string, string) {
		if w := what(pkg, n); w != "" {
			return "first", w
		}
		return "", ""
	}) {
		out[name] = facts[0]
	}
	return out
}

// rpcSummaries is, per function, the first synchronous wire Call (any
// method named Call taking a context.Context first) it reaches, with
// the chain ending at the Call.
func rpcSummaries(idx *Index) map[string]reached {
	return firstReach(idx, func(pkg *Package, n ast.Node) string {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := Callee(pkg.Info, call); fn != nil && isWireCall(fn) {
				return fn.FullName()
			}
		}
		return ""
	})
}

// ---- wire endpoint derivation ----

// endpoint is one Listen registration: the address family it serves
// (the constructor that builds the address, e.g. rados.OSDAddr) and the
// handler function bound to it. Family is "" when the listen address is
// a plain variable (client self-addresses): such endpoints can still
// originate wait-for edges but cannot be the target of one.
type endpoint struct {
	family  string
	handler string
	pos     token.Position
}

// daemonEdge is one synchronous handler→handler wait-for edge: handler
// From, somewhere within maxHops synchronous calls, issues a wire Call
// whose destination address family is served by handler To.
type daemonEdge struct {
	from, to string
	reqType  string
	guarded  bool
	pos      token.Position
	chain    []chainStep
}

// resolveAddrFamily maps an address expression to the constructor
// function that names its family. A direct constructor call
// (OSDAddr(id)) resolves to itself; a thin accessor whose body is a
// single `return Constructor(...)` (the daemons' Addr() methods)
// resolves through to the constructor. Variables resolve to "".
func resolveAddrFamily(idx *Index, pkg *Package, expr ast.Expr, depth int) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := Callee(pkg.Info, call)
	if fn == nil {
		return ""
	}
	if depth > 0 {
		if fd, ok := idx.DeclOf(fn); ok && len(fd.Decl.Body.List) == 1 {
			if ret, ok := fd.Decl.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if inner := resolveAddrFamily(idx, fd.Pkg, ret.Results[0], depth-1); inner != "" {
					return inner
				}
			}
		}
	}
	return fn.FullName()
}

// listenEndpoints finds every `<x>.Listen(addr, handler)` registration
// in the loaded packages and resolves the handler method plus the
// address family.
func listenEndpoints(idx *Index) []endpoint {
	var out []endpoint
	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Listen" || len(call.Args) < 2 {
					return true
				}
				handler := handlerFunc(pkg, call.Args[len(call.Args)-1])
				if handler == nil {
					return true
				}
				out = append(out, endpoint{
					family:  resolveAddrFamily(idx, pkg, call.Args[0], 2),
					handler: handler.FullName(),
					pos:     pkg.position(call.Pos()),
				})
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].handler != out[j].handler {
			return out[i].handler < out[j].handler
		}
		return out[i].family < out[j].family
	})
	return out
}

// handlerFunc resolves a Listen handler argument (a method value like
// o.handle, or a plain function name) to its function object.
func handlerFunc(pkg *Package, expr ast.Expr) *types.Func {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// wireCallSite is one resolved outbound RPC inside a function body.
type wireCallSite struct {
	call   *ast.CallExpr
	dest   ast.Expr // the `to` address argument
	req    ast.Expr // the request payload argument
	callee string
}

// wireCallsIn lists the synchronous wire Calls in a body. The fabric
// signature is Call(ctx, from, to, req); shorter transport-style
// signatures fall back to Call(ctx, to, req).
func wireCallsIn(pkg *Package, body *ast.BlockStmt) []wireCallSite {
	var out []wireCallSite
	syncInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := Callee(pkg.Info, call)
		if fn == nil || !isWireCall(fn) {
			return true
		}
		site := wireCallSite{call: call, callee: fn.FullName()}
		switch {
		case len(call.Args) >= 4:
			site.dest, site.req = call.Args[2], call.Args[3]
		case len(call.Args) == 3:
			site.dest, site.req = call.Args[1], call.Args[2]
		default:
			return true
		}
		out = append(out, site)
		return true
	})
	return out
}

// daemonEdges derives the synchronous wait-for graph: for each
// registered handler, every wire Call reachable within maxHops sync
// call edges whose destination family is itself a registered endpoint
// becomes an edge to that endpoint's handler.
func daemonEdges(idx *Index, eps []endpoint) []daemonEdge {
	byFamily := make(map[string][]endpoint)
	for _, ep := range eps {
		if ep.family != "" {
			byFamily[ep.family] = append(byFamily[ep.family], ep)
		}
	}

	var edges []daemonEdge
	for _, ep := range eps {
		root, ok := idx.decls[ep.handler]
		if !ok {
			continue
		}
		type frame struct {
			fd    FuncDecl
			chain []chainStep
		}
		visited := map[string]bool{ep.handler: true}
		queue := []frame{{fd: root}}
		for hop := 0; hop <= maxHops && len(queue) > 0; hop++ {
			var nextQ []frame
			for _, fr := range queue {
				for _, site := range wireCallsIn(fr.fd.Pkg, fr.fd.Decl.Body) {
					family := resolveAddrFamily(idx, fr.fd.Pkg, site.dest, 2)
					targets := byFamily[family]
					if len(targets) == 0 {
						continue
					}
					reqType, _, _ := structKeyOf(fr.fd.Pkg.Info.TypeOf(site.req))
					guarded := relayGuarded(idx, fr.fd, site, targets)
					pos := fr.fd.Pkg.position(site.call.Pos())
					chain := append(append([]chainStep(nil), fr.chain...), chainStep{name: site.callee, pos: pos})
					seen := make(map[string]bool)
					for _, t := range targets {
						if seen[t.handler] {
							continue
						}
						seen[t.handler] = true
						edges = append(edges, daemonEdge{
							from: ep.handler, to: t.handler,
							reqType: reqType, guarded: guarded,
							pos: pos, chain: chain,
						})
					}
				}
				if hop == maxHops {
					continue
				}
				syncInspect(fr.fd.Decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := Callee(fr.fd.Pkg.Info, call)
					if fn == nil || visited[fn.FullName()] {
						return true
					}
					fd, ok := idx.DeclOf(fn)
					if !ok {
						return true
					}
					visited[fn.FullName()] = true
					nextQ = append(nextQ, frame{
						fd:    fd,
						chain: append(append([]chainStep(nil), fr.chain...), chainStep{name: fn.FullName(), pos: fr.fd.Pkg.position(call.Pos())}),
					})
					return true
				})
			}
			queue = nextQ
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		return posLess(edges[i].pos, edges[j].pos)
	})
	return edges
}

// relayGuarded reports whether a handler→handler call is a hop-bounded
// relay rather than a wait-for hazard: the caller marks a boolean relay
// field on the outgoing request (Forwarded/Replica/Proxied pattern —
// either `fwd.F = true` or a composite literal with `F: true`), and the
// destination package tests that field in a branch condition, so a
// relayed request can never recurse into another relay.
func relayGuarded(idx *Index, fd FuncDecl, site wireCallSite, targets []endpoint) bool {
	reqKey, named, ok := structKeyOf(fd.Pkg.Info.TypeOf(site.req))
	if !ok {
		return false
	}
	marked := markedBoolFields(fd, named, site.req)
	if len(marked) == 0 {
		return false
	}
	for _, t := range targets {
		tfd, ok := idx.decls[t.handler]
		if !ok {
			continue
		}
		for f := range marked {
			if fieldTestedInPackage(tfd.Pkg, reqKey, f) {
				return true
			}
		}
	}
	return false
}

// markedBoolFields collects the boolean fields of the request type that
// the enclosing function sets to true before (or while) building the
// outgoing request.
func markedBoolFields(fd FuncDecl, reqType *types.Named, req ast.Expr) map[string]bool {
	marked := make(map[string]bool)
	isTrue := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "true"
	}
	record := func(name string, val ast.Expr) {
		fv := structField(reqType, name)
		if fv == nil || !isBoolType(fv.Type()) || !isTrue(val) {
			return
		}
		marked[name] = true
	}
	// Composite literals of the request type with F: true, anywhere in
	// the function.
	syncInspect(fd.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			key, _, ok := structKeyOf(fd.Pkg.Info.TypeOf(x))
			if !ok || key != reqType.Obj().Pkg().Path()+"."+reqType.Obj().Name() {
				return true
			}
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						record(id.Name, kv.Value)
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			sel, ok := x.Lhs[0].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			key, _, ok := structKeyOf(fd.Pkg.Info.TypeOf(sel.X))
			if !ok || key != reqType.Obj().Pkg().Path()+"."+reqType.Obj().Name() {
				return true
			}
			record(sel.Sel.Name, x.Rhs[0])
		}
		return true
	})
	_ = req
	return marked
}

// fieldTestedInPackage reports whether any branch condition (if
// condition or switch/case expression) in pkg reads field f of the
// given request struct — the receiving side of the relay protocol.
func fieldTestedInPackage(pkg *Package, reqKey, f string) bool {
	found := false
	checkExpr := func(e ast.Expr) {
		if e == nil || found {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != f {
				return true
			}
			if key, _, ok := structKeyOf(pkg.Info.TypeOf(sel.X)); ok && key == reqKey {
				found = true
				return false
			}
			return true
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.IfStmt:
				checkExpr(x.Cond)
			case *ast.CaseClause:
				for _, e := range x.List {
					checkExpr(e)
				}
			}
			return true
		})
	}
	return found
}

// isBoolType reports whether t's underlying type is bool.
func isBoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// posLess orders token positions by (file, line, column).
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
