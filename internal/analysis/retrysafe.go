package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// NewRetrySafe builds the retrysafe pass: every op a retrying client
// can resend must tolerate being applied twice. The pass classifies
// each handler op — the cases of a `switch req.Op` dispatch over an
// integer op-code enum — from its mutation pattern:
//
//   - idempotent: pure reads (every return's mutated flag is false),
//     or absolute overwrites that never read the state they replace;
//   - versioned: mutations behind a leading state guard (existence
//     check, duplicate check), or any op of a dispatch whose caller
//     carries a replay guard — a branch on an ID-suffixed field of the
//     request that returns early (the OpID replay cache shape);
//   - non-idempotent: read-modify-write (some state expression is both
//     read and written in the case body), or delegation to an
//     arbitrary method the classifier cannot see through.
//
// Every call site inside a retry wrapper — a function that both invokes
// a Backoff helper and reaches a wire Call — naming an op constant must
// target an idempotent-or-versioned op, or carry an explicit
// `//rpc:idempotent-because <reason>` justification on the call line or
// the line above.
func NewRetrySafe() *Pass {
	p := &Pass{
		Name:  "retrysafe",
		Doc:   "ops resent by retry wrappers must be idempotent, versioned, or explicitly justified",
		Scope: inPrefix("repro/"),
	}
	p.Run = byPackage(func(idx *Index) map[string][]Diagnostic { return retrySafeDiagnostics(p.Name, idx) })
	return p
}

const idempotentMarker = "//rpc:idempotent-because"

// opClass is an op's idempotency classification, ordered by severity.
type opClass int

const (
	classRead opClass = iota
	classOverwrite
	classVersioned
	classRMW
	classDelegate
)

func (c opClass) String() string {
	switch c {
	case classRead:
		return "idempotent (pure read)"
	case classOverwrite:
		return "idempotent (absolute overwrite)"
	case classVersioned:
		return "versioned"
	case classRMW:
		return "non-idempotent (read-modify-write)"
	case classDelegate:
		return "non-idempotent (delegates to an arbitrary method)"
	}
	return "unknown"
}

func (c opClass) retrySafe() bool { return c <= classVersioned }

// opFact is the classification of one op constant, with the dispatch
// case it was derived from.
type opFact struct {
	class    opClass
	detail   string
	switchFn string // function containing the dispatch switch
	casePos  token.Position
}

func retrySafeDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	facts := classifyOps(idx)
	upgradeReplayGuarded(idx, facts)

	rpcs := rpcSummaries(idx)
	wrappers := retryWrappers(idx, rpcs)
	marks := idempotencyMarks(idx)

	byPkg := make(map[string][]Diagnostic)
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		syncInspect(fd.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := Callee(fd.Pkg.Info, call)
			if fn == nil {
				return true
			}
			w, isWrapper := wrappers[fn.FullName()]
			if !isWrapper {
				return true
			}
			pos := fd.Pkg.position(call.Pos())
			for _, op := range opConstsIn(fd.Pkg, call) {
				fact, classified := facts[op.name]
				if !classified || fact.class.retrySafe() {
					continue
				}
				if marks[markKey{pos.Filename, pos.Line}] || marks[markKey{pos.Filename, pos.Line - 1}] {
					continue
				}
				byPkg[fd.Pkg.Path] = append(byPkg[fd.Pkg.Path], Diagnostic{
					Pos:  pos,
					Pass: pass,
					Message: fmt.Sprintf("%s is %s%s but is resent by retry wrapper %s; add a replay guard, classify it versioned, or justify with %s",
						shortSel(op.name), fact.class, fact.detail, shortName(fn.FullName()), idempotentMarker),
					Related: []Related{
						{Pos: fact.casePos, Note: "classified from this dispatch case"},
						{Pos: w.pos, Note: "retry wrapper (Backoff + " + shortName(w.rpc) + ")"},
					},
				})
			}
			return true
		})
	}
	return byPkg
}

// shortSel trims an op constant's package path for messages.
func shortSel(full string) string {
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// ---- op dispatch classification ----

// opSwitch is one `switch req.Op` dispatch found in a function body.
type opSwitch struct {
	fn     string // containing function full name
	reqKey string // struct key of the request ("pkg.OpRequest")
	pkg    *Package
	stmt   *ast.SwitchStmt
}

// classifyOps finds every dispatch switch over a named integer op enum
// whose tag is a field selector on a request struct, and classifies
// each case's constants. When a constant appears in more than one such
// switch (the apply dispatch plus, say, a journal-encoder or metrics
// switch over the same enum), the most severe classification wins: a
// benign-looking secondary switch must not launder a read-modify-write
// op into an overwrite.
func classifyOps(idx *Index) map[string]opFact {
	facts := make(map[string]opFact)
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		syncInspect(fd.Decl.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			sel, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isOpEnum(fd.Pkg.Info.TypeOf(sel)) {
				return true
			}
			reqKey, _, ok := structKeyOf(fd.Pkg.Info.TypeOf(sel.X))
			if !ok {
				return true
			}
			os := opSwitch{fn: name, reqKey: reqKey, pkg: fd.Pkg, stmt: sw}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok || len(cc.List) == 0 {
					continue
				}
				class, detail := classifyCase(fd.Pkg, cc)
				for _, expr := range cc.List {
					id, ok := ast.Unparen(expr).(*ast.Ident)
					if !ok {
						continue
					}
					c, ok := fd.Pkg.Info.Uses[id].(*types.Const)
					if !ok || c.Pkg() == nil {
						continue
					}
					key := c.Pkg().Path() + "." + c.Name()
					if prev, seen := facts[key]; seen && prev.class >= class {
						continue
					}
					facts[key] = opFact{
						class:    class,
						detail:   detail,
						switchFn: os.fn,
						casePos:  fd.Pkg.position(cc.Pos()),
					}
				}
			}
			return true
		})
	}
	return facts
}

// isOpEnum reports whether t is a named type with an integer underlying
// — the op-code enum shape.
func isOpEnum(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	b, ok := named.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// classifyCase derives one case body's idempotency class from its
// mutation pattern.
func classifyCase(pkg *Package, cc *ast.CaseClause) (opClass, string) {
	rets := returnsIn(cc.Body)

	// Pure read: every return reports "not mutated".
	if len(rets) > 0 && allReturnFalse(rets) {
		return classRead, ""
	}

	// Delegation: some return's last result is a call — the mutation
	// pattern lives in a function the case-level classifier cannot rank.
	for _, ret := range rets {
		if len(ret.Results) > 0 {
			if _, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.CallExpr); ok {
				return classDelegate, ""
			}
		}
	}

	// A leading if-that-only-returns is a state guard (existence or
	// duplicate check). Its condition is what a re-applied request trips
	// over, so reads inside it do not count toward read-modify-write.
	var guard *ast.IfStmt
	if len(cc.Body) > 0 {
		if iff, ok := cc.Body[0].(*ast.IfStmt); ok && iff.Else == nil && bodyOnlyReturns(iff.Body) {
			guard = iff
		}
	}

	writes, reads := stateAccesses(cc, guard)
	for w := range writes {
		if reads[w] {
			return classRMW, " of " + w
		}
	}
	if guard != nil {
		return classVersioned, ""
	}
	return classOverwrite, ""
}

func returnsIn(body []ast.Stmt) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				rets = append(rets, x)
			}
			return true
		})
	}
	return rets
}

func allReturnFalse(rets []*ast.ReturnStmt) bool {
	for _, ret := range rets {
		if len(ret.Results) == 0 {
			return false
		}
		id, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident)
		if !ok || id.Name != "false" {
			return false
		}
	}
	return true
}

func bodyOnlyReturns(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		if _, ok := stmt.(*ast.ReturnStmt); !ok {
			return false
		}
	}
	return true
}

// stateAccesses collects the selector/index expressions a case body
// writes (assignment targets, IncDec, delete) and reads (everywhere
// else), as printed strings. Only dotted expressions count: writes to
// plain locals are not object state. The leading guard statement, if
// any, is excluded from the read set.
func stateAccesses(cc *ast.CaseClause, guard *ast.IfStmt) (writes, reads map[string]bool) {
	writes = make(map[string]bool)
	reads = make(map[string]bool)
	written := make(map[ast.Expr]bool)

	record := func(set map[string]bool, e ast.Expr) {
		s := types.ExprString(ast.Unparen(e))
		if strings.Contains(s, ".") {
			set[s] = true
		}
	}
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						record(writes, lhs)
						written[lhs] = true
					}
				}
			case *ast.IncDecStmt:
				record(writes, x.X)
				written[x.X] = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
					record(writes, x.Args[0])
					written[x.Args[0]] = true
				}
			}
			return true
		})
	}
	for _, stmt := range cc.Body {
		if stmt == ast.Stmt(guard) && guard != nil {
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && written[e] {
				return false // the write target itself is not a read
			}
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectorExpr, *ast.IndexExpr:
				record(reads, n.(ast.Expr))
			}
			return true
		})
	}
	return writes, reads
}

// ---- replay-guard upgrade ----

var idFieldRe = regexp.MustCompile(`(^id$|ID$|Id$)`)

// upgradeReplayGuarded finds replay-guard gateways — a branch on an
// ID-suffixed field of the request type that returns early (the
// duplicate-delivery cache shape) — and upgrades every op of a dispatch
// reachable within the hop bound from such a gateway to versioned: the
// guard makes a resent request a cache hit, not a re-application.
func upgradeReplayGuarded(idx *Index, facts map[string]opFact) {
	// Dispatch function -> request key, re-derived by rescanning the
	// dispatch functions the facts point at (cheap).
	switchReq := make(map[string]map[string]bool)
	for _, f := range facts {
		if _, ok := idx.decls[f.switchFn]; ok && switchReq[f.switchFn] == nil {
			switchReq[f.switchFn] = make(map[string]bool)
		}
	}
	for fn := range switchReq {
		fd := idx.decls[fn]
		syncInspect(fd.Decl.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			sel, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr)
			if !ok || !isOpEnum(fd.Pkg.Info.TypeOf(sel)) {
				return true
			}
			if key, _, ok := structKeyOf(fd.Pkg.Info.TypeOf(sel.X)); ok {
				switchReq[fn][key] = true
			}
			return true
		})
	}

	guarded := make(map[string]bool) // switch functions protected by a gateway
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		gatewayKeys := replayGuardKeys(fd)
		if len(gatewayKeys) == 0 {
			continue
		}
		// BFS the sync call graph from the gateway.
		reach := map[string]bool{name: true}
		frontier := []string{name}
		for hop := 0; hop <= maxHops; hop++ {
			var next []string
			for _, f := range frontier {
				if keys, ok := switchReq[f]; ok {
					for k := range keys {
						if gatewayKeys[k] {
							guarded[f] = true
						}
					}
				}
				cfd, ok := idx.decls[f]
				if !ok {
					continue
				}
				syncInspect(cfd.Decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn := Callee(cfd.Pkg.Info, call); fn != nil && !reach[fn.FullName()] {
						reach[fn.FullName()] = true
						next = append(next, fn.FullName())
					}
					return true
				})
			}
			frontier = next
		}
	}
	for name, f := range facts {
		if guarded[f.switchFn] && !f.class.retrySafe() {
			f.class = classVersioned
			f.detail = ""
			facts[name] = f
		}
	}
}

// replayGuardKeys returns the request struct keys fd guards with an
// early-returning branch on an ID-suffixed field.
func replayGuardKeys(fd FuncDecl) map[string]bool {
	keys := make(map[string]bool)
	syncInspect(fd.Decl.Body, func(n ast.Node) bool {
		iff, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !containsReturn(iff.Body) {
			return true
		}
		for _, e := range []ast.Node{iff.Init, iff.Cond} {
			if e == nil {
				continue
			}
			ast.Inspect(e, func(m ast.Node) bool {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok || !idFieldRe.MatchString(sel.Sel.Name) {
					return true
				}
				if key, _, ok := structKeyOf(fd.Pkg.Info.TypeOf(sel.X)); ok {
					keys[key] = true
				}
				return true
			})
		}
		return true
	})
	return keys
}

func containsReturn(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// ---- retry wrappers and their call sites ----

// retryWrapper is a function that resends: it invokes a Backoff pacing
// helper and reaches a wire Call on its own stack.
type retryWrapper struct {
	pos token.Position
	rpc string
}

func retryWrappers(idx *Index, rpcs map[string]reached) map[string]retryWrapper {
	out := make(map[string]retryWrapper)
	for _, name := range sortedDeclNames(idx) {
		r, ok := rpcs[name]
		if !ok {
			continue
		}
		fd := idx.decls[name]
		backoff := false
		syncInspect(fd.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := Callee(fd.Pkg.Info, call); fn != nil && fn.Name() == "Backoff" {
				backoff = true
				return false
			}
			return true
		})
		if backoff {
			out[name] = retryWrapper{pos: fd.Pkg.position(fd.Decl.Pos()), rpc: r.site()}
		}
	}
	return out
}

// opConst is one op constant appearing in a wrapper call's arguments.
type opConst struct {
	name string
	pos  token.Position
}

// opConstsIn extracts op-enum constants assigned to fields of composite
// literals in the call's arguments — `do(ctx, OpRequest{Op: OpAppend})`.
func opConstsIn(pkg *Package, call *ast.CallExpr) []opConst {
	var out []opConst
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(kv.Value).(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := pkg.Info.Uses[id].(*types.Const)
			if !ok || c.Pkg() == nil || !isOpEnum(c.Type()) {
				return true
			}
			out = append(out, opConst{name: c.Pkg().Path() + "." + c.Name(), pos: pkg.position(id.Pos())})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ---- //rpc:idempotent-because annotations ----

type markKey struct {
	file string
	line int
}

// idempotencyMarks collects the lines carrying a justified
// //rpc:idempotent-because annotation. A bare marker with no reason is
// ignored — and so still yields the finding it meant to excuse.
func idempotencyMarks(idx *Index) map[markKey]bool {
	marks := make(map[markKey]bool)
	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, idempotentMarker) {
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(c.Text, idempotentMarker))
					if reason == "" {
						continue
					}
					pos := pkg.position(c.Pos())
					marks[markKey{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return marks
}
