package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared value-flow/ownership engine under the three
// aliasing passes (cowalias, poolsafe, sendshare): intraprocedural
// slice/pointer origin tracking through assignments, append, copy, and
// field reads, plus hop-bounded callee summaries (who returns an alias
// of what, who retains an argument in stored state, who mutates an
// argument's backing in place) propagated the same way callgraph.go
// propagates lock and RPC facts.
//
// The origin lattice deliberately stays coarse — one origin per
// variable, last-writer-wins in source order, joins only at branch
// writes — because the passes built on it flag a site only when the
// origin is *definitely* hazardous (stored copy-on-write state mutated
// in place, a caller-owned buffer stored without a clone). Unknown
// never flags.

// origin classifies what a value's backing storage aliases.
type origin int

const (
	orUnknown origin = iota // unresolvable — never flagged
	orFresh                 // freshly allocated here; exclusively owned
	orParam                 // aliases a caller-owned argument
	orStored                // aliases long-lived stored state
)

// originRank orders origins worst-last for joins: a value that may be
// stored state must be treated as stored state.
func originRank(o origin) int {
	switch o {
	case orFresh:
		return 0
	case orUnknown:
		return 1
	case orParam:
		return 2
	case orStored:
		return 3
	}
	return 1
}

// originInfo is one tracked value: its origin, whether it aliases a
// copy-on-write container slot, which parameter it came from (orParam;
// receiver = -1), whether that parameter is a pointer (a state handle
// rather than a caller buffer), and the witness chain of sites that
// created the alias.
type originInfo struct {
	org   origin
	cow   bool
	param int
	ptr   bool
	chain []chainStep
}

func vfUnknown() originInfo { return originInfo{org: orUnknown} }

func vfFresh(pos token.Position, what string) originInfo {
	return originInfo{org: orFresh, chain: []chainStep{{name: what, pos: pos}}}
}

// joinOrigin merges two origins at a branch write: the worse one wins,
// and copy-on-write taint is sticky.
func joinOrigin(a, b originInfo) originInfo {
	out := a
	if originRank(b.org) > originRank(a.org) {
		out = b
	}
	out.cow = out.cow || (a.cow && b.cow) || (originRank(a.org) == originRank(b.org) && (a.cow || b.cow))
	if a.cow && originRank(a.org) >= originRank(b.org) {
		out.cow = true
	}
	if b.cow && originRank(b.org) >= originRank(a.org) {
		out.cow = true
	}
	return out
}

// cowRoots scans every loaded type declaration for a documented
// copy-on-write discipline (the machine-checkable marker, like
// fieldguard's `guarded by`): a struct whose doc comment contains
// "copy-on-write" has its slice- and map-typed fields treated as COW
// container slots.
func cowRoots(idx *Index) map[string]bool {
	roots := make(map[string]bool)
	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, ok := ts.Type.(*ast.StructType); !ok {
						continue
					}
					doc := ts.Doc.Text()
					if doc == "" && len(gd.Specs) == 1 {
						doc = gd.Doc.Text()
					}
					if strings.Contains(strings.ToLower(doc), "copy-on-write") {
						roots[pkg.Path+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return roots
}

// fieldIsContainer reports whether the named struct field is a slice or
// map — the slots a copy-on-write discipline governs.
func fieldIsContainer(named *types.Named, name string) bool {
	fv := structField(named, name)
	if fv == nil {
		return false
	}
	switch fv.Type().Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// ---- callee summaries ----

// retAlias summarizes what one function result may alias across every
// return path.
type retAlias struct {
	fresh   bool
	stored  bool
	cow     bool
	unknown bool
	params  map[int]bool // result aliases parameter i (receiver = -1)
}

func (r retAlias) equal(o retAlias) bool {
	if r.fresh != o.fresh || r.stored != o.stored || r.cow != o.cow || r.unknown != o.unknown || len(r.params) != len(o.params) {
		return false
	}
	for p := range r.params {
		if !o.params[p] {
			return false
		}
	}
	return true
}

// funcEffect is one function's ownership summary: per-result alias
// classes, the parameters it retains in stored state, and the
// parameters whose slice backing it writes in place.
type funcEffect struct {
	rets    []retAlias
	stores  map[int]bool
	mutates map[int]bool
}

func newEffect(n int) *funcEffect {
	return &funcEffect{rets: make([]retAlias, n), stores: make(map[int]bool), mutates: make(map[int]bool)}
}

func effEqual(a, b *funcEffect) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.rets) != len(b.rets) || len(a.stores) != len(b.stores) || len(a.mutates) != len(b.mutates) {
		return false
	}
	for i := range a.rets {
		if !a.rets[i].equal(b.rets[i]) {
			return false
		}
	}
	for p := range a.stores {
		if !b.stores[p] {
			return false
		}
	}
	for p := range a.mutates {
		if !b.mutates[p] {
			return false
		}
	}
	return true
}

// effectsFor returns the ownership summaries for idx, computed once per
// Index: cowalias and sendshare share one summary table.
func effectsFor(idx *Index) map[string]*funcEffect {
	idx.effectsOnce.Do(func() { idx.effects = funcEffects(idx, cowRoots(idx)) })
	return idx.effects
}

// funcEffects computes ownership summaries for every declared function,
// re-running the intraprocedural engine maxHops times so facts
// propagate through call chains exactly as deep as the protocol passes'
// summaries do.
func funcEffects(idx *Index, cow map[string]bool) map[string]*funcEffect {
	names := sortedDeclNames(idx)
	sums := make(map[string]*funcEffect)
	for hop := 0; hop < maxHops; hop++ {
		next := make(map[string]*funcEffect, len(names))
		changed := false
		for _, name := range names {
			fd := idx.decls[name]
			s := &vfScanner{pkg: fd.Pkg, sums: sums, cow: cow}
			eff := s.scanFunc(fd.Decl)
			next[name] = eff
			if !effEqual(eff, sums[name]) {
				changed = true
			}
		}
		sums = next
		if !changed {
			break
		}
	}
	return sums
}

// ---- the intraprocedural scanner ----

// vfScanner walks one function in source order, tracking per-variable
// origins. It always builds the function's effect summary; the pass
// hooks fire alongside when set.
type vfScanner struct {
	pkg  *Package
	sums map[string]*funcEffect
	cow  map[string]bool

	env      map[types.Object]originInfo
	defDepth map[types.Object]int
	handled  map[*ast.FuncLit]bool
	depth    int
	eff      *funcEffect

	// onMutate fires on an in-place write into a tracked backing array:
	// kind is "element write", "copy into", or "append in place".
	onMutate func(kind string, target ast.Expr, info originInfo, pos token.Pos)
	// onStore fires when a value is stored into a copy-on-write
	// container slot (field assign, map insert, or composite literal).
	onStore func(slot string, target ast.Expr, info originInfo, pos token.Pos)
	// onCall fires on every resolved static call.
	onCall func(call *ast.CallExpr, fn *types.Func)
}

// scanFunc seeds parameters and walks the body, returning the effect
// summary it built.
func (s *vfScanner) scanFunc(fd *ast.FuncDecl) *funcEffect {
	s.env = make(map[types.Object]originInfo)
	s.defDepth = make(map[types.Object]int)
	s.handled = make(map[*ast.FuncLit]bool)
	nres := 0
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nres += n
			} else {
				nres++
			}
		}
	}
	s.eff = newEffect(nres)

	seed := func(name *ast.Ident, typ types.Type, param int) {
		obj := s.pkg.Info.Defs[name]
		if obj == nil || name.Name == "_" {
			return
		}
		_, isPtr := typ.Underlying().(*types.Pointer)
		s.env[obj] = originInfo{
			org: orParam, param: param, ptr: isPtr,
			chain: []chainStep{{name: "parameter " + name.Name, pos: s.pkg.position(name.Pos())}},
		}
		s.defDepth[obj] = 0
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if t := s.pkg.Info.TypeOf(fd.Recv.List[0].Type); t != nil {
			seed(fd.Recv.List[0].Names[0], t, -1)
		}
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		t := s.pkg.Info.TypeOf(f.Type)
		for _, name := range f.Names {
			if t != nil {
				seed(name, t, i)
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	if fd.Body != nil {
		s.scanStmts(fd.Body.List)
	}
	return s.eff
}

func (s *vfScanner) scanStmts(list []ast.Stmt) {
	for _, st := range list {
		s.scanStmt(st)
	}
}

// scanBranch walks a nested body one level deeper: variable writes
// inside it join with (rather than replace) the origin established
// outside, so `if miss { e = fresh }` leaves e possibly-stored.
func (s *vfScanner) scanBranch(list []ast.Stmt) {
	s.depth++
	s.scanStmts(list)
	s.depth--
}

func (s *vfScanner) scanStmt(stmt ast.Stmt) {
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		s.scanExpr(x.X)
	case *ast.AssignStmt:
		s.assign(x)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				s.scanExpr(v)
			}
			var infos []originInfo
			if len(vs.Values) == 1 && len(vs.Names) > 1 {
				infos = s.tupleOrigins(vs.Values[0], len(vs.Names))
			}
			for i, name := range vs.Names {
				info := vfFresh(s.pkg.position(name.Pos()), "declared "+name.Name)
				switch {
				case infos != nil:
					info = infos[i]
				case i < len(vs.Values):
					info = s.exprOrigin(vs.Values[i])
				}
				s.setVar(name, info)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			s.scanExpr(r)
		}
		s.recordReturn(x)
	case *ast.IfStmt:
		if x.Init != nil {
			s.scanStmt(x.Init)
		}
		s.scanExpr(x.Cond)
		s.scanBranch(x.Body.List)
		if x.Else != nil {
			s.scanBranch([]ast.Stmt{x.Else})
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.scanStmt(x.Init)
		}
		if x.Cond != nil {
			s.scanExpr(x.Cond)
		}
		s.scanBranch(x.Body.List)
		if x.Post != nil {
			s.scanStmt(x.Post)
		}
	case *ast.RangeStmt:
		s.scanExpr(x.X)
		elem := s.exprOrigin(x.X)
		if x.Value != nil {
			if id, ok := x.Value.(*ast.Ident); ok {
				s.setVar(id, elem)
			}
		}
		if x.Key != nil {
			if id, ok := x.Key.(*ast.Ident); ok {
				// Map/slice keys are indexes; only array-of-slice keys
				// would alias, which does not occur. Track as fresh.
				s.setVar(id, vfFresh(s.pkg.position(id.Pos()), "range key"))
			}
		}
		s.scanBranch(x.Body.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.scanStmt(x.Init)
		}
		if x.Tag != nil {
			s.scanExpr(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanBranch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.scanStmt(x.Init)
		}
		var operand originInfo
		switch a := x.Assign.(type) {
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
					operand = s.exprOrigin(ta.X)
				}
			}
		case *ast.ExprStmt:
			if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
				operand = s.exprOrigin(ta.X)
			}
		}
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if obj := s.pkg.Info.Implicits[cc]; obj != nil {
				s.env[obj] = operand
				s.defDepth[obj] = s.depth + 1
			}
			s.scanBranch(cc.Body)
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					s.scanStmt(cc.Comm)
				}
				s.scanBranch(cc.Body)
			}
		}
	case *ast.BlockStmt:
		s.scanStmts(x.List)
	case *ast.LabeledStmt:
		s.scanStmt(x.Stmt)
	case *ast.GoStmt:
		s.scanExpr(x.Call)
	case *ast.DeferStmt:
		s.scanExpr(x.Call)
	case *ast.SendStmt:
		s.scanExpr(x.Chan)
		s.scanExpr(x.Value)
	case *ast.IncDecStmt:
		s.scanExpr(x.X)
		if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
			if isSliceExprType(s.pkg.Info.TypeOf(ix.X)) {
				s.mutate("element write", ix.X, s.exprOrigin(ix.X), x.Pos())
			}
		}
	}
}

// assign evaluates the right-hand sides, then routes each left-hand
// side: identifiers update the environment, index/selector targets are
// checked as mutations or container stores.
func (s *vfScanner) assign(st *ast.AssignStmt) {
	for _, r := range st.Rhs {
		s.scanExpr(r)
	}
	var infos []originInfo
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		infos = s.tupleOrigins(st.Rhs[0], len(st.Lhs))
	} else {
		for _, r := range st.Rhs {
			infos = append(infos, s.exprOrigin(r))
		}
	}
	for i, lhs := range st.Lhs {
		info := vfUnknown()
		if i < len(infos) {
			info = infos[i]
		}
		s.assignTo(lhs, info, st.Pos())
	}
}

func (s *vfScanner) assignTo(lhs ast.Expr, info originInfo, pos token.Pos) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		s.setVar(l, info)
	case *ast.IndexExpr:
		baseInfo := s.exprOrigin(l.X)
		if isSliceExprType(s.pkg.Info.TypeOf(l.X)) {
			s.mutate("element write", l.X, baseInfo, pos)
			return
		}
		// Map insert: replacement-level, allowed by COW — but the value
		// stored into a COW map must not be a caller-owned buffer. A
		// string or scalar value has no backing array a caller could
		// write later.
		if baseInfo.cow && baseInfo.org != orFresh && !isBasicType(s.pkg.Info.TypeOf(l)) {
			s.store(types.ExprString(l.X)+" (copy-on-write omap/xattr)", l.X, info, pos)
		}
		s.recordStore(baseInfo, info)
	case *ast.SelectorExpr:
		baseInfo := s.exprOrigin(l.X)
		key, named, ok := structKeyOf(s.pkg.Info.TypeOf(l.X))
		if ok && s.cow[key] && fieldIsContainer(named, l.Sel.Name) && baseInfo.org != orFresh {
			s.store(shortName(key)+"."+l.Sel.Name, l, info, pos)
		}
		s.recordStore(baseInfo, info)
	case *ast.StarExpr:
		s.recordStore(s.exprOrigin(l.X), info)
	}
}

// setVar binds an identifier's origin. A write nested deeper than the
// variable's definition joins with the existing origin instead of
// replacing it (the branch may not be taken); a same-depth write is the
// clone idiom and replaces outright.
func (s *vfScanner) setVar(id *ast.Ident, info originInfo) {
	if id.Name == "_" {
		return
	}
	obj := s.pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if old, ok := s.env[obj]; ok && s.depth > s.defDepth[obj] {
		info = joinOrigin(old, info)
	}
	if _, ok := s.defDepth[obj]; !ok {
		s.defDepth[obj] = s.depth
	}
	if (info.org == orParam || info.org == orStored) && len(info.chain) > 0 && len(info.chain) < 4 {
		last := info.chain[len(info.chain)-1]
		step := chainStep{name: "aliased as " + id.Name, pos: s.pkg.position(id.Pos())}
		if last.name != step.name {
			info.chain = append(append([]chainStep(nil), info.chain...), step)
		}
	}
	s.env[obj] = info
}

func (s *vfScanner) mutate(kind string, target ast.Expr, info originInfo, pos token.Pos) {
	if info.org == orParam && !info.ptr {
		s.eff.mutates[info.param] = true
	}
	if s.onMutate != nil {
		s.onMutate(kind, target, info, pos)
	}
}

func (s *vfScanner) store(slot string, target ast.Expr, info originInfo, pos token.Pos) {
	if s.onStore != nil {
		s.onStore(slot, target, info, pos)
	}
}

// recordStore notes argument retention for the effect summary: a
// caller-owned value written into state reachable from the receiver or
// a pointer parameter stays live after this function returns.
func (s *vfScanner) recordStore(baseInfo, info originInfo) {
	if info.org != orParam {
		return
	}
	if baseInfo.org == orStored || (baseInfo.org == orParam && baseInfo.ptr) {
		s.eff.stores[info.param] = true
	}
}

func (s *vfScanner) recordReturn(ret *ast.ReturnStmt) {
	if len(s.eff.rets) == 0 || len(ret.Results) == 0 {
		return
	}
	var infos []originInfo
	if len(ret.Results) == 1 && len(s.eff.rets) > 1 {
		infos = s.tupleOrigins(ret.Results[0], len(s.eff.rets))
	} else {
		for _, r := range ret.Results {
			infos = append(infos, s.exprOrigin(r))
		}
	}
	for i, info := range infos {
		if i >= len(s.eff.rets) {
			break
		}
		ra := &s.eff.rets[i]
		switch info.org {
		case orFresh:
			ra.fresh = true
		case orParam:
			if ra.params == nil {
				ra.params = make(map[int]bool)
			}
			ra.params[info.param] = true
		case orStored:
			ra.stored = true
			if info.cow {
				ra.cow = true
			}
		default:
			ra.unknown = true
		}
	}
}

// scanExpr walks one expression for its side effects on the analysis:
// nested function literals run inline (they share the lexical
// environment — undo closures capture stored aliases), calls are
// checked against callee summaries, copy/append mutations are reported,
// and composite literals of COW types have their container fields
// checked.
func (s *vfScanner) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !s.handled[x] {
				s.handled[x] = true
				s.scanBranch(x.Body.List)
			}
			return false
		case *ast.CallExpr:
			s.checkCall(x)
		case *ast.CompositeLit:
			s.checkComposite(x)
		}
		return true
	})
}

func (s *vfScanner) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pkg.Info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				if len(call.Args) > 0 {
					s.mutate("copy into", call.Args[0], s.exprOrigin(call.Args[0]), call.Pos())
				}
			case "append":
				if len(call.Args) > 0 {
					base := s.exprOrigin(call.Args[0])
					if base.org == orParam && !base.ptr {
						s.eff.mutates[base.param] = true
					}
					if s.onMutate != nil && base.org == orStored {
						s.onMutate("append in place", call.Args[0], base, call.Pos())
					}
				}
			}
			return
		}
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	if sum := s.sums[fn.FullName()]; sum != nil {
		for p := range sum.stores {
			if a := s.argOrigin(call, p); a.org == orParam {
				s.eff.stores[a.param] = true
			}
		}
		for p := range sum.mutates {
			if a := s.argOrigin(call, p); a.org == orParam && !a.ptr {
				s.eff.mutates[a.param] = true
			}
		}
	}
	if s.onCall != nil {
		s.onCall(call, fn)
	}
}

// checkComposite flags caller-owned buffers placed directly into the
// container fields of a copy-on-write struct literal (the reply/store
// construction path).
func (s *vfScanner) checkComposite(lit *ast.CompositeLit) {
	key, named, ok := structKeyOf(s.pkg.Info.TypeOf(lit))
	if !ok || !s.cow[key] {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok || !fieldIsContainer(named, id.Name) {
			continue
		}
		s.store(shortName(key)+"."+id.Name, kv.Value, s.exprOrigin(kv.Value), kv.Pos())
	}
}

// argOrigin resolves the origin of callee parameter p (receiver = -1)
// at a call site.
func (s *vfScanner) argOrigin(call *ast.CallExpr, p int) originInfo {
	if p < 0 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return vfUnknown()
		}
		if _, isSel := s.pkg.Info.Selections[sel]; !isSel {
			return vfUnknown()
		}
		return s.exprOrigin(sel.X)
	}
	if p >= len(call.Args) {
		return vfUnknown()
	}
	return s.exprOrigin(call.Args[p])
}

// ---- origin evaluation ----

// exprOrigin computes, without side effects, what an expression's value
// aliases.
func (s *vfScanner) exprOrigin(e ast.Expr) originInfo {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := s.pkg.Info.ObjectOf(x)
		switch o := obj.(type) {
		case nil:
			return vfUnknown()
		case *types.Nil:
			return vfFresh(s.pkg.position(x.Pos()), "nil")
		case *types.Var:
			if info, ok := s.env[o]; ok {
				return info
			}
			if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
				return originInfo{org: orStored, chain: []chainStep{{name: "package variable " + x.Name, pos: s.pkg.position(x.Pos())}}}
			}
		}
		return vfUnknown()
	case *ast.BasicLit:
		return vfFresh(s.pkg.position(x.Pos()), "literal")
	case *ast.CompositeLit:
		return vfFresh(s.pkg.position(x.Pos()), "allocated here")
	case *ast.FuncLit:
		return vfFresh(s.pkg.position(x.Pos()), "function literal")
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.exprOrigin(x.X)
		}
		return vfUnknown()
	case *ast.StarExpr:
		return s.exprOrigin(x.X)
	case *ast.SelectorExpr:
		return s.selectorOrigin(x)
	case *ast.IndexExpr:
		return s.exprOrigin(x.X)
	case *ast.SliceExpr:
		return s.exprOrigin(x.X)
	case *ast.TypeAssertExpr:
		return s.exprOrigin(x.X)
	case *ast.CallExpr:
		return s.callOrigin(x)
	case *ast.BinaryExpr:
		// String concatenation and arithmetic allocate or copy.
		return vfFresh(s.pkg.position(x.Pos()), "computed")
	}
	return vfUnknown()
}

func (s *vfScanner) selectorOrigin(sel *ast.SelectorExpr) originInfo {
	// Package-qualified name: a package-level variable is stored state.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := s.pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
			if v, ok := s.pkg.Info.ObjectOf(sel.Sel).(*types.Var); ok && v != nil {
				return originInfo{org: orStored, chain: []chainStep{{name: "package variable " + types.ExprString(sel), pos: s.pkg.position(sel.Pos())}}}
			}
			return vfUnknown()
		}
	}
	base := s.exprOrigin(sel.X)
	key, named, ok := structKeyOf(s.pkg.Info.TypeOf(sel.X))
	if ok && s.cow[key] && fieldIsContainer(named, sel.Sel.Name) {
		if base.org == orFresh {
			return base // a freshly allocated COW object is still exclusively owned
		}
		chain := append(append([]chainStep(nil), base.chain...), chainStep{
			name: types.ExprString(sel) + " reads copy-on-write state of " + shortName(key),
			pos:  s.pkg.position(sel.Pos()),
		})
		if len(chain) > 4 {
			chain = chain[len(chain)-4:]
		}
		return originInfo{org: orStored, cow: true, chain: chain}
	}
	return base
}

func (s *vfScanner) callOrigin(call *ast.CallExpr) originInfo {
	pos := s.pkg.position(call.Pos())
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pkg.Info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				return vfFresh(pos, "allocated here")
			case "append":
				if len(call.Args) > 0 {
					return s.exprOrigin(call.Args[0])
				}
			}
			return vfUnknown()
		}
	}
	// Conversions: string -> []byte/[]rune allocates; slice -> named
	// slice (and pointer conversions) alias the operand.
	if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		from := s.pkg.Info.TypeOf(call.Args[0])
		if _, toSlice := tv.Type.Underlying().(*types.Slice); toSlice && from != nil {
			if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return vfFresh(pos, "converted from string")
			}
		}
		return s.exprOrigin(call.Args[0])
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return vfUnknown()
	}
	sum := s.sums[fn.FullName()]
	if sum == nil || len(sum.rets) == 0 {
		return vfUnknown()
	}
	return s.retOrigin(call, fn, sum.rets[0])
}

// retOrigin maps a callee's result summary onto a call site: the worst
// contribution wins (a result that may alias stored state is stored
// state).
func (s *vfScanner) retOrigin(call *ast.CallExpr, fn *types.Func, ra retAlias) originInfo {
	pos := s.pkg.position(call.Pos())
	best := vfUnknown()
	have := false
	consider := func(info originInfo) {
		if !have || originRank(info.org) > originRank(best.org) || (originRank(info.org) == originRank(best.org) && info.cow && !best.cow) {
			best = info
		}
		have = true
	}
	if ra.fresh {
		consider(vfFresh(pos, shortName(fn.FullName())+" allocates"))
	}
	if ra.unknown {
		consider(vfUnknown())
	}
	for p := range ra.params {
		arg := s.argOrigin(call, p)
		if len(arg.chain) > 0 {
			arg.chain = append(append([]chainStep(nil), arg.chain...), chainStep{name: "through " + shortName(fn.FullName()), pos: pos})
			if len(arg.chain) > 4 {
				arg.chain = arg.chain[len(arg.chain)-4:]
			}
		}
		consider(arg)
	}
	if ra.stored {
		consider(originInfo{org: orStored, cow: ra.cow, chain: []chainStep{{name: shortName(fn.FullName()) + " returns stored state", pos: pos}}})
	}
	if !have {
		return vfUnknown()
	}
	return best
}

// tupleOrigins splits a multi-value right-hand side (call, comma-ok
// map read, type assertion, channel receive) into per-result origins.
func (s *vfScanner) tupleOrigins(e ast.Expr, n int) []originInfo {
	out := make([]originInfo, n)
	for i := range out {
		out[i] = vfUnknown()
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := Callee(s.pkg.Info, x)
		if fn == nil {
			return out
		}
		sum := s.sums[fn.FullName()]
		if sum == nil {
			return out
		}
		for i := 0; i < n && i < len(sum.rets); i++ {
			out[i] = s.retOrigin(x, fn, sum.rets[i])
		}
	case *ast.TypeAssertExpr:
		out[0] = s.exprOrigin(x.X)
	case *ast.IndexExpr:
		out[0] = s.exprOrigin(x.X)
	case *ast.UnaryExpr:
		// Channel receive: unresolvable.
	}
	return out
}

// isBasicType reports whether t's underlying type is a string, number
// or bool: a value with no backing store to alias.
func isBasicType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

// isSliceExprType reports whether t's underlying type is a slice.
func isSliceExprType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
