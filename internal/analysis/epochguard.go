package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewEpochGuard builds the epochguard pass. The invariant (the one
// ZLog's seal protocol leans on, PAPER.md §ZLog): an op handler that
// can mutate daemon-shared object state must compare the request's
// epoch against the daemon's epoch before the first write, so a sealed
// log rejects stale writers instead of corrupting state.
//
// Entry points are functions named handle* that take a message whose
// struct type carries an Epoch field. The check is flow-insensitive but
// order-aware: any comparison mentioning an Epoch field/method before
// the first shared mutation counts as the guard. Mutations reached
// through same-repo calls are followed; a callee that performs its own
// epoch comparison before writing (the updateMap idiom) is guarded and
// does not taint its callers.
func NewEpochGuard() *Pass {
	p := &Pass{
		Name: "epochguard",
		Doc:  "epoch-carrying op handlers must compare request epoch to daemon epoch before mutating object state",
	}
	summariesFor := perIndex(epochSummaries)
	p.Run = func(pkg *Package, idx *Index) []Diagnostic {
		summaries := summariesFor(idx)
		var diags []Diagnostic
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !strings.HasPrefix(fd.Name.Name, "handle") && !strings.HasPrefix(fd.Name.Name, "Handle") {
					continue
				}
				if !hasEpochParam(pkg, fd) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if sum := summaries[fn.FullName()]; sum.unguarded {
					diags = append(diags, Diagnostic{
						Pos:     pkg.position(sum.pos),
						Pass:    p.Name,
						Message: fd.Name.Name + " mutates object state without first comparing the request epoch to the daemon epoch",
					})
				}
			}
		}
		return diags
	}
	return p
}

// egSummary records whether a function performs a shared mutation with
// no prior epoch comparison, and where the first such mutation is.
type egSummary struct {
	unguarded bool
	pos       token.Pos
}

// epochSummaries runs the guarded-mutation scan to a fixpoint over
// every declared function (monotone: unguarded flips false->true only).
func epochSummaries(idx *Index) map[string]egSummary {
	sums := make(map[string]egSummary, len(idx.decls))
	for {
		changed := false
		for name, fd := range idx.decls {
			if sums[name].unguarded {
				continue
			}
			if s := scanEpochGuard(fd.Pkg, fd.Decl, idx, sums); s.unguarded {
				sums[name] = s
				changed = true
			}
		}
		if !changed {
			return sums
		}
	}
}

// scanEpochGuard walks a function body in source order. An epoch
// comparison flips the function to guarded; before that, a shared
// mutation (or a call to an unguarded-mutating function) marks it
// unguarded. Function literals are skipped: deferred/spawned work is
// not the handler's synchronous write path.
func scanEpochGuard(pkg *Package, fd *ast.FuncDecl, idx *Index, sums map[string]egSummary) egSummary {
	guarded := false
	var out egSummary
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if out.unguarded || guarded {
			return false // decided either way; nothing below changes it
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if isComparison(x.Op) && (mentionsEpoch(x.X) || mentionsEpoch(x.Y)) {
				guarded = true
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isSharedTarget(pkg, lhs) {
					out = egSummary{unguarded: true, pos: x.Pos()}
					return false
				}
			}
		case *ast.IncDecStmt:
			if isSharedTarget(pkg, x.X) {
				out = egSummary{unguarded: true, pos: x.Pos()}
				return false
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
				if isSharedTarget(pkg, x.Args[0]) {
					out = egSummary{unguarded: true, pos: x.Pos()}
					return false
				}
			}
			if fn := Callee(pkg.Info, x); fn != nil {
				if sums[fn.FullName()].unguarded {
					out = egSummary{unguarded: true, pos: x.Pos()}
					return false
				}
			}
		}
		return true
	})
	return out
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// mentionsEpoch reports whether the expression references an Epoch
// field or calls an Epoch method.
func mentionsEpoch(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Epoch" {
				found = true
			}
		case *ast.Ident:
			if x.Name == "Epoch" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSharedTarget reports whether writing through e mutates state that
// outlives the function: the selector/index chain traverses a pointer,
// map, or slice, or bottoms out at a package-level variable. A write to
// a plain local (including a value-typed parameter, which is a copy)
// is not shared.
func isSharedTarget(pkg *Package, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if throughSharedValue(pkg, x.X) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			if throughSharedValue(pkg, x.X) {
				return true
			}
			e = x.X
		case *ast.Ident:
			obj, ok := pkg.Info.ObjectOf(x).(*types.Var)
			if !ok {
				return false
			}
			// Package-level variable.
			return obj.Parent() == pkg.Pkg.Scope()
		default:
			return false
		}
	}
}

func throughSharedValue(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return true
	}
	return false
}

// hasEpochParam reports whether any parameter's struct type (through
// one pointer) declares an Epoch field.
func hasEpochParam(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == "Epoch" {
				return true
			}
		}
	}
	return false
}
