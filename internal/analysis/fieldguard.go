package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// NewFieldGuard builds the fieldguard pass: a struct field annotated
// `// guarded by mu` (where mu is a sibling sync.Mutex/RWMutex field)
// may only be read or written while that mutex is held, including on
// paths that explicitly Unlock earlier in the same function. For
// structs with exactly one mutex and no annotation, the guard is
// inferred from majority-of-accesses evidence: if at least 3/4 of a
// field's accesses hold the mutex, the minority that do not are
// findings.
//
// It reads the one held-lock walk (flow.go) that lockblock and
// lockorder read: flow-sensitive per function, with two kinds of
// cross-function facts — a callee whose body net-acquires or
// net-releases a receiver mutex (a lock/unlock helper) updates the
// caller's state at the call site, and functions that document an
// external lock protocol (a `*Locked` name suffix, or a "Caller holds
// x.mu" doc comment) start with that mutex held.
func NewFieldGuard() *Pass {
	p := &Pass{
		Name: "fieldguard",
		Doc:  "annotated or inferred mutex-guarded struct fields must be accessed with the mutex held",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/wire",
		),
	}
	p.Run = byPackage(func(idx *Index) map[string][]Diagnostic { return fieldGuardDiagnostics(p.Name, idx) })
	return p
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by ([A-Za-z_]\w*)`)
	callerHoldsRe = regexp.MustCompile(`[Cc]aller\s+(?:must\s+hold|holds)\s+([A-Za-z_]\w*\.[A-Za-z_]\w*)`)
)

// fgFacts is the whole-program guard table.
type fgFacts struct {
	// guards maps "pkgpath.Type" -> field -> guarding mutex field name,
	// from annotations.
	guards map[string]map[string]string
	// mutexes maps "pkgpath.Type" -> its sync.Mutex/RWMutex field names,
	// in declaration order.
	mutexes map[string][]string
}

// fgAccess is one recorded access to a field of a single-mutex struct,
// for majority inference.
type fgAccess struct {
	pkg       *Package
	pos       token.Pos
	structKey string // "pkgpath.Type" of the owning struct
	expr      string // base.field as written
	lockExpr  string // base.mu as the holder key would be written
	held      bool
}

// fgReport records one finding.
type fgReport func(pkg *Package, pos token.Pos, msg string)

func fieldGuardDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	byPkg := make(map[string][]Diagnostic)
	report := func(pkg *Package, pos token.Pos, msg string) {
		byPkg[pkg.Path] = append(byPkg[pkg.Path], Diagnostic{Pos: pkg.position(pos), Pass: pass, Message: msg})
	}
	facts := collectGuardFacts(idx, report)
	var accesses []fgAccess
	for _, site := range heldSites(idx) {
		if sel, ok := site.node.(*ast.SelectorExpr); ok {
			accesses = append(accesses, checkAccess(facts, site, sel, report)...)
		}
	}
	inferGuards(accesses, report)
	return byPkg
}

// collectGuardFacts parses struct declarations for mutex fields and
// `guarded by` annotations. A guard naming a non-mutex or missing
// sibling is itself a finding: annotations must not rot.
func collectGuardFacts(idx *Index, report fgReport) *fgFacts {
	facts := &fgFacts{
		guards:  make(map[string]map[string]string),
		mutexes: make(map[string][]string),
	}
	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				key := pkg.Path + "." + ts.Name.Name
				type pending struct {
					fields []string
					guard  string
					pos    token.Pos
				}
				var anns []pending
				for _, field := range st.Fields.List {
					if isMutexType(pkg.Info.TypeOf(field.Type)) {
						for _, name := range field.Names {
							facts.mutexes[key] = append(facts.mutexes[key], name.Name)
						}
						continue
					}
					guard, pos := fieldGuardAnnotation(field)
					if guard == "" || len(field.Names) == 0 {
						continue
					}
					names := make([]string, 0, len(field.Names))
					for _, name := range field.Names {
						names = append(names, name.Name)
					}
					anns = append(anns, pending{fields: names, guard: guard, pos: pos})
				}
				for _, a := range anns {
					if !slices.Contains(facts.mutexes[key], a.guard) {
						report(pkg, a.pos, fmt.Sprintf("guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field of %s", a.guard, ts.Name.Name))
						continue
					}
					m := facts.guards[key]
					if m == nil {
						m = make(map[string]string)
						facts.guards[key] = m
					}
					for _, fn := range a.fields {
						m[fn] = a.guard
					}
				}
				return true
			})
		}
	}
	return facts
}

// fieldGuardAnnotation extracts the `guarded by <mu>` marker from a
// field's line or doc comment.
func fieldGuardAnnotation(field *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], field.Pos()
		}
	}
	return "", token.NoPos
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (through
// one pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// structKeyOf resolves an expression type to its named-struct key
// ("pkgpath.Type"), through one pointer.
func structKeyOf(t types.Type) (string, *types.Named, bool) {
	if t == nil {
		return "", nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return "", nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", nil, false
	}
	return obj.Pkg().Path() + "." + obj.Name(), named, true
}

// structField returns the directly declared (non-promoted) field, or
// nil.
func structField(named *types.Named, name string) *types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// receiverOf returns the receiver's name and struct key.
func receiverOf(pkg *Package, fd *ast.FuncDecl) (string, string, bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", "", false
	}
	name := fd.Recv.List[0].Names[0].Name
	key, _, ok := structKeyOf(pkg.Info.TypeOf(fd.Recv.List[0].Type))
	if !ok || name == "_" {
		return "", "", false
	}
	return name, key, true
}

// receiverMutexes lists the sync.Mutex/RWMutex fields of a method's
// receiver.
func receiverMutexes(pkg *Package, fd *ast.FuncDecl) []string {
	var out []string
	_, named, ok := structKeyOf(pkg.Info.TypeOf(fd.Recv.List[0].Type))
	if !ok {
		return nil
	}
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkAccess checks one field selection against the locks its path
// holds: an annotated field must have its guard held, and an access to a
// field of a single-mutex struct is recorded for majority inference.
func checkAccess(facts *fgFacts, site heldSite, sel *ast.SelectorExpr, report fgReport) []fgAccess {
	pkg := site.pkg
	key, named, ok := structKeyOf(pkg.Info.TypeOf(sel.X))
	if !ok {
		return nil
	}
	field := sel.Sel.Name
	base := types.ExprString(sel.X)
	lockOn := func(expr string) (heldLock, bool) {
		for _, l := range site.locks {
			if l.expr == expr {
				return l, true
			}
		}
		return heldLock{}, false
	}

	if guard := facts.guards[key][field]; guard != "" {
		want := base + "." + guard
		l, seen := lockOn(want)
		if seen && l.held() {
			return nil
		}
		typeName := key[strings.LastIndexByte(key, '.')+1:]
		msg := fmt.Sprintf("%s.%s accessed without holding %s (field %s of %s is guarded by %s)",
			base, field, want, field, typeName, guard)
		if seen {
			msg = fmt.Sprintf("%s.%s accessed after %s was unlocked at line %d (field %s of %s is guarded by %s)",
				base, field, want, pkg.position(l.released).Line, field, typeName, guard)
		}
		report(pkg, sel.Pos(), msg)
		return nil
	}

	// Majority inference: only fields of single-mutex structs, and only
	// outside constructors (which initialize before publication).
	if name := site.fd.Name.Name; strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
		return nil
	}
	muts := facts.mutexes[key]
	if len(muts) != 1 {
		return nil
	}
	fv := structField(named, field)
	if fv == nil || isMutexType(fv.Type()) {
		return nil
	}
	lockKey := base + "." + muts[0]
	l, seen := lockOn(lockKey)
	return []fgAccess{{
		pkg:       pkg,
		pos:       sel.Pos(),
		structKey: key,
		expr:      base + "." + field,
		lockExpr:  lockKey,
		held:      seen && l.held(),
	}}
}

// inferGuards applies the majority rule: a field of a single-mutex
// struct whose accesses hold the mutex at least 3/4 of the time (with
// at least 4 accesses seen) is treated as guarded, and the minority
// accesses are findings.
func inferGuards(accesses []fgAccess, report fgReport) {
	type group struct {
		total, held int
		minority    []fgAccess
	}
	// Key by struct+field via the access's struct key embedded in
	// lockExpr is not enough: group on the resolved struct field.
	groups := make(map[string]*group)
	for i := range accesses {
		a := &accesses[i]
		k := a.groupKey()
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.total++
		if a.held {
			g.held++
		} else {
			g.minority = append(g.minority, *a)
		}
	}
	for _, g := range groups {
		if g.total < 4 || g.held == g.total || g.held*4 < g.total*3 {
			continue
		}
		for _, a := range g.minority {
			report(a.pkg, a.pos, fmt.Sprintf("%s accessed without holding %s (inferred guard: %d of %d accesses hold it)",
				a.expr, a.lockExpr, g.held, g.total))
		}
	}
}

// groupKey identifies the struct field an access touches, independent
// of the base expression it was reached through.
func (a *fgAccess) groupKey() string {
	field := a.expr[strings.LastIndexByte(a.expr, '.')+1:]
	return a.structKey + "." + field
}
