// Package analysis is a small static-analysis framework plus the
// domain-aware passes that machine-check Malacology's safety
// invariants: epoch guards on object-store handlers, no locks held
// across blocking fabric calls, no silently dropped errors on
// consensus/storage paths, no sleep-as-synchronization, no daemon
// goroutines that can outlive their daemon, mutex-guarded struct
// fields only touched with their mutex held (fieldguard), goroutines
// with a real termination path (goleak), and safe channel lifecycles —
// no send-after-close, double-close, or spinning selects (chanlife).
// On top of the cross-package protocol passes (lockorder, rpcflow,
// retrysafe), a shared value-flow/ownership engine (valueflow.go)
// backs three aliasing passes: cowalias (copy-on-write stored state is
// never written in place or aliased to caller buffers), poolsafe
// (sync.Pool handle lifecycles), and sendshare (RPC buffers are not
// mutated after the send).
// The cmd/malacolint driver runs every pass over the repository;
// `make lint` wires it into the CI gate.
//
// Findings are suppressed — auditable, never silent — with a comment on
// the offending line or the line above:
//
//	//lint:ignore <pass> <reason>
//
// The reason is mandatory; a bare suppression is itself a finding, and
// so is one that no longer covers a finding of its pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding. Cross-package passes attach the witness
// path (call chain, lock acquisitions) as Related positions; the text
// renderer folds them into the message and the SARIF renderer emits
// them as relatedLocations.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
	Related []Related
}

// Related is one step of a finding's witness path.
type Related struct {
	Pos  token.Position
	Note string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Pass is one analyzer.
type Pass struct {
	Name string
	Doc  string
	// Help is the long-form rule description surfaced as the SARIF
	// fullDescription/help text; empty falls back to Doc.
	Help string
	// Scope restricts which packages the driver applies the pass to;
	// nil means every loaded package. Tests bypass it.
	Scope func(pkgPath string) bool
	Run   func(pkg *Package, idx *Index) []Diagnostic
}

// Passes returns every analyzer with its repository scope configured.
func Passes() []*Pass {
	return []*Pass{
		NewEpochGuard(),
		NewLockBlock(),
		NewErrDrop(),
		NewSleepSync(RepoSleepAllowlist()),
		NewCtxLeak(),
		NewFieldGuard(),
		NewGoLeak(),
		NewChanLife(),
		NewLockOrder(),
		NewRPCFlow(),
		NewRetrySafe(),
		NewCowAlias(),
		NewPoolSafe(),
		NewSendShare(),
	}
}

// Dedupe removes diagnostics identical in (position, pass, message).
// Whole-program passes attribute findings to the package that owns the
// file, but a shared witness (one cycle seen from several packages) can
// still surface twice; CI artifact diffs need exactly one copy. The
// input must already be sorted (ApplySuppressions output).
func Dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if p.Pos == d.Pos && p.Pass == d.Pass && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// inPackages builds a Scope matcher over exact import paths.
func inPackages(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(pkg string) bool { return set[pkg] }
}

// ---- whole-program index ----

// Index spans every loaded package, so passes can follow calls across
// package boundaries. Function declarations are keyed by
// types.Func.FullName(): a source-checked package and an export-data
// import produce distinct object identities for the same function, but
// identical full names.
type Index struct {
	Fset *token.FileSet
	Pkgs []*Package

	decls map[string]FuncDecl

	// Whole-program results that several passes read, each computed
	// once, on first use: the held-lock walk (flow.go) and the ownership
	// summaries (valueflow.go).
	heldOnce, effectsOnce sync.Once
	held                  []heldSite
	effects               map[string]*funcEffect
}

// FuncDecl pairs a declaration with its package.
type FuncDecl struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// NewIndex builds the cross-package index.
func NewIndex(pkgs []*Package) *Index {
	idx := &Index{decls: make(map[string]FuncDecl)}
	if len(pkgs) > 0 {
		idx.Fset = pkgs[0].Fset
	}
	idx.Pkgs = pkgs
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.decls[fn.FullName()] = FuncDecl{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	return idx
}

// DeclOf resolves a function object to its declaration, if the function
// is declared in one of the loaded packages.
func (idx *Index) DeclOf(fn *types.Func) (FuncDecl, bool) {
	fd, ok := idx.decls[fn.FullName()]
	return fd, ok
}

// Callee resolves the static callee of a call expression, or nil for
// calls through function values, method values, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (time.Sleep).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "error" && obj.Pkg() == nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// position is a small helper: the token.Position of pos in pkg's fset.
func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// ---- suppressions ----

const ignorePrefix = "//lint:ignore"

// suppression covers pass diagnostics on a (file, line).
type suppression struct {
	file string
	line int
	pass string
}

// Waiver is one well-formed //lint:ignore marker: the audited record
// of a finding deliberately accepted. The waiver budget test and the
// driver's -waivers mode enumerate these.
type Waiver struct {
	Pos    token.Position
	Pass   string
	Reason string
}

// parseMarkers scans a package's comments for //lint:ignore markers,
// returning the well-formed waivers and a diagnostic for each
// malformed marker — missing pass or missing reason — so a suppression
// can never silently rot into a blanket waiver.
func parseMarkers(pkg *Package) ([]Waiver, []Diagnostic) {
	var waivers []Waiver
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := pkg.position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Pass:    "lint",
						Message: "malformed suppression: want //lint:ignore <pass> <reason>",
					})
					continue
				}
				waivers = append(waivers, Waiver{
					Pos:    pos,
					Pass:   fields[0],
					Reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return waivers, bad
}

// Waivers returns every well-formed //lint:ignore marker in the loaded
// packages, sorted by position.
func Waivers(pkgs []*Package) []Waiver {
	var out []Waiver
	for _, pkg := range pkgs {
		w, _ := parseMarkers(pkg)
		out = append(out, w...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// ApplySuppressions filters out diagnostics covered by a lint:ignore
// marker and returns the result sorted by position, with a lint
// diagnostic added for each malformed marker and for each dead one: a
// marker of a pass in ran that covers no finding of that pass. A marker
// covers its own line (trailing comment) and the line below it
// (standalone comment).
func ApplySuppressions(pkgs []*Package, diags []Diagnostic, ran ...*Pass) []Diagnostic {
	var (
		waivers []Waiver
		out     []Diagnostic
	)
	for _, pkg := range pkgs {
		w, bad := parseMarkers(pkg)
		waivers = append(waivers, w...)
		out = append(out, bad...)
	}
	covered := make(map[suppression]bool) // value: some finding used the cover
	for _, w := range waivers {
		for _, line := range []int{w.Pos.Line, w.Pos.Line + 1} {
			covered[suppression{file: w.Pos.Filename, line: line, pass: w.Pass}] = false
		}
	}
	for _, d := range diags {
		k := suppression{file: d.Pos.Filename, line: d.Pos.Line, pass: d.Pass}
		if _, ok := covered[k]; ok {
			covered[k] = true
			continue
		}
		out = append(out, d)
	}
	checked := make(map[string]bool, len(ran))
	for _, p := range ran {
		checked[p.Name] = true
	}
	for _, w := range waivers {
		own := suppression{file: w.Pos.Filename, line: w.Pos.Line, pass: w.Pass}
		next := own
		next.line++
		if checked[w.Pass] && !covered[own] && !covered[next] {
			out = append(out, Diagnostic{
				Pos:     w.Pos,
				Pass:    "lint",
				Message: fmt.Sprintf("dead suppression: no %s finding on this line or the next", w.Pass),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return out
}
