package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: each pass gets a package under testdata/src/
// annotated with `// want "substring"` comments. A pass must produce
// exactly the findings the wants describe — same file, same line,
// message containing the substring — after suppressions are applied.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "..", "..")
}

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkg, err := LoadDir(moduleRoot(t), filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func runFixture(t *testing.T, pass *Pass, dir string) {
	t.Helper()
	pkg := loadFixture(t, dir)
	idx := NewIndex([]*Package{pkg})
	diags := ApplySuppressions([]*Package{pkg}, pass.Run(pkg, idx), pass)

	type key struct {
		file string
		line int
	}
	wants := make(map[key]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRe.FindStringSubmatch(c.Text); m != nil {
					pos := pkg.position(c.Pos())
					wants[key{pos.Filename, pos.Line}] = m[1]
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}

	seen := make(map[key]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic at %s:%d is %q, want substring %q", k.file, k.line, d.Message, want)
		}
		seen[k] = true
	}
	for k, want := range wants {
		if !seen[k] {
			t.Errorf("missing diagnostic at %s:%d (want %q)", k.file, k.line, want)
		}
	}
}

func TestEpochGuard(t *testing.T) { runFixture(t, NewEpochGuard(), "epochguard") }

func TestLockBlock(t *testing.T) { runFixture(t, NewLockBlock(), "lockblock") }

func TestErrDrop(t *testing.T) { runFixture(t, NewErrDrop(), "errdrop") }

func TestSleepSync(t *testing.T) {
	allow := []SleepAllowance{{PkgSuffix: "sleepsync", Func: "simulatedLatency"}}
	runFixture(t, NewSleepSync(allow), "sleepsync")
}

func TestCtxLeak(t *testing.T) { runFixture(t, NewCtxLeak(), "ctxleak") }

func TestFieldGuard(t *testing.T) { runFixture(t, NewFieldGuard(), "fieldguard") }

func TestGoLeak(t *testing.T) { runFixture(t, NewGoLeak(), "goleak") }

func TestChanLife(t *testing.T) { runFixture(t, NewChanLife(), "chanlife") }

func TestLockOrder(t *testing.T) { runFixture(t, NewLockOrder(), "lockorder") }

func TestRPCFlow(t *testing.T) { runFixture(t, NewRPCFlow(), "rpcflow") }

func TestRetrySafe(t *testing.T) { runFixture(t, NewRetrySafe(), "retrysafe") }

func TestCowAlias(t *testing.T) { runFixture(t, NewCowAlias(), "cowalias") }

func TestPoolSafe(t *testing.T) { runFixture(t, NewPoolSafe(), "poolsafe") }

func TestSendShare(t *testing.T) { runFixture(t, NewSendShare(), "sendshare") }

// TestCowAliasWitnessChain pins the ownership witness: the
// alias-then-mutate finding must carry the read site (where the stored
// alias was taken) as a related position, so the SARIF output shows
// alloc/read → alias → mutation, not just the final write.
func TestCowAliasWitnessChain(t *testing.T) {
	pkg := loadFixture(t, "cowalias")
	idx := NewIndex([]*Package{pkg})
	diags := NewCowAlias().Run(pkg, idx)
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "element write") || len(d.Related) == 0 {
			continue
		}
		for _, r := range d.Related {
			if strings.Contains(r.Note, "copy-on-write state") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no element-write finding carries the copy-on-write read site in its witness chain: %v", diags)
	}
}

// TestLockOrderWitnessIsMultiHop pins the shape of the cycle report:
// the reverse edge of the fixture's cycle is taken through two call
// hops, and the witness chain in the message must spell those hops
// out (the whole point of cross-function propagation).
func TestLockOrderWitnessIsMultiHop(t *testing.T) {
	pkg := loadFixture(t, "lockorder")
	idx := NewIndex([]*Package{pkg})
	diags := NewLockOrder().Run(pkg, idx)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	msg := diags[0].Message
	for _, hop := range []string{"debitViaHelper", "debit"} {
		if !strings.Contains(msg, hop) {
			t.Errorf("cycle message lacks call hop %q: %s", hop, msg)
		}
	}
	if len(diags[0].Related) == 0 {
		t.Error("cycle diagnostic has no related positions")
	}
}

// TestLockBlockWitnessIsMultiHop pins the same property for the
// lock-held-across-hops report: the chain must name the intermediate
// helper between the held lock and the wire Call, in the message and as
// related positions.
func TestLockBlockWitnessIsMultiHop(t *testing.T) {
	pkg := loadFixture(t, "lockblock")
	idx := NewIndex([]*Package{pkg})
	for _, d := range NewLockBlock().Run(pkg, idx) {
		if !strings.Contains(d.Message, "call to (*lockblock.server).sync") {
			continue
		}
		for _, hop := range []string{"sync", "push", "Call"} {
			if !strings.Contains(d.Message, hop) {
				t.Errorf("witness chain lacks hop %q: %s", hop, d.Message)
			}
		}
		if len(d.Related) != 3 {
			t.Errorf("witness has %d related positions, want 3 (sync, push, Call): %v", len(d.Related), d.Related)
		}
		return
	}
	t.Fatal("no held-across-call diagnostic for sync produced")
}

// statementWalkers lists, as "file:function", the non-test functions of
// internal/analysis that switch over a statement's kind with an
// *ast.IfStmt arm: the signature of a statement walker.
func statementWalkers(t *testing.T) []string {
	t.Helper()
	pkgs, err := Load(moduleRoot(t), []string{"./internal/analysis"})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				walker := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSwitchStmt)
					if !ok {
						return true
					}
					var assert ast.Expr
					switch a := ts.Assign.(type) {
					case *ast.AssignStmt:
						assert = a.Rhs[0]
					case *ast.ExprStmt:
						assert = a.X
					}
					if t := pkg.Info.TypeOf(assert.(*ast.TypeAssertExpr).X); t == nil || t.String() != "go/ast.Stmt" {
						return true
					}
					for _, c := range ts.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							walker = walker || types.ExprString(e) == "*ast.IfStmt"
						}
					}
					return true
				})
				if walker {
					out = append(out, filepath.Base(pkg.position(fd.Pos()).Filename)+":"+fd.Name.Name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestOneStatementWalker pins one statement walker under the
// flow-sensitive passes: a pass that needs control flow gives flow.go's
// walker a state and hooks instead of cloning branches itself. The only
// other statement switch with an if arm is valueflow.go's origin scan,
// a depth-join summary scanner rather than a branch-cloning walker.
func TestOneStatementWalker(t *testing.T) {
	if got, want := statementWalkers(t), []string{"flow.go:walkStmt", "valueflow.go:scanStmt"}; !slices.Equal(got, want) {
		t.Errorf("statement walkers = %v, want %v", got, want)
	}
}

// TestMalformedSuppression: a reason-less marker suppresses nothing and
// is itself reported, and so is a marker that covers no finding of its
// pass, so suppressions cannot silently rot.
func TestMalformedSuppression(t *testing.T) {
	pkg := loadFixture(t, "lintbad")
	idx := NewIndex([]*Package{pkg})
	pass := NewErrDrop()
	diags := ApplySuppressions([]*Package{pkg}, pass.Run(pkg, idx), pass)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 (malformed marker + undropped finding + dead marker): %v", len(diags), diags)
	}
	if diags[0].Pass != "lint" || !strings.Contains(diags[0].Message, "malformed suppression") {
		t.Errorf("first diagnostic = %s, want a lint malformed-suppression report", diags[0])
	}
	if diags[1].Pass != "errdrop" {
		t.Errorf("second diagnostic = %s, want the unsuppressed errdrop finding", diags[1])
	}
	if diags[2].Pass != "lint" || !strings.Contains(diags[2].Message, "dead suppression: no errdrop finding") {
		t.Errorf("third diagnostic = %s, want a lint dead-suppression report", diags[2])
	}
	// A marker is judged only against a pass that ran.
	if got := ApplySuppressions([]*Package{pkg}, nil); len(got) != 1 {
		t.Errorf("with no pass run, got %v, want only the malformed marker", got)
	}
}

// TestLoadSelf loads this package through the production loader: the
// driver's own plumbing must typecheck real module packages.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/analysis"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/analysis" {
		t.Fatalf("got %v, want exactly repro/internal/analysis", pkgs)
	}
	if len(pkgs[0].Files) == 0 || pkgs[0].Pkg == nil {
		t.Fatal("loaded package has no files or types")
	}
}

// TestRepoIsClean runs every pass over the whole repository exactly as
// the driver does: the tree must stay lint-clean, with all waivers
// recorded as reasoned suppressions.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is not short")
	}
	pkgs := rootPackages(t)
	idx := NewIndex(pkgs)
	var diags []Diagnostic
	for _, pass := range Passes() {
		for _, pkg := range pkgs {
			if pass.Scope != nil && !pass.Scope(pkg.Path) {
				continue
			}
			diags = append(diags, pass.Run(pkg, idx)...)
		}
	}
	for _, d := range ApplySuppressions(pkgs, diags, Passes()...) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

// TestEveryOptionHasACaller requires every exported field of every
// non-test struct type named *Config or *Options, in the module and in
// bench/, to be set by non-test code other than its own defaults: a
// knob nothing sets is dead surface whose zero value has only ever
// meant the default. A set is a composite-literal key (a positional
// literal sets every field) or an assignment to the field; an
// assignment in the body of an if whose condition reads the same field
// (`if c.X <= 0 { c.X = d }`) is a default and does not count. A knob
// only tests set is allowlisted with the test that sets it.
func TestEveryOptionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is not short")
	}
	testOnly := map[string]string{ // field -> a test that sets it
		"repro/internal/core.Options.NetJitter":             "TestAppendsUnderNetworkJitter",
		"repro/internal/mon.Config.BeaconTimeout":           "TestBeaconTimeoutMarksDown",
		"repro/internal/rados.OSDConfig.BeaconInterval":     "TestBeaconTimeoutMarksDown",
		"repro/internal/rados.OSDConfig.ReplicaWaitTimeout": "TestTxnForwardsApplyInVersionOrder",
		"repro/internal/wal.Options.SegmentSize":            "TestSegmentRotation",
	}
	pkgs := repoPackages(t)
	knobs := make(map[string]string) // field key -> declaration position
	set := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for key, pos := range optionFields(pkg, f) {
				knobs[key] = pos
			}
			for _, key := range fieldSets(pkg.Info, f) {
				set[key] = true
			}
		}
	}
	keys := make([]string, 0, len(knobs))
	for key := range knobs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !set[key] && testOnly[key] == "" {
			t.Errorf("%s: %s is set by no caller but its defaults: delete it or make it a constant", knobs[key], key)
		}
	}
	for key, test := range testOnly {
		switch {
		case knobs[key] == "":
			t.Errorf("allowlisted %s (%s) no longer exists", key, test)
		case set[key]:
			t.Errorf("allowlisted %s is now set outside tests: drop it from the allowlist", key)
		}
	}
}

// optionFields maps "pkgpath.Type.Field" to its position for every
// exported field of every struct type in f named *Config or *Options.
func optionFields(pkg *Package, f *ast.File) map[string]string {
	out := make(map[string]string)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						key := pkg.Path + "." + ts.Name.Name + "." + name.Name
						out[key] = pkg.Fset.Position(name.Pos()).String()
					}
				}
			}
		}
	}
	return out
}

// fieldSets lists the key of every struct field f sets outside a
// default (see TestEveryOptionHasACaller).
func fieldSets(info *types.Info, f *ast.File) []string {
	defaults := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		is, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		tested := make(map[string]bool)
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if key, ok := selectedField(info, sel); ok {
					tested[key] = true
				}
			}
			return true
		})
		for _, stmt := range is.Body.List {
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if key, ok := selectedField(info, sel); ok && tested[key] {
							defaults[lhs] = true
						}
					}
				}
			}
		}
		return true
	})
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaults[lhs] {
					if key, ok := selectedField(info, sel); ok {
						out = append(out, key)
					}
				}
			}
		case *ast.CompositeLit:
			named, st := namedStruct(info.TypeOf(n))
			if st == nil {
				return true
			}
			prefix := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "."
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						out = append(out, prefix+id.Name)
					}
				} else if i < st.NumFields() {
					out = append(out, prefix+st.Field(i).Name())
				}
			}
		}
		return true
	})
	return out
}

// selectedField names the field sel selects as "pkgpath.Type.Field",
// resolving a promoted field to the struct that declares it.
func selectedField(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	t := s.Recv()
	path := s.Index()
	for _, i := range path[:len(path)-1] {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		t = st.Field(i).Type()
	}
	named, _ := namedStruct(t)
	if named == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + s.Obj().Name(), true
}

// namedStruct returns t (or what it points to) as a named struct type.
func namedStruct(t types.Type) (*types.Named, *types.Struct) {
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named.Origin(), st
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// repoLoad is one lazily built type-checked load of a module's
// packages, shared by every guard test that reads the whole tree, so
// the package pays for each load once rather than once per test.
type repoLoad struct {
	once sync.Once
	pkgs []*Package
	err  error
}

var rootLoad, benchLoad repoLoad

func (l *repoLoad) get(t *testing.T, dir string) []*Package {
	t.Helper()
	l.once.Do(func() { l.pkgs, l.err = Load(dir, []string{"./..."}) })
	if l.err != nil {
		t.Fatal(l.err)
	}
	return l.pkgs
}

// rootPackages is every non-test package of the root module.
func rootPackages(t *testing.T) []*Package {
	return rootLoad.get(t, moduleRoot(t))
}

// repoPackages is rootPackages plus the nested bench/ module's.
func repoPackages(t *testing.T) []*Package {
	root := rootPackages(t)
	bench := benchLoad.get(t, filepath.Join(moduleRoot(t), "bench"))
	return append(slices.Clip(root), bench...)
}

// exportAllowlist holds the exports only tests call that stay: each
// names a test that calls it, the paper section or Table 2 row it
// embodies, or both.
var exportAllowlist = map[string]string{
	// The Table 2 facade: the raw metadata client beside Rados and Mon,
	// and two interface rows no example happens to use.
	"(*repro/internal/core.Malacology).MDS":                 "Table 2 facade, Shared Resource row (§4.3.1): the raw metadata client",
	"(*repro/internal/core.Malacology).SetCapPolicy":        "Table 2, Shared Resource row (§4.3.1): TestFacadeEndToEnd",
	"(*repro/internal/core.Malacology).StoreBalancerPolicy": "Table 2, Load Balancing row (§4.3.3): TestFacadeEndToEnd",
	// The object interface: xattrs, omap, exclusive create.
	"(*repro/internal/rados.Client).GetXattr": "object interface, xattrs: TestXattrs",
	"(*repro/internal/rados.Client).SetXattr": "object interface, xattrs: TestXattrs",
	"(*repro/internal/rados.Client).OmapDel":  "object interface, omap: TestOmapOperations",
	"(*repro/internal/rados.Client).Create":   "object interface, exclusive create (the only issuer of OpCreate): TestCreateExclusive",
	// The monitor's service-metadata, class and pool ops.
	"(*repro/internal/mon.Client).DelService":  "§4.1 Service Metadata: TestServiceDelete",
	"(*repro/internal/mon.Client).RemoveClass": "§4.2 Data I/O, class lifecycle: TestClassRemove",
	"(*repro/internal/mon.Client).ResizePool":  "§4.4 PG splitting: TestPGSplitPreservesData",
	// The Mantle policies of the paper's proxy- and client-mode runs.
	"repro/internal/mantle.PolicyHalfToNext": "§6.2.2 Proxy Mode (Half): TestPaperSnippetSemantics",
	"repro/internal/mantle.PolicyAllToNext":  "§6.2.2 Proxy Mode (Full): TestVersionChangeSwapsPolicy",
	"repro/internal/mantle.PolicyClientHalf": "§6.2.2 client mode: TestConcurrentDecides",
	// The §7 services built from the composed interfaces.
	"(*repro/internal/kvdb.DB).Delete":                  "§7 key-value service: TestPutGetDelete",
	"(*repro/internal/kvdb.DB).GetStale":                "§7 key-value service, stale reads: TestElasticAttach",
	"(*repro/internal/kvdb.DB).Recover":                 "§7 key-value service: TestSurvivesSequencerRecovery",
	"repro/internal/layout.New":                         "§7 file-layout service: TestRoundTripSizes",
	"(*repro/internal/layout.Manager).Write":            "§7 file-layout service: TestRoundTripSizes",
	"(*repro/internal/layout.Manager).Read":             "§7 file-layout service: TestRoundTripSizes",
	"(*repro/internal/layout.Manager).Stat":             "§7 file-layout service: TestRoundTripSizes",
	"(*repro/internal/layout.Manager).Remove":           "§7 file-layout service: TestRemove",
	"(*repro/internal/layout.Manager).SetDefaultPolicy": "§7 file-layout service: TestDefaultPolicyFromServiceMetadata",
	"(*repro/internal/layout.Manager).SetPolicy":        "§7 file-layout service: TestPerBlobOverride",
	"repro/internal/query.OpenTable":                    "§7 query service: TestSelectPushdown",
	"(*repro/internal/query.Table).Insert":              "§7 query service: TestUpsertOverwrites",
	"(*repro/internal/query.Table).Select":              "§7 query service: TestSelectPushdown",
	"(*repro/internal/query.Table).Aggregate":           "§7 query service: TestAggregates",
	"(*repro/internal/query.Table).FetchAll":            "§7 query service: TestPushdownMatchesClientScan",
	// The script sandbox bounds, which hosts leave at their defaults.
	"repro/internal/script.WithBudget":   "TestBudgetKillsInfiniteLoop",
	"repro/internal/script.WithMaxDepth": "TestDepthLimit",
	"repro/internal/script.WithStdout":   "TestPrintGoesToStdout",
	// The golden-fixture loader.
	"repro/internal/analysis.LoadDir": "TestEpochGuard (through loadFixture, as every fixture test)",
}

// TestEveryExportHasACaller requires every exported package-level
// func, method, const, var and type in the module and in bench/ to be
// referenced by non-test code outside its own declaration: an export
// only its own tests call is dead surface. A method is exempt when its
// receiver implements an interface declaring it (it is called through
// the interface), and so is every member of an enumeration: a const
// block numbered by iota or typed by one named type, whose members
// deleting one would renumber or narrow. What stays although only
// tests call it is allowlisted in exportAllowlist.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is not short")
	}
	exports, called := repoCensus(t)
	for _, key := range sortedKeys(exports) {
		if !called[key] && exportAllowlist[key] == "" {
			t.Errorf("%s: %s has no non-test caller: delete it, or allowlist it with the test or paper section it serves", exports[key], key)
		}
	}
	for _, msg := range staleAllowlist(exportAllowlist, exports, called, repoTests(t)) {
		t.Error(msg)
	}
}

// TestExportAllowlistGoesStale checks the allowlist check itself: an
// entry for an export that gained a non-test caller, for one that no
// longer exists, naming no reason, or naming a test no test file
// declares, is reported; a live entry is not.
func TestExportAllowlistGoesStale(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is not short")
	}
	exports, called := repoCensus(t)
	allow := map[string]string{
		"repro/internal/core.Boot":                "TestBootDefaults",
		"(*repro/internal/mds.Client).List":       "TestRoundTripSequencer",
		"(*repro/internal/rados.Client).Create":   "TestCreateSomethingElse",
		"(*repro/internal/rados.Client).OmapDel":  "the omap interface",
		"(*repro/internal/mon.Client).DelService": exportAllowlist["(*repro/internal/mon.Client).DelService"],
	}
	got := staleAllowlist(allow, exports, called, repoTests(t))
	want := []string{
		"allowlisted (*repro/internal/mds.Client).List (TestRoundTripSequencer) no longer exists",
		"allowlisted (*repro/internal/rados.Client).Create names TestCreateSomethingElse, which no test file declares",
		"allowlisted (*repro/internal/rados.Client).OmapDel names neither a test nor a paper section",
		"allowlisted repro/internal/core.Boot now has a non-test caller: drop it from the allowlist",
	}
	if !slices.Equal(got, want) {
		t.Errorf("stale entries reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// census is the export census of repoPackages, taken once.
var census struct {
	once    sync.Once
	exports map[string]string
	called  map[string]bool
}

func repoCensus(t *testing.T) (exports map[string]string, called map[string]bool) {
	pkgs := repoPackages(t)
	census.once.Do(func() { census.exports, census.called = exportCensus(pkgs) })
	return census.exports, census.called
}

var testNameRe = regexp.MustCompile(`\bTest\w+`)

// staleAllowlist reports each allowlist entry that names no export, one
// that non-test code now calls, one that names neither a test nor a
// paper section, and one that names a test the repository does not
// have.
func staleAllowlist(allow, exports map[string]string, called map[string]bool, tests map[string]bool) []string {
	var out []string
	for _, key := range sortedKeys(allow) {
		switch {
		case exports[key] == "":
			out = append(out, fmt.Sprintf("allowlisted %s (%s) no longer exists", key, allow[key]))
		case called[key]:
			out = append(out, fmt.Sprintf("allowlisted %s now has a non-test caller: drop it from the allowlist", key))
		}
		names := testNameRe.FindAllString(allow[key], -1)
		if len(names) == 0 && !strings.Contains(allow[key], "§") && !strings.Contains(allow[key], "Table 2") {
			out = append(out, fmt.Sprintf("allowlisted %s names neither a test nor a paper section", key))
		}
		for _, name := range names {
			if !tests[name] {
				out = append(out, fmt.Sprintf("allowlisted %s names %s, which no test file declares", key, name))
			}
		}
	}
	return out
}

var testFuncRe = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// repoTests is the set of test function names the module's _test.go
// files declare, bench/ included.
func repoTests(t *testing.T) map[string]bool {
	t.Helper()
	tests := make(map[string]bool)
	err := filepath.WalkDir(moduleRoot(t), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

// exportDecl is one export the census found: its package, where it is
// declared, and the span of its declaration, inside which a reference
// is not a caller.
type exportDecl struct {
	pkg, pos string
	lo, hi   token.Pos
	recv     string // a method's receiver type name; "" for the rest
	name     string
}

// exportCensus maps each export of pkgs (keyed like types.Func.FullName:
// "pkg.F", "(*pkg.T).M", "pkg.V") to its declaration position, and
// reports which are referenced from outside their own declaration.
// Methods that implement an interface and members of enumerations are
// not listed. Callers are matched by name, not by object: a package
// sees its imports through export data, so the callee it references is
// a different object from the one its declaring package checked.
func exportCensus(pkgs []*Package) (exports map[string]string, called map[string]bool) {
	decls := make(map[string]exportDecl)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for key, d := range exportDecls(pkg, f) {
				decls[key] = d
			}
		}
	}
	called = make(map[string]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			key := objectKey(obj)
			d, ok := decls[key]
			if !ok || d.pkg == pkg.Path && id.Pos() >= d.lo && id.Pos() < d.hi {
				continue
			}
			called[key] = true
		}
	}
	implemented := interfaceMethods(pkgs, decls, called)
	exports = make(map[string]string)
	for key, d := range decls {
		if !implemented[key] {
			exports[key] = d.pos
		}
	}
	return exports, called
}

// exportDecls lists the exports f declares.
func exportDecls(pkg *Package, f *ast.File) map[string]exportDecl {
	out := make(map[string]exportDecl)
	add := func(id *ast.Ident, decl ast.Node, recv string) {
		out[objectKey(pkg.Info.Defs[id])] = exportDecl{
			pkg: pkg.Path, pos: pkg.Fset.Position(id.Pos()).String(),
			lo: decl.Pos(), hi: decl.End(), recv: recv, name: id.Name,
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			recv := ""
			if r := pkg.Info.Defs[decl.Name].Type().(*types.Signature).Recv(); r != nil {
				if named, ok := derefType(r.Type()).(*types.Named); ok {
					recv = named.Obj().Name()
				}
			}
			add(decl.Name, decl, recv)
		case *ast.GenDecl:
			if decl.Tok == token.IMPORT || decl.Tok == token.CONST && enumerates(pkg.Info, decl) {
				continue
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(id, spec, "")
						}
					}
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(spec.Name, spec, "")
					}
				}
			}
		}
	}
	return out
}

// enumerates reports whether a const block is an enumeration: it
// numbers its members with iota, or they all share one named type.
// Deleting one member of an enumeration renumbers or narrows the rest.
func enumerates(info *types.Info, gd *ast.GenDecl) bool {
	iota := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			iota = true
		}
		return !iota
	})
	if iota {
		return true
	}
	var typ types.Type
	for _, spec := range gd.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			t := info.Defs[id].Type()
			if _, ok := t.(*types.Named); !ok || typ != nil && !types.Identical(t, typ) {
				return false
			}
			typ = t
		}
	}
	return len(gd.Specs) > 1
}

// objectKey names a package-level object or method across packages:
// types.Func.FullName of the generic origin for a func or method,
// "pkgpath.Name" for a package-level const, var or type; "" otherwise.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethods reports which uncalled methods implement a method of
// an interface: error, fmt.Stringer, or an interface type a loaded
// package declares or uses. Each package is checked in its own view of
// the types (a type and an interface from two packages are identical
// only as one importer saw them), against the receiver types and
// interfaces of the loaded packages it imports.
func interfaceMethods(pkgs []*Package, decls map[string]exportDecl, called map[string]bool) map[string]bool {
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
	}, nil).Complete()
	loaded := make(map[string]bool)
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	out := make(map[string]bool)
	for _, pkg := range pkgs {
		visible := map[string]*types.Package{pkg.Path: pkg.Pkg}
		var walk func(p *types.Package)
		walk = func(p *types.Package) {
			for _, imp := range p.Imports() {
				if visible[imp.Path()] == nil && loaded[imp.Path()] {
					visible[imp.Path()] = imp
					walk(imp)
				}
			}
		}
		walk(pkg.Pkg)
		ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
		seen := make(map[*types.Interface]bool)
		addIface := func(t types.Type) {
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
				seen[it] = true
				ifaces = append(ifaces, it)
			}
		}
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, p := range visible {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for key, d := range decls {
			if d.recv == "" || called[key] || out[key] || visible[d.pkg] == nil {
				continue
			}
			tn, ok := visible[d.pkg].Scope().Lookup(d.recv).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			// *T's method set holds T's, so *T implements whatever T does.
			for _, it := range ifaces {
				if declaresMethod(it, d.name) && types.Implements(types.NewPointer(named), it) {
					out[key] = true
					break
				}
			}
		}
	}
	return out
}

func declaresMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// TestWaiverBudget pins the repository-wide waiver count: adding a
// //lint:ignore marker anywhere means deliberately updating these
// numbers in the same change, so the audited-exception budget can only
// grow in review, never by accident. Every marker must also cite a
// real analyzer, or it suppresses nothing and rots silently.
func TestWaiverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is not short")
	}
	const (
		internalBudget = 7 // waivers in internal/ and cmd/
		exampleBudget  = 4 // waivers in examples/ (sleep-paced demo loops)
	)
	pkgs := rootPackages(t)
	known := make(map[string]bool)
	for _, p := range Passes() {
		known[p.Name] = true
	}
	// Per-pass caps: a new waiver must fit its analyzer's cap, so a pass
	// that is clean today (every pass not listed, cap zero) stays clean
	// unless this table changes in review. The three protocol passes
	// (lockorder, rpcflow, retrysafe) are deliberately capped at zero:
	// their findings are fixed, never waived.
	// The ownership passes (cowalias, poolsafe, sendshare) are pinned
	// at zero explicitly, like the protocol passes: an aliasing finding
	// is fixed with a clone or a lifecycle change, never waived.
	perPassBudget := map[string]int{
		"errdrop":   7,
		"lockblock": 0,
		"sleepsync": 4,
		"cowalias":  0,
		"poolsafe":  0,
		"sendshare": 0,
	}
	byPass := make(map[string]int)
	var internalN, exampleN int
	for _, w := range Waivers(pkgs) {
		if !known[w.Pass] {
			t.Errorf("%s:%d: waiver cites unknown analyzer %q (use -list)", w.Pos.Filename, w.Pos.Line, w.Pass)
		}
		byPass[w.Pass]++
		if strings.Contains(filepath.ToSlash(w.Pos.Filename), "/examples/") {
			exampleN++
		} else {
			internalN++
		}
	}
	if internalN != internalBudget {
		t.Errorf("internal waiver count = %d, budget %d: adding or removing a //lint:ignore means updating this budget deliberately (run malacolint -waivers for the list)", internalN, internalBudget)
	}
	if exampleN != exampleBudget {
		t.Errorf("examples waiver count = %d, budget %d (run malacolint -waivers for the list)", exampleN, exampleBudget)
	}
	for _, p := range Passes() {
		if byPass[p.Name] != perPassBudget[p.Name] {
			t.Errorf("pass %s waiver count = %d, cap %d (run malacolint -waivers for the list)", p.Name, byPass[p.Name], perPassBudget[p.Name])
		}
	}
}

// TestNoLockblockWaiversInRados pins the replication-pipeline invariant:
// internal/rados must satisfy the lock-across-RPC analyzer outright,
// with zero lockblock suppressions. (The pre-pipeline write path held
// the PG lock across replica round-trips under two waivers; the
// pipelined engine made the waivers unnecessary and they must never
// come back.)
func TestNoLockblockWaiversInRados(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/rados"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Waivers(pkgs) {
		if w.Pass == "lockblock" {
			t.Errorf("%s:%d: lockblock waiver found in internal/rados; the pipelined write path must hold no lock across RPCs", w.Pos.Filename, w.Pos.Line)
		}
	}
}

// TestOneCommitSitePerRole pins the OSD's one mutation pipeline: the
// journal commit an answer waits on is called from exactly three
// functions in internal/rados, once each: the primary step, the replica
// step, and a replica's acceptance of a witness copy, which journals the
// record before it accepts. A change to when the journal commits
// relative to the fan-out is then made once per role. commitBackground,
// which commits backfill, split and witness drops and logs a failure
// rather than answering with it, is not counted.
func TestOneCommitSitePerRole(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/rados"})
	if err != nil {
		t.Fatal(err)
	}
	const commit = "(*repro/internal/rados.OSD).commitDurable"
	sites := make(map[string]int) // calling function -> call sites in it
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if fn := Callee(pkg.Info, call); fn != nil && fn.FullName() == commit {
							sites[fd.Name.Name]++
						}
					}
					return true
				})
			}
		}
	}
	if want := map[string]int{"primaryStep": 1, "replicaStep": 1, "acceptWitness": 1}; !reflect.DeepEqual(sites, want) {
		t.Errorf("commitDurable call sites by function = %v, want %v", sites, want)
	}
}

// TestOneOpSwitchInRados pins the OSD's one op table: what an op is
// (name, class, journal kind, write-set, block-read handler) is a row of
// opSpecs, so the only switch on an OpCode left in internal/rados is
// applyOp's, the one place that does each op's work.
func TestOneOpSwitchInRados(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/rados"})
	if err != nil {
		t.Fatal(err)
	}
	const opCode = "repro/internal/rados.OpCode"
	switches := make(map[string]int) // containing function -> switches on an OpCode
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
						if tv := pkg.Info.TypeOf(sw.Tag); tv != nil && tv.String() == opCode {
							switches[fd.Name.Name]++
						}
					}
					return true
				})
			}
		}
	}
	if want := map[string]int{"applyOp": 1}; !reflect.DeepEqual(switches, want) {
		t.Errorf("switches on %s by function = %v, want %v", opCode, switches, want)
	}
}

// declaredOp is one row of the OSD op table as its AST reads: the name of
// the class it declares ("" for none), and whether it has a readBatch.
type declaredOp struct {
	class     string
	readBatch bool
}

// declaredOps reads the OSD op table's rows from the loaded AST of
// opSpecs, keyed by op constant name.
func declaredOps(t *testing.T, pkgs []*Package) map[string]declaredOp {
	t.Helper()
	var lit *ast.CompositeLit
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "opSpecs" && len(vs.Values) == 1 {
					lit, _ = vs.Values[0].(*ast.CompositeLit)
				}
				return lit == nil
			})
		}
	}
	if lit == nil {
		t.Fatal("no opSpecs literal in internal/rados")
	}
	out := make(map[string]declaredOp)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			t.Fatalf("opSpecs row %s has no OpCode key", types.ExprString(elt))
		}
		row, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			t.Fatalf("opSpecs row %s is not a literal", types.ExprString(kv.Key))
		}
		var d declaredOp
		for _, field := range row.Elts {
			fkv, ok := field.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			switch types.ExprString(fkv.Key) {
			case "class":
				d.class = types.ExprString(fkv.Value)
			case "readBatch":
				d.readBatch = true
			}
		}
		out[types.ExprString(kv.Key)] = d
	}
	return out
}

// opTableDisagreements compares each op's declared table class with
// retrysafe's pre-upgrade class of its applyOp arm (facts). Where there
// is an arm, a declared read, overwrite or versioned op must classify as
// exactly that, and an op is declared replay-guarded exactly when its
// arm classifies as read-modify-write or delegation: the pass upgrades
// those through the replay gate, which the table opens for every class
// but read. An op with no arm gives the pass nothing to classify. A
// block read, answered by its row's readBatch, must be declared read or
// replay-guarded. Any other op with no arm (a class call) must be
// declared replay-guarded: nothing in the table shows it leaves the
// object alone, so a resend must meet the replay gate.
func opTableDisagreements(declared map[string]declaredOp, facts map[string]opFact) []string {
	admits := map[string][]opClass{
		"classRead":          {classRead},
		"classOverwrite":     {classOverwrite},
		"classVersioned":     {classVersioned},
		"classReplayGuarded": {classRMW, classDelegate},
		"classReplicaOnly":   {classRead, classOverwrite, classVersioned},
	}
	var bad []string
	ops := make([]string, 0, len(declared))
	for op := range declared {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		d := declared[op]
		f, arm := facts["repro/internal/rados."+op]
		switch {
		case arm && !slices.Contains(admits[d.class], f.class):
			bad = append(bad, fmt.Sprintf("%s is declared %q but its applyOp arm classifies %v", op, d.class, f.class))
		case !arm && d.readBatch && d.class != "classRead" && d.class != "classReplayGuarded":
			bad = append(bad, fmt.Sprintf("%s is a readBatch and is declared %q, want classRead or classReplayGuarded", op, d.class))
		case !arm && !d.readBatch && d.class != "classReplayGuarded":
			bad = append(bad, fmt.Sprintf("%s has no applyOp arm and is declared %q, want classReplayGuarded", op, d.class))
		}
	}
	for name, f := range facts {
		if op, ok := strings.CutPrefix(name, "repro/internal/rados."); ok && strings.HasSuffix(f.switchFn, ".applyOp") {
			if _, row := declared[op]; !row {
				bad = append(bad, op+" has an applyOp arm but no opSpecs row")
			}
		}
	}
	return bad
}

// TestOpTableAgreesWithRetrySafe holds the classes the OSD's op table
// declares to the retrysafe pass's own reading of applyOp, so neither
// can drift from the other. The check must catch two seeded lies, each
// of which would let a resend apply twice: OpAppend declared an
// overwrite, and OpCall, which has no arm, declared a read.
func TestOpTableAgreesWithRetrySafe(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/rados"})
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredOps(t, pkgs)
	facts := classifyOps(NewIndex(pkgs))
	for _, bad := range opTableDisagreements(declared, facts) {
		t.Error(bad)
	}
	for op, lie := range map[string]string{"OpAppend": "classOverwrite", "OpCall": "classRead"} {
		mutant := maps.Clone(declared)
		row := mutant[op]
		row.class = lie
		mutant[op] = row
		if bad := opTableDisagreements(mutant, facts); len(bad) != 1 || !strings.Contains(bad[0], op) {
			t.Errorf("%s declared %s: disagreements %q, want one naming %s", op, lie, bad, op)
		}
	}
}

// TestCrossPackageFacts pins the cross-package fact propagation the
// three protocol passes share, against the real tree:
//
//   - the OSD's op handler synchronously reaches the monitor's handler
//     through the mon client stub, so the wait-for graph gets an
//     rados->mon daemon edge with a multi-hop witness chain;
//   - the rados client's do() is recognized as a retry wrapper
//     (Backoff pacing plus a reachable wire Call);
//   - OpAppend classifies as read-modify-write on its own, and the
//     OpID replay-cache gateway in handleOp upgrades it to versioned —
//     the regression pin for the duplicate-apply fix. If this fails,
//     either the replay cache or the gateway recognizer regressed.
func TestCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-internal load is not short")
	}
	var pkgs []*Package
	for _, pkg := range rootPackages(t) {
		if strings.HasPrefix(pkg.Path, "repro/internal/") {
			pkgs = append(pkgs, pkg)
		}
	}
	idx := NewIndex(pkgs)

	eps := listenEndpoints(idx)
	edges := daemonEdges(idx, eps)
	const (
		osdHandle = "(*repro/internal/rados.OSD).handle"
		monHandle = "(*repro/internal/mon.Monitor).handle"
	)
	found := false
	for _, e := range edges {
		if e.from != osdHandle || e.to != monHandle {
			continue
		}
		found = true
		if len(e.chain) < 2 {
			t.Errorf("OSD->Monitor edge has a %d-step chain, want a multi-hop witness: %s", len(e.chain), renderChain(e.chain))
		}
	}
	if !found {
		var have []string
		for _, e := range edges {
			have = append(have, e.from+" -> "+e.to)
		}
		t.Errorf("no OSD->Monitor daemon edge; edges:\n%s", strings.Join(have, "\n"))
	}

	wrappers := retryWrappers(idx, rpcSummaries(idx))
	if _, ok := wrappers["(*repro/internal/rados.Client).do"]; !ok {
		t.Error("rados.(*Client).do not recognized as a retry wrapper (Backoff + wire Call)")
	}
	// The dedup GC sweeper resends block ops with the same discipline;
	// it must be recognized too, or its OpBlockReclaim call sites
	// escape the retry-safety gate entirely.
	if _, ok := wrappers["(*repro/internal/rados.OSD).sendBlockOp"]; !ok {
		t.Error("rados.(*OSD).sendBlockOp not recognized as a retry wrapper (Backoff + wire Call)")
	}

	// So does the client's batched block path: what a round of per-primary
	// requests leaves unreported is re-sent after a map refresh.
	if _, ok := wrappers["(*repro/internal/rados.Client).blockBatchAll"]; !ok {
		t.Error("rados.(*Client).blockBatchAll not recognized as a retry wrapper (Backoff + wire Call)")
	}

	facts := classifyOps(idx)
	// These expectations double as the worst-wins merge test: the WAL
	// backend's recordOp encoder switches over the same op enum with
	// trivially-overwrite case bodies, and must not displace applyOp's
	// real classifications.
	if f := facts["repro/internal/rados.OpAppend"]; f.class != classRMW {
		t.Errorf("OpAppend pre-upgrade class = %v, want %v", f.class, classRMW)
	}
	// The dedup block ops are resent by both retry wrappers (the client
	// stamps OpBlockWrite, the GC sweeper stamps reclaim), so each must
	// classify retry-safe on its own shape: reclaim leads with an
	// existence guard before it tombstones the slot (versioned), so a
	// resend after it applied answers ENOENT. OpBlockWrite classifies
	// from its applyOp case, a create-if-absent absolute overwrite: a batch
	// of such writes takes the same primary step as every other op, entry
	// by entry through applyOp, so handleOp's dispatch no longer hands it
	// to a handler of its own that would classify as a delegation.
	preClasses := map[string]opClass{
		"OpBlockWrite":   classOverwrite,
		"OpBlockReclaim": classVersioned,
	}
	for op, want := range preClasses {
		f, ok := facts["repro/internal/rados."+op]
		if !ok {
			t.Errorf("%s not classified (missing from the applyOp dispatch?)", op)
			continue
		}
		if f.class != want {
			t.Errorf("%s pre-upgrade class = %v, want %v", op, f.class, want)
		}
	}
	upgradeReplayGuarded(idx, facts)
	if f := facts["repro/internal/rados.OpAppend"]; f.class != classVersioned {
		t.Errorf("OpAppend post-upgrade class = %v, want %v (handleOp's OpID replay gateway must cover applyOp)", f.class, classVersioned)
	}
	for _, op := range []string{"OpBlockWrite", "OpBlockReclaim"} {
		f, ok := facts["repro/internal/rados."+op]
		if !ok {
			t.Errorf("%s not classified (missing from the applyOp dispatch?)", op)
			continue
		}
		if !f.class.retrySafe() {
			t.Errorf("%s post-upgrade class = %v; a resend through do()/sendBlockOp would double-apply", op, f.class)
		}
	}
	// The block reads have no switch arm anywhere: handleOp answers them
	// through their op-table row's readBatch, and the pass has nothing to
	// classify (it used to rank them delegations, from handleOp's
	// dispatch switch, and only the gateway upgrade made them safe). Their
	// resend safety is the table's instead: both rows declare read, which
	// TestOpTableAgreesWithRetrySafe admits for a readBatch row and
	// TestReadOnlyOpsSkipReplayCache holds the OSD to.
	for _, op := range []string{"OpBlockStat", "OpBlockRead"} {
		if f, ok := facts["repro/internal/rados."+op]; ok {
			t.Errorf("%s classified %v from %s; it should have no dispatch arm", op, f.class, f.switchFn)
		}
	}
}

// TestNoIdempotencyMarksInRados pins the replay-cache fix the same way
// TestNoLockblockWaiversInRados pins the pipelined write path: the
// rados package satisfies retrysafe outright, with zero
// //rpc:idempotent-because justifications. Resend safety comes from
// the OpID replay cache, not from an annotation.
func TestNoIdempotencyMarksInRados(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./internal/rados"})
	if err != nil {
		t.Fatal(err)
	}
	for k := range idempotencyMarks(NewIndex(pkgs)) {
		t.Errorf("%s:%d: idempotency justification found in internal/rados; the replay cache must make them unnecessary", k.file, k.line)
	}
}
