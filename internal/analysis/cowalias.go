package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewCowAlias checks the copy-on-write ownership discipline: any
// slice reachable from a type whose doc comment declares
// "copy-on-write" (Object's Data/Omap/Xattrs, the replay cache's
// OpReply buffers) must never be written in place — element writes,
// copy-into, and append-into-spare-capacity all scribble under
// concurrent readers holding the old alias. Mutations must replace the
// container slot with a fresh allocation (`append([]byte(nil), ...)`,
// `make`+`copy`); and a caller-owned request buffer must be cloned
// before it is stored into a COW slot, or a later client-side reuse of
// the buffer corrupts stored state.
func NewCowAlias() *Pass {
	p := &Pass{
		Name: "cowalias",
		Doc:  "in-place mutation or caller-owned aliasing of copy-on-write stored state",
		Help: "Types documented as copy-on-write (Object, OpReply) promise readers that " +
			"a returned slice is never written again: every mutation replaces the " +
			"container slot with a freshly allocated slice. This pass tracks slice " +
			"origins through assignments, append, copy, field reads, and bounded call " +
			"summaries, and flags (1) in-place writes — x[i] = v, copy(x, ...), " +
			"append into a stored slice's spare capacity — where x aliases COW stored " +
			"state, and (2) stores of caller-owned buffers (request payloads) into a " +
			"COW container slot without a clone. Recognized clone idioms: " +
			"append([]byte(nil), src...) and fresh make + copy.",
		Scope: inPrefix("repro/internal/"),
	}

	p.Run = byPackage(cowAliasAll)
	return p
}

func cowAliasAll(idx *Index) map[string][]Diagnostic {
	cow := cowRoots(idx)
	if len(cow) == 0 {
		return nil
	}
	sums := effectsFor(idx)
	byPkg := make(map[string][]Diagnostic)
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		pkg := fd.Pkg
		s := &vfScanner{pkg: pkg, sums: sums, cow: cow}
		report := func(pos token.Pos, msg string, chain []chainStep) {
			byPkg[pkg.Path] = append(byPkg[pkg.Path], Diagnostic{
				Pos:     pkg.position(pos),
				Pass:    "cowalias",
				Message: msg,
				Related: relatedOf(chain),
			})
		}
		s.onMutate = func(kind string, target ast.Expr, info originInfo, pos token.Pos) {
			if info.org != orStored || !info.cow {
				return
			}
			report(pos, fmt.Sprintf("%s on slice aliasing copy-on-write stored state; replace the container slot with a fresh allocation (append([]byte(nil), ...) or make+copy) instead", kind), info.chain)
		}
		s.onStore = func(slot string, target ast.Expr, info originInfo, pos token.Pos) {
			if info.org != orParam || info.ptr {
				return
			}
			report(pos, fmt.Sprintf("caller-owned buffer stored into copy-on-write slot %s without a clone; the caller may reuse the backing array under later readers", slot), info.chain)
		}
		// A COW-aliased slice handed to a callee that writes its
		// parameter in place is the same bug one hop removed.
		s.onCall = func(call *ast.CallExpr, fn *types.Func) {
			sum := sums[fn.FullName()]
			if sum == nil {
				return
			}
			for pIdx := range sum.mutates {
				a := s.argOrigin(call, pIdx)
				if a.org != orStored || !a.cow {
					continue
				}
				report(call.Pos(), fmt.Sprintf("slice aliasing copy-on-write stored state passed to %s, which writes its argument in place; clone before the call", shortName(fn.FullName())), a.chain)
			}
		}
		s.scanFunc(fd.Decl)
	}
	for path := range byPkg {
		d := byPkg[path]
		sort.Slice(d, func(i, j int) bool { return posLess(d[i].Pos, d[j].Pos) })
		byPkg[path] = Dedupe(d)
	}
	return byPkg
}
