package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// NewChanLife builds the chanlife pass, three channel-lifecycle checks
// over the daemon packages:
//
//   - a send reachable after a close of the same channel on the same
//     path (send on closed channel panics);
//   - a second close of a channel already closed on the path
//     (double-close panics);
//   - a `for { select { ... default: } }` loop whose default case
//     neither blocks nor escapes — the loop spins a core instead of
//     parking on its channels.
//
// The close tracking is flow-sensitive per function, on the one
// statement walker (flow.go): each branch arm runs on its own copy of
// the closed set, and closes made in an arm that falls through (does not
// return/panic/branch away) flow to the code after the statement —
// closedness, unlike a lock, is sticky — but never to a sibling arm.
// Assigning a fresh channel to the expression clears it (the
// close-and-replace broadcast idiom).
func NewChanLife() *Pass {
	return &Pass{
		Name: "chanlife",
		Doc:  "no send after close, no double close, no spinning select with a non-blocking default",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/zlog",
		),
		Run: runChanLife,
	}
}

func runChanLife(pkg *Package, idx *Index) []Diagnostic {
	s := &clScanner{pkg: pkg}
	s.flow = flow[clState]{
		stmt:  s.stmt,
		expr:  s.expr,
		clone: func(st clState) clState { return maps.Clone(st) },
		join: func(st clState, arms []clState) {
			for _, arm := range arms {
				for k, v := range arm {
					if _, ok := st[k]; !ok {
						st[k] = v
					}
				}
			}
		},
		fresh: func() clState { return make(clState) },
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				s.flow.root(fd.Body, make(clState))
			}
		}
	}
	return s.diags
}

// clState maps a channel expression (as written) to the position of
// the close that closed it on this path.
type clState map[string]token.Pos

type clScanner struct {
	pkg   *Package
	flow  flow[clState]
	diags []Diagnostic
}

func (s *clScanner) stmt(st clState, stmt ast.Stmt) {
	for _, e := range evaluated(stmt) {
		s.expr(st, e)
	}
	switch x := stmt.(type) {
	case *ast.SendStmt:
		key := types.ExprString(x.Chan)
		if pos, ok := st[key]; ok {
			s.diags = append(s.diags, Diagnostic{
				Pos:  s.pkg.position(x.Arrow),
				Pass: "chanlife",
				Message: fmt.Sprintf("send on %s after it was closed at line %d (send on closed channel panics)",
					key, s.pkg.position(pos).Line),
			})
		}
	case *ast.AssignStmt:
		// Assigning over the expression installs a fresh channel.
		for _, e := range x.Lhs {
			delete(st, types.ExprString(e))
		}
	case *ast.ForStmt:
		s.checkSpin(x)
	}
}

// expr finds close(ch) calls in evaluation position and updates or
// checks the closed set. A deferred close(ch) never gets here: it runs
// after every later statement, so it closes nothing on this path.
func (s *clScanner) expr(st clState, e ast.Expr) {
	s.flow.inspect(st, e, func(n ast.Node) {
		x, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok || id.Name != "close" || len(x.Args) != 1 {
			return
		}
		if _, isBuiltin := s.pkg.Info.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return
		}
		key := types.ExprString(x.Args[0])
		if pos, ok := st[key]; ok {
			s.diags = append(s.diags, Diagnostic{
				Pos:  s.pkg.position(x.Pos()),
				Pass: "chanlife",
				Message: fmt.Sprintf("second close of %s (already closed at line %d; close of closed channel panics)",
					key, s.pkg.position(pos).Line),
			})
		} else {
			st[key] = x.Pos()
		}
	})
}

// checkSpin flags `for { select { ...; default: } }` where the default
// body neither blocks nor escapes the loop — the select never parks and
// the loop burns a core.
func (s *clScanner) checkSpin(loop *ast.ForStmt) {
	if loop.Cond != nil || loop.Init != nil || loop.Post != nil {
		return
	}
	for _, stmt := range loop.Body.List {
		sel, ok := stmt.(*ast.SelectStmt)
		if !ok {
			continue
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm != nil {
				continue
			}
			if !defaultBlocksOrEscapes(s.pkg, cc.Body) {
				s.diags = append(s.diags, Diagnostic{
					Pos:     s.pkg.position(sel.Pos()),
					Pass:    "chanlife",
					Message: "select inside an unconditional loop has a default case that neither blocks nor exits: the loop spins instead of parking on its channels",
				})
			}
		}
	}
}

// defaultBlocksOrEscapes reports whether a select default body contains
// something that paces or exits the loop: a return, a labeled branch
// (an unlabeled break only leaves the select), a goto, a panic, a
// channel operation, a nested select, or a time.Sleep.
func defaultBlocksOrEscapes(pkg *Package, body []ast.Stmt) bool {
	found := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt, *ast.SendStmt, *ast.SelectStmt, *ast.RangeStmt:
				found = true
			case *ast.BranchStmt:
				if x.Label != nil || x.Tok == token.GOTO {
					found = true
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					found = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
					return false
				}
				if fn := Callee(pkg.Info, x); fn != nil {
					switch fn.FullName() {
					case "time.Sleep", "runtime.Gosched", "os.Exit":
						// Gosched yields but still spins; only Sleep
						// and Exit actually stop the burn. Count Sleep
						// and Exit, keep flagging Gosched.
						if fn.FullName() != "runtime.Gosched" {
							found = true
						}
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
