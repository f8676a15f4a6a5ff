package script

import "fmt"

// The reference evaluator the differential suite holds the VM to: a
// tree-walking interpreter over the parsed AST, with a lexical scope
// chain of maps. It shares everything else with production — Interp's
// globals, budget and depth, the stdlib, Interp.call, indexValue and the
// binOp/unOp helpers — so a divergence the suite reports is a
// divergence of the compiler or the VM. Script functions it creates are
// GoFunc values closing over their AST and scope, so Interp.Call,
// pcall, table.sort and for-in iteration dispatch them unchanged.

// oracleRun parses src and evaluates it against ip's globals, refreshing
// the step budget and call depth as CompiledChunk.Run does.
func oracleRun(ip *Interp, src string) ([]Value, error) {
	blk, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ip.budget = ip.runBudget
	ip.depth = 0
	w := walker{ip}
	ctl, err := w.execBlock(blk, newEnv(&env{vars: ip.globals}))
	if err != nil {
		return nil, err
	}
	if ctl != nil && ctl.kind == ctlReturn {
		return ctl.vals, nil
	}
	return nil, nil
}

// env is one lexical scope frame. The root frame's vars is the
// interpreter's globals map itself.
type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env {
	return &env{vars: make(map[string]Value), parent: parent}
}

// get resolves name through the scope chain.
func (e *env) get(name string) Value {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v
		}
	}
	return nil
}

// setExisting assigns to the innermost scope that defines name; if none
// does, it defines name in the root (global) scope, matching Lua's
// treatment of free variables.
func (e *env) setExisting(name string, v Value) {
	var root *env
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
		root = s
	}
	root.vars[name] = v
}

// define declares name in this scope.
func (e *env) define(name string, v Value) { e.vars[name] = v }

// walker evaluates AST nodes on one interpreter.
type walker struct{ ip *Interp }

// control models non-local exits within the evaluator.
type control struct {
	kind ctlKind
	vals []Value
}

type ctlKind int

const (
	ctlReturn ctlKind = iota
	ctlBreak
)

func errf(n Node, format string, args ...any) error {
	return &RuntimeError{Line: n.nodeLine(), Msg: fmt.Sprintf(format, args...)}
}

// step charges one unit of the budget per statement, expression and
// loop iteration.
func (w walker) step(n Node) error {
	w.ip.budget--
	if w.ip.budget < 0 {
		return &RuntimeError{Line: n.nodeLine(), Msg: ErrBudget}
	}
	return nil
}

// closure makes a script function over fn's AST and the scope it was
// created in. Interp.call charges its depth before running it.
func closure(fn *FuncExpr, scope *env) GoFunc {
	return func(ip *Interp, args []Value) ([]Value, error) {
		frame := newEnv(scope)
		for i, name := range fn.Params {
			if i < len(args) {
				frame.define(name, args[i])
			} else {
				frame.define(name, nil)
			}
		}
		if fn.Variadic {
			extra := NewTable()
			for i := len(fn.Params); i < len(args); i++ {
				extra.Set(float64(i-len(fn.Params)+1), args[i]) //nolint:errcheck
			}
			frame.define("...", extra)
		}
		ctl, err := walker{ip}.execBlock(fn.Body, frame)
		if err != nil {
			return nil, err
		}
		if ctl != nil && ctl.kind == ctlReturn {
			return ctl.vals, nil
		}
		return nil, nil
	}
}

func (w walker) execBlock(blk *Block, scope *env) (*control, error) {
	for _, st := range blk.Stmts {
		ctl, err := w.execStmt(st, scope)
		if err != nil {
			return nil, err
		}
		if ctl != nil {
			return ctl, nil
		}
	}
	return nil, nil
}

func (w walker) execStmt(st Stmt, scope *env) (*control, error) {
	if err := w.step(st); err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *LocalStmt:
		vals, err := w.evalMulti(st.Exprs, scope, len(st.Names))
		if err != nil {
			return nil, err
		}
		for i, name := range st.Names {
			scope.define(name, vals[i])
		}
		return nil, nil

	case *AssignStmt:
		vals, err := w.evalMulti(st.Exprs, scope, len(st.Targets))
		if err != nil {
			return nil, err
		}
		for i, tgt := range st.Targets {
			if err := w.assign(tgt, vals[i], scope); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case *CallStmt:
		_, err := w.evalCall(st.Call, scope)
		return nil, err

	case *IfStmt:
		for i, cond := range st.Conds {
			v, err := w.eval(cond, scope)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return w.execBlock(st.Bodies[i], newEnv(scope))
			}
		}
		if st.Else != nil {
			return w.execBlock(st.Else, newEnv(scope))
		}
		return nil, nil

	case *WhileStmt:
		for {
			v, err := w.eval(st.Cond, scope)
			if err != nil {
				return nil, err
			}
			if !Truthy(v) {
				return nil, nil
			}
			ctl, err := w.execBlock(st.Body, newEnv(scope))
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				if ctl.kind == ctlBreak {
					return nil, nil
				}
				return ctl, nil
			}
			if err := w.step(st); err != nil {
				return nil, err
			}
		}

	case *RepeatStmt:
		for {
			body := newEnv(scope)
			ctl, err := w.execBlock(st.Body, body)
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				if ctl.kind == ctlBreak {
					return nil, nil
				}
				return ctl, nil
			}
			// The until condition sees the loop body's locals.
			v, err := w.eval(st.Cond, body)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return nil, nil
			}
			if err := w.step(st); err != nil {
				return nil, err
			}
		}

	case *NumForStmt:
		start, err := w.evalNumber(st.Start, scope)
		if err != nil {
			return nil, err
		}
		stop, err := w.evalNumber(st.Stop, scope)
		if err != nil {
			return nil, err
		}
		step := 1.0
		if st.Step != nil {
			step, err = w.evalNumber(st.Step, scope)
			if err != nil {
				return nil, err
			}
		}
		if step == 0 {
			return nil, errf(st, "for loop step is zero")
		}
		for i := start; (step > 0 && i <= stop) || (step < 0 && i >= stop); i += step {
			body := newEnv(scope)
			body.define(st.Var, i)
			ctl, err := w.execBlock(st.Body, body)
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				if ctl.kind == ctlBreak {
					return nil, nil
				}
				return ctl, nil
			}
			if err := w.step(st); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case *GenForStmt:
		return w.execGenFor(st, scope)

	case *ReturnStmt:
		vals, err := w.evalMulti(st.Exprs, scope, -1)
		if err != nil {
			return nil, err
		}
		return &control{kind: ctlReturn, vals: vals}, nil

	case *BreakStmt:
		return &control{kind: ctlBreak}, nil

	case *FuncStmt:
		cl := closure(st.Fn, scope)
		if st.Local {
			name := st.Target.(*NameExpr).Name
			// Define first so the function can recurse by name.
			scope.define(name, nil)
			scope.define(name, cl)
			return nil, nil
		}
		return nil, w.assign(st.Target, cl, scope)

	case *DoStmt:
		return w.execBlock(st.Body, newEnv(scope))
	}
	return nil, errf(st, "unhandled statement %T", st)
}

// execGenFor runs for-in loops. The iterable may be a table (iterated as
// pairs in deterministic order) or an iterator function (called until it
// returns nil, as Lua does).
func (w walker) execGenFor(st *GenForStmt, scope *env) (*control, error) {
	it, err := w.eval(st.Expr, scope)
	if err != nil {
		return nil, err
	}
	bindAndRun := func(vals []Value) (*control, error) {
		body := newEnv(scope)
		for i, name := range st.Names {
			if i < len(vals) {
				body.define(name, vals[i])
			} else {
				body.define(name, nil)
			}
		}
		return w.execBlock(st.Body, body)
	}
	switch it := it.(type) {
	case *Table:
		type kv struct{ k, v Value }
		var items []kv
		it.Pairs(func(k, v Value) bool {
			items = append(items, kv{k, v})
			return true
		})
		for _, item := range items {
			ctl, err := bindAndRun([]Value{item.k, item.v})
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				if ctl.kind == ctlBreak {
					return nil, nil
				}
				return ctl, nil
			}
			if err := w.step(st); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *CompiledClosure, GoFunc:
		for {
			vals, err := w.ip.call(it, nil, st.Line)
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 || vals[0] == nil {
				return nil, nil
			}
			ctl, err := bindAndRun(vals)
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				if ctl.kind == ctlBreak {
					return nil, nil
				}
				return ctl, nil
			}
			if err := w.step(st); err != nil {
				return nil, err
			}
		}
	}
	return nil, errf(st, "cannot iterate a %s value", TypeName(it))
}

func (w walker) assign(target Expr, v Value, scope *env) error {
	switch tgt := target.(type) {
	case *NameExpr:
		scope.setExisting(tgt.Name, v)
		return nil
	case *IndexExpr:
		obj, err := w.eval(tgt.Obj, scope)
		if err != nil {
			return err
		}
		tbl, ok := obj.(*Table)
		if !ok {
			return errf(tgt, "cannot index a %s value", TypeName(obj))
		}
		key, err := w.eval(tgt.Key, scope)
		if err != nil {
			return err
		}
		if err := tbl.Set(key, v); err != nil {
			return errf(tgt, "%v", err)
		}
		return nil
	}
	return errf(target, "invalid assignment target")
}

// evalMulti evaluates an expression list with Lua multi-value semantics:
// the final expression expands to all its results; earlier ones are
// truncated to one. want < 0 keeps every value; otherwise the result is
// padded/truncated to exactly want values.
func (w walker) evalMulti(exprs []Expr, scope *env, want int) ([]Value, error) {
	var vals []Value
	for i, e := range exprs {
		if i == len(exprs)-1 {
			if call, ok := e.(*CallExpr); ok {
				rs, err := w.evalCall(call, scope)
				if err != nil {
					return nil, err
				}
				vals = append(vals, rs...)
				break
			}
		}
		v, err := w.eval(e, scope)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	if want >= 0 {
		for len(vals) < want {
			vals = append(vals, nil)
		}
		vals = vals[:want]
	}
	return vals, nil
}

func (w walker) evalNumber(e Expr, scope *env) (float64, error) {
	v, err := w.eval(e, scope)
	if err != nil {
		return 0, err
	}
	f, ok := ToNumber(v)
	if !ok {
		return 0, errf(e, "expected a number, got %s", TypeName(v))
	}
	return f, nil
}

func (w walker) eval(e Expr, scope *env) (Value, error) {
	if err := w.step(e); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case *NilExpr:
		return nil, nil
	case *TrueExpr:
		return true, nil
	case *FalseExpr:
		return false, nil
	case *NumberExpr:
		return e.Value, nil
	case *StringExpr:
		return e.Value, nil
	case *VarargExpr:
		va := scope.get("...")
		if va == nil {
			return nil, nil
		}
		if t, ok := va.(*Table); ok && t.Len() > 0 {
			return t.Get(1.0), nil
		}
		return nil, nil
	case *NameExpr:
		return scope.get(e.Name), nil
	case *IndexExpr:
		obj, err := w.eval(e.Obj, scope)
		if err != nil {
			return nil, err
		}
		key, err := w.eval(e.Key, scope)
		if err != nil {
			return nil, err
		}
		v, err := w.ip.indexValue(obj, key)
		if err != nil {
			return nil, errf(e, "%v", err)
		}
		return v, nil
	case *CallExpr:
		vals, err := w.evalCall(e, scope)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, nil
		}
		return vals[0], nil
	case *FuncExpr:
		return closure(e, scope), nil
	case *TableExpr:
		return w.evalTable(e, scope)
	case *UnExpr:
		return w.evalUnary(e, scope)
	case *BinExpr:
		return w.evalBinary(e, scope)
	}
	return nil, errf(e, "unhandled expression %T", e)
}

func (w walker) evalTable(e *TableExpr, scope *env) (Value, error) {
	t := NewTable()
	next := 1
	for i, f := range e.Fields {
		if f.Key != nil {
			k, err := w.eval(f.Key, scope)
			if err != nil {
				return nil, err
			}
			v, err := w.eval(f.Value, scope)
			if err != nil {
				return nil, err
			}
			if err := t.Set(k, v); err != nil {
				return nil, errf(e, "%v", err)
			}
			continue
		}
		// Positional field: the last one expands calls multi-value.
		if i == len(e.Fields)-1 {
			if call, ok := f.Value.(*CallExpr); ok {
				vals, err := w.evalCall(call, scope)
				if err != nil {
					return nil, err
				}
				for _, v := range vals {
					t.Set(float64(next), v) //nolint:errcheck // integer keys are valid
					next++
				}
				continue
			}
		}
		v, err := w.eval(f.Value, scope)
		if err != nil {
			return nil, err
		}
		t.Set(float64(next), v) //nolint:errcheck // integer keys are valid
		next++
	}
	return t, nil
}

func (w walker) evalCall(e *CallExpr, scope *env) ([]Value, error) {
	fn, err := w.eval(e.Fn, scope)
	if err != nil {
		return nil, err
	}
	var args []Value
	if e.Method != "" {
		recv := fn
		tbl, ok := recv.(*Table)
		if !ok {
			return nil, errf(e, "cannot call method %q on a %s value", e.Method, TypeName(recv))
		}
		fn = tbl.Get(e.Method)
		args = append(args, recv)
	}
	rest, err := w.evalMulti(e.Args, scope, -1)
	if err != nil {
		return nil, err
	}
	args = append(args, rest...)
	return w.ip.call(fn, args, e.Line)
}

func (w walker) evalUnary(e *UnExpr, scope *env) (Value, error) {
	v, err := w.eval(e.E, scope)
	if err != nil {
		return nil, err
	}
	res, err := unOp(e.Op, v)
	if err != nil {
		return nil, errf(e, "%v", err)
	}
	return res, nil
}

func (w walker) evalBinary(e *BinExpr, scope *env) (Value, error) {
	// and/or short-circuit and return operands, not booleans.
	if e.Op == KwAnd || e.Op == KwOr {
		l, err := w.eval(e.L, scope)
		if err != nil {
			return nil, err
		}
		if e.Op == KwAnd {
			if !Truthy(l) {
				return l, nil
			}
		} else if Truthy(l) {
			return l, nil
		}
		return w.eval(e.R, scope)
	}

	l, err := w.eval(e.L, scope)
	if err != nil {
		return nil, err
	}
	r, err := w.eval(e.R, scope)
	if err != nil {
		return nil, err
	}
	res, err := binOp(e.Op, l, r)
	if err != nil {
		return nil, errf(e, "%v", err)
	}
	return res, nil
}
