package script

import "fmt"

// The compiler lowers the parsed AST to stack bytecode. Locals become
// indexed frame slots resolved at compile time, constants are pooled per
// chunk, and structured control flow becomes patched jumps. Scoping
// matches the tree-walker (the reference evaluator the differential
// tests hold the VM to) with one documented exception: name resolution
// is static, so a closure refers to the binding visible at its textual
// position — a local declared *later* in the same block shadows for
// subsequent code only (real Lua behaves this way too; the tree-walker's
// shared env maps let earlier closures observe later declarations).

// Compile parses src and compiles it to bytecode. The chunk is immutable
// afterwards and safe to Run concurrently on distinct interpreters.
func Compile(src string) (chunk *CompiledChunk, err error) {
	blk, err := Parse(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileErr)
			if !ok {
				panic(r)
			}
			chunk, err = nil, fmt.Errorf("script: compile: %s", string(ce))
		}
	}()
	c := &compiler{
		chunk:    &CompiledChunk{},
		constIdx: make(map[Value]int),
	}
	fs := newFuncState(c, nil, &FuncExpr{Body: blk}, "main")
	fs.block(blk, false)
	fs.emit(opReturn, 0, 0, 0, 0)
	c.chunk.main = fs.p
	c.chunk.mainCl = &CompiledClosure{chunk: c.chunk, proto: fs.p}
	return c.chunk, nil
}

// compileErr is panicked through the recursive compile and recovered at
// the top; only unreachable AST shapes raise it.
type compileErr string

func fail(format string, args ...any) {
	panic(compileErr(fmt.Sprintf(format, args...)))
}

type compiler struct {
	chunk    *CompiledChunk
	constIdx map[Value]int
}

func (c *compiler) konst(v Value) int {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := len(c.chunk.consts)
	c.chunk.consts = append(c.chunk.consts, v)
	c.constIdx[v] = i
	return i
}

// localVar is one resolved local binding.
type localVar struct {
	slot int
	cell bool // captured by a nested function → boxed in a cell
}

type funcState struct {
	c      *compiler
	parent *funcState
	p      *proto
	// scopes maps names to slots per lexical block, innermost last.
	scopes []map[string]localVar
	// nextAt[i] is the slot watermark when scope i was opened.
	nextAt []int
	// capSets[i] holds every name referenced inside nested function
	// literals anywhere in the block that scope i covers (conservative
	// over-approx per scope). A local is cell-allocated only when its own
	// scope's set contains its name: function literals outside that block
	// subtree cannot lexically see the local, so a same-named reference
	// elsewhere never forces a box here.
	capSets []map[string]bool
	upvals  map[string]int
	next    int
	// breaks holds patch lists for the enclosing loops' break jumps.
	breaks [][]int
}

func newFuncState(c *compiler, parent *funcState, fn *FuncExpr, name string) *funcState {
	fs := &funcState{
		c:      c,
		parent: parent,
		p: &proto{
			params:   len(fn.Params),
			variadic: fn.Variadic,
			name:     name,
			line:     fn.Line,
		},
		upvals: map[string]int{},
	}
	fs.pushScope(capturedIn(fn.Body, nil))
	for i, pname := range fn.Params {
		lv, fresh := fs.declare(pname)
		if !fresh {
			// Duplicate parameter name: Lua's "last wins". The value
			// still arrives in positional slot i; reserve it and copy
			// into the shared named slot after cell setup below.
			fs.next++
			fs.grow()
			_ = lv
			_ = i
		}
	}
	if fn.Variadic {
		lv, _ := fs.declare("...")
		fs.p.varargSlot = lv.slot
	}
	// Box captured parameters (and the vararg table) in cells. The frame
	// binds raw argument values first; these wrap them in place.
	for i, pname := range fn.Params {
		if lv, ok := fs.resolveLocal(pname); ok && lv.cell && lv.slot == i {
			fs.emit(opCellParam, lv.slot, 0, 0, fn.Line)
		}
	}
	if fn.Variadic {
		if lv, ok := fs.resolveLocal("..."); ok && lv.cell {
			fs.emit(opCellParam, lv.slot, 0, 0, fn.Line)
		}
	}
	// Copy duplicate-parameter values so the shared slot holds the last
	// positional argument, matching the tree-walker's repeated Define.
	seen := map[string]bool{}
	for i, pname := range fn.Params {
		if seen[pname] {
			lv, _ := fs.resolveLocal(pname)
			fs.emit(opLoadSlot, i, 0, 0, fn.Line)
			fs.storeLocal(lv, fn.Line)
		}
		seen[pname] = true
	}
	return fs
}

func (fs *funcState) grow() {
	if fs.next > fs.p.numSlots {
		fs.p.numSlots = fs.next
	}
}

// pushScope opens a lexical block whose declarations may be captured by
// the names in caps (computed by capturedIn over the block's subtree).
func (fs *funcState) pushScope(caps map[string]bool) {
	fs.scopes = append(fs.scopes, map[string]localVar{})
	fs.nextAt = append(fs.nextAt, fs.next)
	fs.capSets = append(fs.capSets, caps)
}

func (fs *funcState) popScope() {
	fs.scopes = fs.scopes[:len(fs.scopes)-1]
	fs.next = fs.nextAt[len(fs.nextAt)-1]
	fs.nextAt = fs.nextAt[:len(fs.nextAt)-1]
	fs.capSets = fs.capSets[:len(fs.capSets)-1]
}

// declare binds name in the innermost scope. Redeclaring a name in the
// same scope reuses its slot (and cell), mirroring the tree-walker's
// env-map overwrite: closures captured before the redeclaration keep
// observing the variable.
func (fs *funcState) declare(name string) (localVar, bool) {
	sc := fs.scopes[len(fs.scopes)-1]
	if lv, ok := sc[name]; ok {
		return lv, false
	}
	lv := localVar{slot: fs.next, cell: fs.capSets[len(fs.capSets)-1][name]}
	fs.next++
	fs.grow()
	sc[name] = lv
	return lv, true
}

// temp reserves an anonymous slot (freed LIFO via freeTemps).
func (fs *funcState) temp() int {
	s := fs.next
	fs.next++
	fs.grow()
	return s
}

func (fs *funcState) freeTemps(n int) { fs.next -= n }

func (fs *funcState) resolveLocal(name string) (localVar, bool) {
	for i := len(fs.scopes) - 1; i >= 0; i-- {
		if lv, ok := fs.scopes[i][name]; ok {
			return lv, true
		}
	}
	return localVar{}, false
}

func (fs *funcState) resolveUpval(name string) (int, bool) {
	if idx, ok := fs.upvals[name]; ok {
		return idx, true
	}
	if fs.parent == nil {
		return 0, false
	}
	if lv, ok := fs.parent.resolveLocal(name); ok {
		if !lv.cell {
			fail("captured local %q not cell-allocated", name)
		}
		idx := len(fs.p.ups)
		fs.p.ups = append(fs.p.ups, upvalRef{fromParent: true, index: lv.slot})
		fs.upvals[name] = idx
		return idx, true
	}
	if pidx, ok := fs.parent.resolveUpval(name); ok {
		idx := len(fs.p.ups)
		fs.p.ups = append(fs.p.ups, upvalRef{fromParent: false, index: pidx})
		fs.upvals[name] = idx
		return idx, true
	}
	return 0, false
}

func (fs *funcState) emit(op Opcode, a, b, c, line int) int {
	fs.p.code = append(fs.p.code, instr{op: op, a: int32(a), b: int32(b), c: int32(c), line: int32(line)})
	return len(fs.p.code) - 1
}

func (fs *funcState) here() int { return len(fs.p.code) }

func (fs *funcState) patchA(at int) { fs.p.code[at].a = int32(len(fs.p.code)) }
func (fs *funcState) patchB(at int) { fs.p.code[at].b = int32(len(fs.p.code)) }

// loadLocal/storeLocal emit slot or cell accesses per the binding.
func (fs *funcState) loadLocal(lv localVar, line int) {
	if lv.cell {
		fs.emit(opLoadCell, lv.slot, 0, 0, line)
	} else {
		fs.emit(opLoadSlot, lv.slot, 0, 0, line)
	}
}

func (fs *funcState) storeLocal(lv localVar, line int) {
	if lv.cell {
		fs.emit(opStoreCell, lv.slot, 0, 0, line)
	} else {
		fs.emit(opStoreSlot, lv.slot, 0, 0, line)
	}
}

// loadName resolves a variable reference: local slot, then upvalue chain,
// then global — the static image of the tree-walker's env walk.
func (fs *funcState) loadName(name string, line int) {
	if lv, ok := fs.resolveLocal(name); ok {
		fs.loadLocal(lv, line)
		return
	}
	if idx, ok := fs.resolveUpval(name); ok {
		fs.emit(opLoadUp, idx, 0, 0, line)
		return
	}
	fs.emit(opGetGlobal, fs.c.konst(name), 0, 0, line)
}

// storeName assigns the value on the stack top to name; unseen names
// become globals, as free variables do in Lua.
func (fs *funcState) storeName(name string, line int) {
	if lv, ok := fs.resolveLocal(name); ok {
		fs.storeLocal(lv, line)
		return
	}
	if idx, ok := fs.resolveUpval(name); ok {
		fs.emit(opStoreUp, idx, 0, 0, line)
		return
	}
	fs.emit(opSetGlobal, fs.c.konst(name), 0, 0, line)
}

// ---- Statements ----

// block compiles a statement list; scoped opens a fresh lexical scope.
func (fs *funcState) block(b *Block, scoped bool) {
	if scoped {
		fs.pushScope(capturedIn(b, nil))
		defer fs.popScope()
	}
	for _, st := range b.Stmts {
		fs.stmt(st)
	}
}

func (fs *funcState) stmt(st Stmt) {
	switch st := st.(type) {
	case *LocalStmt:
		fs.localStmt(st)
	case *AssignStmt:
		fs.assignStmt(st)
	case *CallStmt:
		fs.callExpr(st.Call, 0)
	case *IfStmt:
		fs.ifStmt(st)
	case *WhileStmt:
		fs.whileStmt(st)
	case *RepeatStmt:
		fs.repeatStmt(st)
	case *NumForStmt:
		fs.numForStmt(st)
	case *GenForStmt:
		fs.genForStmt(st)
	case *ReturnStmt:
		fixed, multi := fs.exprListAll(st.Exprs)
		if multi {
			fs.emit(opReturnM, fixed, 0, 0, st.Line)
		} else {
			fs.emit(opReturn, fixed, 0, 0, st.Line)
		}
	case *BreakStmt:
		if len(fs.breaks) == 0 {
			// The tree-walker lets a stray break propagate out of the
			// function as a silent early exit; compile it as return 0.
			fs.emit(opReturn, 0, 0, 0, st.Line)
			return
		}
		j := fs.emit(opJump, 0, 0, 0, st.Line)
		fs.breaks[len(fs.breaks)-1] = append(fs.breaks[len(fs.breaks)-1], j)
	case *FuncStmt:
		fs.funcStmt(st)
	case *DoStmt:
		fs.block(st.Body, true)
	default:
		fail("unhandled statement %T", st)
	}
}

func (fs *funcState) localStmt(st *LocalStmt) {
	n := len(st.Names)
	fs.exprListN(st.Exprs, n, st.Line)
	if n == 1 {
		fs.declareAndStore(st.Names[0], st.Line)
		return
	}
	if uniqueNames(st.Names) {
		// Declare all, then pop into the slots in reverse.
		lvs := make([]localVar, n)
		for i, name := range st.Names {
			lvs[i] = fs.declareOnly(name, st.Line)
		}
		for i := n - 1; i >= 0; i-- {
			fs.storeLocal(lvs[i], st.Line)
		}
		return
	}
	// Duplicate names: stash values and assign in declaration order so
	// the last duplicate wins, as repeated Define does. Declarations
	// precede the temps so freeTemps restores the slot watermark.
	lvs := make([]localVar, n)
	for i, name := range st.Names {
		lvs[i] = fs.declareOnly(name, st.Line)
	}
	temps := make([]int, n)
	for i := range temps {
		temps[i] = fs.temp()
	}
	for i := n - 1; i >= 0; i-- {
		fs.emit(opStoreSlot, temps[i], 0, 0, st.Line)
	}
	for i := range st.Names {
		fs.emit(opLoadSlot, temps[i], 0, 0, st.Line)
		fs.storeLocal(lvs[i], st.Line)
	}
	fs.freeTemps(n)
}

// declareOnly declares name (emitting cell setup on a fresh captured
// binding) without storing a value.
func (fs *funcState) declareOnly(name string, line int) localVar {
	lv, fresh := fs.declare(name)
	if fresh && lv.cell {
		fs.emit(opNewCell, lv.slot, 0, 0, line)
	}
	return lv
}

// declareAndStore declares name and pops the stack top into it.
func (fs *funcState) declareAndStore(name string, line int) {
	lv := fs.declareOnly(name, line)
	fs.storeLocal(lv, line)
}

func uniqueNames(names []string) bool {
	for i, n := range names {
		for _, m := range names[:i] {
			if n == m {
				return false
			}
		}
	}
	return true
}

func (fs *funcState) assignStmt(st *AssignStmt) {
	n := len(st.Targets)
	fs.exprListN(st.Exprs, n, st.Line)
	if n == 1 {
		fs.assignTop(st.Targets[0])
		return
	}
	temps := make([]int, n)
	for i := range temps {
		temps[i] = fs.temp()
	}
	for i := n - 1; i >= 0; i-- {
		fs.emit(opStoreSlot, temps[i], 0, 0, st.Line)
	}
	for i, tgt := range st.Targets {
		fs.assignFromSlot(tgt, temps[i])
	}
	fs.freeTemps(n)
}

// assignTop assigns the value on the stack top to target.
func (fs *funcState) assignTop(target Expr) {
	switch tgt := target.(type) {
	case *NameExpr:
		fs.storeName(tgt.Name, tgt.Line)
	case *IndexExpr:
		t := fs.temp()
		fs.emit(opStoreSlot, t, 0, 0, tgt.Line)
		fs.assignFromSlot(tgt, t)
		fs.freeTemps(1)
	default:
		fail("invalid assignment target %T", target)
	}
}

// assignFromSlot assigns the value saved in slot to target, preserving
// the tree-walker's order: object evaluated and type-checked before the
// key, both after the right-hand side.
func (fs *funcState) assignFromSlot(target Expr, slot int) {
	switch tgt := target.(type) {
	case *NameExpr:
		fs.emit(opLoadSlot, slot, 0, 0, tgt.Line)
		fs.storeName(tgt.Name, tgt.Line)
	case *IndexExpr:
		fs.expr(tgt.Obj)
		fs.emit(opCheckTable, 0, 0, 0, tgt.Line)
		fs.expr(tgt.Key)
		fs.emit(opLoadSlot, slot, 0, 0, tgt.Line)
		fs.emit(opSetIndex, 0, 0, 0, tgt.Line)
	default:
		fail("invalid assignment target %T", target)
	}
}

func (fs *funcState) ifStmt(st *IfStmt) {
	var ends []int
	for i, cond := range st.Conds {
		fs.expr(cond)
		jf := fs.emit(opJumpIfFalse, 0, 0, 0, cond.nodeLine())
		fs.block(st.Bodies[i], true)
		ends = append(ends, fs.emit(opJump, 0, 0, 0, st.Line))
		fs.patchA(jf)
	}
	if st.Else != nil {
		fs.block(st.Else, true)
	}
	for _, e := range ends {
		fs.patchA(e)
	}
}

func (fs *funcState) whileStmt(st *WhileStmt) {
	head := fs.here()
	fs.expr(st.Cond)
	exit := fs.emit(opJumpIfFalse, 0, 0, 0, st.Cond.nodeLine())
	fs.breaks = append(fs.breaks, nil)
	fs.block(st.Body, true)
	fs.emit(opJump, head, 0, 0, st.Line)
	fs.patchA(exit)
	fs.patchBreaks()
}

func (fs *funcState) repeatStmt(st *RepeatStmt) {
	head := fs.here()
	fs.breaks = append(fs.breaks, nil)
	// The until condition sees the body's locals: compile it inside the
	// body's scope (and it may capture them, so it feeds the scope's
	// capture set too).
	fs.pushScope(capturedIn(st.Body, st.Cond))
	for _, s := range st.Body.Stmts {
		fs.stmt(s)
	}
	fs.expr(st.Cond)
	fs.popScope()
	fs.emit(opJumpIfFalse, head, 0, 0, st.Cond.nodeLine())
	fs.patchBreaks()
}

func (fs *funcState) patchBreaks() {
	for _, j := range fs.breaks[len(fs.breaks)-1] {
		fs.patchA(j)
	}
	fs.breaks = fs.breaks[:len(fs.breaks)-1]
}

func (fs *funcState) numForStmt(st *NumForStmt) {
	// Hidden control slots: index, stop, step.
	base := fs.temp()
	fs.temp()
	fs.temp()
	fs.expr(st.Start)
	fs.emit(opToNumber, 0, 0, 0, st.Start.nodeLine())
	fs.expr(st.Stop)
	fs.emit(opToNumber, 0, 0, 0, st.Stop.nodeLine())
	if st.Step != nil {
		fs.expr(st.Step)
		fs.emit(opToNumber, 0, 0, 0, st.Step.nodeLine())
	} else {
		fs.emit(opConst, fs.c.konst(1.0), 0, 0, st.Line)
	}
	prep := fs.emit(opForPrep, base, 0, 0, st.Line)
	fs.breaks = append(fs.breaks, nil)
	head := fs.here()
	fs.pushScope(capturedIn(st.Body, nil))
	// Bind the user variable fresh each iteration (fresh cell when
	// captured, so per-iteration closures don't share it).
	fs.emit(opLoadSlot, base, 0, 0, st.Line)
	fs.declareAndStore(st.Var, st.Line)
	fs.block(st.Body, false)
	fs.popScope()
	fs.emit(opForLoop, base, head, 0, st.Line)
	fs.patchB(prep)
	fs.patchBreaks()
	fs.freeTemps(3)
}

func (fs *funcState) genForStmt(st *GenForStmt) {
	state := fs.temp()
	// `for ... in pairs(x)` / `ipairs(x)` where the name statically
	// resolves to a global compiles to a guarded direct iteration: the
	// VM verifies at runtime that the global still is the builtin and
	// then iterates the table without the iterator-function protocol
	// (falling back to a real call if the guard fails).
	if ce, kind, ok := fs.guardedIter(st.Expr); ok {
		fs.expr(ce.Args[0])
		fs.emit(opIterPrepG, state, kind, ce.Line, st.Line)
	} else {
		fs.expr(st.Expr)
		fs.emit(opIterPrep, state, 0, 0, st.Line)
	}
	fs.breaks = append(fs.breaks, nil)
	head := fs.here()
	next := fs.emit(opIterNext, state, 0, len(st.Names), st.Line)
	fs.pushScope(capturedIn(st.Body, nil))
	lvs := make([]localVar, len(st.Names))
	for i, name := range st.Names {
		lvs[i] = fs.declareOnly(name, st.Line)
	}
	for i := len(lvs) - 1; i >= 0; i-- {
		fs.storeLocal(lvs[i], st.Line)
	}
	fs.block(st.Body, false)
	fs.popScope()
	fs.emit(opJump, head, 0, 0, st.Line)
	fs.patchB(next)
	fs.patchBreaks()
	fs.freeTemps(1)
}

// guardedIter matches a generic-for iterable of the form pairs(x) or
// ipairs(x) where the callee name is not shadowed by any enclosing
// local (so it can only be the global). Returns the call and the
// builtin kind (0=pairs, 1=ipairs).
func (fs *funcState) guardedIter(e Expr) (*CallExpr, int, bool) {
	ce, ok := e.(*CallExpr)
	if !ok || ce.Method != "" || len(ce.Args) != 1 {
		return nil, 0, false
	}
	ne, ok := ce.Fn.(*NameExpr)
	if !ok {
		return nil, 0, false
	}
	for s := fs; s != nil; s = s.parent {
		if _, shadowed := s.resolveLocal(ne.Name); shadowed {
			return nil, 0, false
		}
	}
	switch ne.Name {
	case "pairs":
		return ce, 0, true
	case "ipairs":
		return ce, 1, true
	}
	return nil, 0, false
}

func (fs *funcState) funcStmt(st *FuncStmt) {
	if st.Local {
		name := st.Target.(*NameExpr).Name
		// Declare first so the function can recurse by name.
		lv := fs.declareOnly(name, st.Line)
		fs.compileFunc(st.Fn, name)
		fs.storeLocal(lv, st.Line)
		return
	}
	name := ""
	if ne, ok := st.Target.(*NameExpr); ok {
		name = ne.Name
	}
	fs.compileFunc(st.Fn, name)
	fs.assignTop(st.Target)
}

// ---- Expressions ----

// expr compiles e to exactly one stack value.
func (fs *funcState) expr(e Expr) {
	switch e := e.(type) {
	case *NilExpr:
		fs.emit(opNil, 0, 0, 0, e.Line)
	case *TrueExpr:
		fs.emit(opTrue, 0, 0, 0, e.Line)
	case *FalseExpr:
		fs.emit(opFalse, 0, 0, 0, e.Line)
	case *NumberExpr:
		fs.emit(opConst, fs.c.konst(e.Value), 0, 0, e.Line)
	case *StringExpr:
		fs.emit(opConst, fs.c.konst(e.Value), 0, 0, e.Line)
	case *VarargExpr:
		// `...` resolves like a name (variadic frames declare it as a
		// local; nested functions capture it; otherwise it is a global
		// read yielding nil) and collapses to its first value.
		fs.loadName("...", e.Line)
		fs.emit(opVarargX, 0, 0, 0, e.Line)
	case *NameExpr:
		fs.loadName(e.Name, e.Line)
	case *IndexExpr:
		fs.expr(e.Obj)
		fs.expr(e.Key)
		fs.emit(opIndex, 0, 0, 0, e.Line)
	case *CallExpr:
		fs.callExpr(e, 1)
	case *FuncExpr:
		fs.compileFunc(e, "")
	case *TableExpr:
		fs.tableExpr(e)
	case *UnExpr:
		fs.expr(e.E)
		fs.emit(opUn, int(e.Op), 0, 0, e.Line)
	case *BinExpr:
		fs.binExpr(e)
	default:
		fail("unhandled expression %T", e)
	}
}

func (fs *funcState) binExpr(e *BinExpr) {
	// and/or short-circuit and yield operands, not booleans.
	if e.Op == KwAnd || e.Op == KwOr {
		fs.expr(e.L)
		op := opJumpFalseKeep
		if e.Op == KwOr {
			op = opJumpTrueKeep
		}
		j := fs.emit(op, 0, 0, 0, e.Line)
		fs.expr(e.R)
		fs.patchA(j)
		return
	}
	fs.expr(e.L)
	fs.expr(e.R)
	fs.emit(opBin, int(e.Op), 0, 0, e.Line)
}

func (fs *funcState) tableExpr(e *TableExpr) {
	fs.emit(opNewTable, 0, 0, 0, e.Line)
	next := 1
	for i, f := range e.Fields {
		if f.Key != nil {
			fs.expr(f.Key)
			fs.expr(f.Value)
			fs.emit(opTableSet, 0, 0, 0, e.Line)
			continue
		}
		if i == len(e.Fields)-1 {
			if call, ok := f.Value.(*CallExpr); ok {
				fs.callExpr(call, -1)
				fs.emit(opTableAppM, next, 0, 0, e.Line)
				continue
			}
		}
		fs.expr(f.Value)
		fs.emit(opTableApp, next, 0, 0, e.Line)
		next++
	}
}

// callExpr compiles a call producing `want` results (-1 = all, leaving
// the count in the VM's pending register).
func (fs *funcState) callExpr(e *CallExpr, want int) {
	fixed := 0
	if e.Method != "" {
		// obj:m(...) resolves m from the receiver before evaluating
		// arguments, matching the tree-walker.
		fs.expr(e.Fn)
		fs.emit(opMethod, fs.c.konst(e.Method), 0, 0, e.Line)
		fixed = 1
	} else {
		fs.expr(e.Fn)
	}
	nargs, multi := fs.exprListAll(e.Args)
	if multi {
		fs.emit(opCallM, fixed+nargs, want, 0, e.Line)
	} else {
		fs.emit(opCall, fixed+nargs, want, 0, e.Line)
	}
}

// exprListAll compiles an expression list with Lua tail-expansion: every
// expression yields one value except a trailing call, which yields all
// its results. Returns the fixed value count and whether a trailing
// multi-call ran (its surplus is in the pending register).
func (fs *funcState) exprListAll(exprs []Expr) (int, bool) {
	for i, e := range exprs {
		if i == len(exprs)-1 {
			if call, ok := e.(*CallExpr); ok {
				fs.callExpr(call, -1)
				return len(exprs) - 1, true
			}
		}
		fs.expr(e)
	}
	return len(exprs), false
}

// exprListN compiles exprs to exactly want values, padding with nils or
// truncating from the tail as the tree-walker's evalMulti does.
func (fs *funcState) exprListN(exprs []Expr, want, line int) {
	fixed, multi := fs.exprListAll(exprs)
	if multi {
		fs.emit(opAdjustM, fixed, want, 0, line)
		return
	}
	for n := fixed; n < want; n++ {
		fs.emit(opNil, 0, 0, 0, line)
	}
	if fixed > want {
		fs.emit(opPop, fixed-want, 0, 0, line)
	}
}

func (fs *funcState) compileFunc(fn *FuncExpr, name string) {
	child := newFuncState(fs.c, fs, fn, name)
	child.block(fn.Body, false)
	child.emit(opReturn, 0, 0, 0, fn.Line)
	idx := len(fs.c.chunk.protos)
	fs.c.chunk.protos = append(fs.c.chunk.protos, child.p)
	fs.emit(opClosure, idx, 0, 0, fn.Line)
}

// ---- capture pre-scan ----

// capturedIn computes the capture set for a scope covering body (plus an
// optional trailing expression, for repeat/until): every name referenced
// inside nested function literals at any depth. extra may be nil.
func capturedIn(body *Block, extra Expr) map[string]bool {
	out := map[string]bool{}
	collectCaptured(body, out)
	if extra != nil {
		walkExpr(extra, func(e Expr) {
			if fn, ok := e.(*FuncExpr); ok {
				collectAllNames(fn.Body, out)
			}
		})
	}
	return out
}

// collectCaptured records every name referenced inside nested function
// literals of body (at any depth). Locals with such names are boxed in
// cells; over-approximation only costs a box, never correctness.
func collectCaptured(body *Block, out map[string]bool) {
	walkBlock(body, func(e Expr) {
		if fn, ok := e.(*FuncExpr); ok {
			collectAllNames(fn.Body, out)
		}
	})
}

// collectAllNames adds every identifier that appears anywhere in b.
func collectAllNames(b *Block, out map[string]bool) {
	walkBlock(b, func(e Expr) {
		switch e := e.(type) {
		case *NameExpr:
			out[e.Name] = true
		case *VarargExpr:
			out["..."] = true
		}
	})
	var addStmtNames func(s Stmt)
	addStmtNames = func(s Stmt) {
		switch s := s.(type) {
		case *LocalStmt:
			for _, n := range s.Names {
				out[n] = true
			}
		case *NumForStmt:
			out[s.Var] = true
		case *GenForStmt:
			for _, n := range s.Names {
				out[n] = true
			}
		}
	}
	walkStmts(b, addStmtNames)
}

// walkBlock visits every expression in b, including inside nested
// function literals.
func walkBlock(b *Block, visit func(Expr)) {
	walkStmts(b, func(s Stmt) {
		for _, e := range stmtExprs(s) {
			walkExpr(e, visit)
		}
	})
}

// walkStmts visits every statement in b recursively (blocks of nested
// function literals are visited via walkExpr's FuncExpr descent).
func walkStmts(b *Block, visit func(Stmt)) {
	for _, s := range b.Stmts {
		visit(s)
		for _, nb := range stmtBlocks(s) {
			walkStmts(nb, visit)
		}
	}
}

func stmtBlocks(s Stmt) []*Block {
	switch s := s.(type) {
	case *IfStmt:
		bs := append([]*Block{}, s.Bodies...)
		if s.Else != nil {
			bs = append(bs, s.Else)
		}
		return bs
	case *WhileStmt:
		return []*Block{s.Body}
	case *RepeatStmt:
		return []*Block{s.Body}
	case *NumForStmt:
		return []*Block{s.Body}
	case *GenForStmt:
		return []*Block{s.Body}
	case *DoStmt:
		return []*Block{s.Body}
	}
	return nil
}

func stmtExprs(s Stmt) []Expr {
	switch s := s.(type) {
	case *LocalStmt:
		return s.Exprs
	case *AssignStmt:
		return append(append([]Expr{}, s.Targets...), s.Exprs...)
	case *CallStmt:
		return []Expr{s.Call}
	case *IfStmt:
		return s.Conds
	case *WhileStmt:
		return []Expr{s.Cond}
	case *RepeatStmt:
		return []Expr{s.Cond}
	case *NumForStmt:
		es := []Expr{s.Start, s.Stop}
		if s.Step != nil {
			es = append(es, s.Step)
		}
		return es
	case *GenForStmt:
		return []Expr{s.Expr}
	case *ReturnStmt:
		return s.Exprs
	case *FuncStmt:
		return []Expr{s.Target, s.Fn}
	}
	return nil
}

// walkExpr visits e and all sub-expressions, descending into function
// literal bodies.
func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *IndexExpr:
		walkExpr(e.Obj, visit)
		walkExpr(e.Key, visit)
	case *CallExpr:
		walkExpr(e.Fn, visit)
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *BinExpr:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *UnExpr:
		walkExpr(e.E, visit)
	case *FuncExpr:
		walkBlock(e.Body, visit)
	case *TableExpr:
		for _, f := range e.Fields {
			walkExpr(f.Key, visit)
			walkExpr(f.Value, visit)
		}
	}
}
