package script

import (
	"reflect"
	"strconv"
)

// The VM executes CompiledChunk bytecode on a contiguous value stack:
// each frame owns a slot window (parameters, locals, hidden temporaries)
// followed by its operand region. Activation records come from a
// per-interpreter freelist so steady-state execution allocates only what
// the script itself creates (tables, closures, captured cells).

// smallNums pre-boxes the integer-valued floats in [-256, 256] so hot
// arithmetic (loop counters, rank indices, byte values) doesn't allocate
// a fresh interface box per result.
var smallNums [513]Value

func init() {
	for i := range smallNums {
		smallNums[i] = float64(i - 256)
	}
}

// numValue boxes f, reusing a cached box for small integers.
func numValue(f float64) Value {
	if f >= -256 && f <= 256 {
		if i := int(f); float64(i) == f {
			return smallNums[i+256]
		}
	}
	return f
}

type vmFrame struct {
	cl    *CompiledClosure
	base  int // first slot index in the shared stack
	fnIdx int // stack index of the callee; results land here
	pc    int
	want  int // caller's desired result count (-1 = all)
}

type vmState struct {
	stack  []Value
	frames []vmFrame
	next   *vmState // freelist link
}

func (ip *Interp) getVM() *vmState {
	if vs := ip.vmFree; vs != nil {
		ip.vmFree = vs.next
		vs.next = nil
		return vs
	}
	return &vmState{stack: make([]Value, 0, 64)}
}

func (ip *Interp) putVM(vs *vmState) {
	// Clear retained values so pooled states don't pin script objects.
	for i := range vs.stack {
		vs.stack[i] = nil
	}
	vs.stack = vs.stack[:0]
	for i := range vs.frames {
		vs.frames[i] = vmFrame{}
	}
	vs.frames = vs.frames[:0]
	vs.next = ip.vmFree
	ip.vmFree = vs
}

// Run executes the compiled chunk against ip's globals, refreshing the
// step budget and call depth, and returns the chunk's return values.
func (c *CompiledChunk) Run(ip *Interp) ([]Value, error) {
	ip.budget = ip.runBudget
	ip.depth = 0
	return ip.callCompiled(c.mainCl, nil)
}

// callCompiled invokes a compiled closure. The caller (Interp.call or
// CompiledChunk.Run) has already accounted for this frame's depth.
func (ip *Interp) callCompiled(cl *CompiledClosure, args []Value) ([]Value, error) {
	vs := ip.getVM()
	vs.stack = append(vs.stack, cl)
	vs.stack = append(vs.stack, args...)
	if err := vs.pushFrame(ip, cl, 0, len(args), -1, false, 0); err != nil {
		ip.putVM(vs)
		return nil, err
	}
	res, err := ip.execVM(vs)
	ip.putVM(vs)
	return res, err
}

// pushFrame sets up an activation for cl whose callee and arguments sit
// at fnIdx.. on the stack. countDepth distinguishes internal calls
// (which consume interpreter call depth) from the root activation, whose
// depth the caller already charged.
func (vs *vmState) pushFrame(ip *Interp, cl *CompiledClosure, fnIdx, nargs, want int, countDepth bool, line int) error {
	if countDepth {
		ip.depth++
		if ip.depth > ip.maxDepth {
			ip.depth--
			return &RuntimeError{Line: line, Msg: "call stack too deep"}
		}
	}
	p := cl.proto
	base := fnIdx + 1
	// Surplus arguments either feed the vararg table or are dropped;
	// missing parameters are nil-padded (by the frame extension below).
	if p.variadic {
		extra := NewTable()
		for i := p.params; i < nargs; i++ {
			extra.Set(float64(i-p.params+1), vs.stack[base+i]) //nolint:errcheck // integer keys are valid
		}
		vs.stack = vs.stack[:base+min(nargs, p.params)]
		for len(vs.stack) < base+p.params {
			vs.stack = append(vs.stack, nil)
		}
		vs.stack = append(vs.stack, extra)
	} else if nargs > p.params {
		for i := base + p.params; i < base+nargs; i++ {
			vs.stack[i] = nil
		}
		vs.stack = vs.stack[:base+p.params]
	}
	// Extend the frame to its full slot count in one step, clearing the
	// newly exposed region (it may hold stale values from popped frames).
	if need := base + p.numSlots; need <= cap(vs.stack) {
		old := len(vs.stack)
		vs.stack = vs.stack[:need]
		for i := old; i < need; i++ {
			vs.stack[i] = nil
		}
	} else {
		for len(vs.stack) < need {
			vs.stack = append(vs.stack, nil)
		}
	}
	vs.frames = append(vs.frames, vmFrame{cl: cl, base: base, fnIdx: fnIdx, want: want})
	return nil
}

// execVM runs the top frame of vs to completion (including any frames it
// pushes) and returns the root frame's results.
func (ip *Interp) execVM(vs *vmState) (res []Value, err error) {
	rootFrames := len(vs.frames) - 1 // frames below ours are not unwound
	fr := &vs.frames[len(vs.frames)-1]
	code := fr.cl.proto.code
	consts := fr.cl.chunk.consts
	pending := 0

	defer func() {
		if err != nil {
			// Unwind depth charged for internal frames pushed here.
			for len(vs.frames) > rootFrames+1 {
				vs.frames = vs.frames[:len(vs.frames)-1]
				ip.depth--
			}
		}
	}()

	push := func(v Value) { vs.stack = append(vs.stack, v) }
	pop := func() Value {
		v := vs.stack[len(vs.stack)-1]
		vs.stack[len(vs.stack)-1] = nil
		vs.stack = vs.stack[:len(vs.stack)-1]
		return v
	}

	for {
		in := code[fr.pc]
		fr.pc++
		ip.budget--
		if ip.budget < 0 {
			return nil, &RuntimeError{Line: int(in.line), Msg: ErrBudget}
		}

		switch in.op {
		case opConst:
			push(consts[in.a])
		case opNil:
			push(nil)
		case opTrue:
			push(true)
		case opFalse:
			push(false)
		case opPop:
			for i := int32(0); i < in.a; i++ {
				pop()
			}

		case opLoadSlot:
			push(vs.stack[fr.base+int(in.a)])
		case opStoreSlot:
			vs.stack[fr.base+int(in.a)] = pop()
		case opLoadCell:
			push(vs.stack[fr.base+int(in.a)].(*cell).v)
		case opStoreCell:
			vs.stack[fr.base+int(in.a)].(*cell).v = pop()
		case opNewCell:
			vs.stack[fr.base+int(in.a)] = &cell{}
		case opCellParam:
			s := fr.base + int(in.a)
			vs.stack[s] = &cell{v: vs.stack[s]}
		case opLoadUp:
			push(fr.cl.ups[in.a].v)
		case opStoreUp:
			fr.cl.ups[in.a].v = pop()

		case opGetGlobal:
			push(ip.globals[consts[in.a].(string)])
		case opSetGlobal:
			ip.SetGlobal(consts[in.a].(string), pop())

		case opIndex:
			key := pop()
			obj := pop()
			v, ierr := ip.indexValue(obj, key)
			if ierr != nil {
				return nil, &RuntimeError{Line: int(in.line), Msg: ierr.Error()}
			}
			push(v)
		case opCheckTable:
			if _, ok := vs.stack[len(vs.stack)-1].(*Table); !ok {
				return nil, &RuntimeError{Line: int(in.line),
					Msg: "cannot index a " + TypeName(vs.stack[len(vs.stack)-1]) + " value"}
			}
		case opSetIndex:
			val := pop()
			key := pop()
			tbl := pop().(*Table)
			if serr := tbl.Set(key, val); serr != nil {
				return nil, &RuntimeError{Line: int(in.line), Msg: serr.Error()}
			}

		case opNewTable:
			push(NewTable())
		case opTableSet:
			val := pop()
			key := pop()
			tbl := vs.stack[len(vs.stack)-1].(*Table)
			if serr := tbl.Set(key, val); serr != nil {
				return nil, &RuntimeError{Line: int(in.line), Msg: serr.Error()}
			}
		case opTableApp:
			val := pop()
			tbl := vs.stack[len(vs.stack)-1].(*Table)
			tbl.Set(float64(in.a), val) //nolint:errcheck // integer keys are valid
		case opTableAppM:
			n := pending
			pending = 0
			tbl := vs.stack[len(vs.stack)-1-n].(*Table)
			for i := 0; i < n; i++ {
				tbl.Set(float64(int(in.a)+i), vs.stack[len(vs.stack)-n+i]) //nolint:errcheck
			}
			vs.popN(n)

		case opClosure:
			p := fr.cl.chunk.protos[in.a]
			var ups []*cell
			if len(p.ups) > 0 {
				ups = make([]*cell, len(p.ups))
				for i, ref := range p.ups {
					if ref.fromParent {
						ups[i] = vs.stack[fr.base+ref.index].(*cell)
					} else {
						ups[i] = fr.cl.ups[ref.index]
					}
				}
			}
			push(&CompiledClosure{chunk: fr.cl.chunk, proto: p, ups: ups})

		case opMethod:
			recv := pop()
			tbl, ok := recv.(*Table)
			if !ok {
				return nil, &RuntimeError{Line: int(in.line),
					Msg: "cannot call method " + strconv.Quote(consts[in.a].(string)) + " on a " + TypeName(recv) + " value"}
			}
			push(tbl.Get(consts[in.a]))
			push(recv)

		case opCall, opCallM:
			nargs := int(in.a)
			if in.op == opCallM {
				nargs += pending
				pending = 0
			}
			want := int(in.b)
			fnIdx := len(vs.stack) - nargs - 1
			callee := vs.stack[fnIdx]
			if ccl, ok := callee.(*CompiledClosure); ok {
				// Same-engine call: push an internal frame; no Go-side
				// recursion, no argument copying.
				if perr := vs.pushFrame(ip, ccl, fnIdx, nargs, want, true, int(in.line)); perr != nil {
					return nil, perr
				}
				fr = &vs.frames[len(vs.frames)-1]
				code = fr.cl.proto.code
				consts = fr.cl.chunk.consts
				continue
			}
			rs, cerr := ip.call(callee, vs.stack[fnIdx+1:len(vs.stack):len(vs.stack)], int(in.line))
			if cerr != nil {
				return nil, cerr
			}
			pending = vs.finishCall(fnIdx, rs, want, pending)

		case opReturn, opReturnM:
			nret := int(in.a)
			if in.op == opReturnM {
				nret += pending
				pending = 0
			}
			results := vs.stack[len(vs.stack)-nret:]
			fnIdx, want := fr.fnIdx, fr.want
			copy(vs.stack[fnIdx:], results)
			vs.stack = vs.stack[:fnIdx+nret]
			vs.frames = vs.frames[:len(vs.frames)-1]
			if len(vs.frames) == rootFrames {
				// Root frame returned: copy results out of the pooled stack.
				out := make([]Value, nret)
				copy(out, vs.stack[fnIdx:])
				if nret == 0 {
					out = nil
				}
				return out, nil
			}
			ip.depth--
			fr = &vs.frames[len(vs.frames)-1]
			code = fr.cl.proto.code
			consts = fr.cl.chunk.consts
			switch {
			case want < 0:
				pending = nret
			case nret < want:
				for i := nret; i < want; i++ {
					push(nil)
				}
			case nret > want:
				vs.popN(nret - want)
			}

		case opJump:
			fr.pc = int(in.a)
		case opJumpIfFalse:
			if !Truthy(pop()) {
				fr.pc = int(in.a)
			}
		case opJumpFalseKeep:
			if !Truthy(vs.stack[len(vs.stack)-1]) {
				fr.pc = int(in.a)
			} else {
				pop()
			}
		case opJumpTrueKeep:
			if Truthy(vs.stack[len(vs.stack)-1]) {
				fr.pc = int(in.a)
			} else {
				pop()
			}

		case opBin:
			// Fast path: float⊕float for the common arithmetic and
			// comparison operators, bypassing binOp's generic dispatch and
			// reusing cached boxes for small integer results. Semantics
			// are identical to binOp's float case.
			if n := len(vs.stack) - 1; n > 0 {
				if lf, lok := vs.stack[n-1].(float64); lok {
					if rf, rok := vs.stack[n].(float64); rok {
						var res Value
						switch Kind(in.a) {
						case Plus:
							res = numValue(lf + rf)
						case Minus:
							res = numValue(lf - rf)
						case Star:
							res = numValue(lf * rf)
						case Slash:
							res = numValue(lf / rf)
						case Less:
							res = lf < rf
						case LessEq:
							res = lf <= rf
						case Greater:
							res = lf > rf
						case GreaterEq:
							res = lf >= rf
						case Eq:
							res = lf == rf
						case NotEq:
							res = lf != rf
						}
						if res != nil {
							vs.stack[n] = nil
							vs.stack = vs.stack[:n]
							vs.stack[n-1] = res
							continue
						}
					}
				}
			}
			r := pop()
			l := pop()
			v, berr := binOp(Kind(in.a), l, r)
			if berr != nil {
				return nil, &RuntimeError{Line: int(in.line), Msg: berr.Error()}
			}
			push(v)
		case opUn:
			v, uerr := unOp(Kind(in.a), pop())
			if uerr != nil {
				return nil, &RuntimeError{Line: int(in.line), Msg: uerr.Error()}
			}
			push(v)

		case opVarargX:
			v := pop()
			if t, ok := v.(*Table); ok && t.Len() > 0 {
				push(t.Get(1.0))
			} else {
				push(nil)
			}

		case opToNumber:
			f, ok := ToNumber(vs.stack[len(vs.stack)-1])
			if !ok {
				return nil, &RuntimeError{Line: int(in.line),
					Msg: "expected a number, got " + TypeName(vs.stack[len(vs.stack)-1])}
			}
			vs.stack[len(vs.stack)-1] = f

		case opForPrep:
			step := pop().(float64)
			stop := pop().(float64)
			start := pop().(float64)
			if step == 0 {
				return nil, &RuntimeError{Line: int(in.line), Msg: "for loop step is zero"}
			}
			b := fr.base + int(in.a)
			vs.stack[b] = start
			vs.stack[b+1] = stop
			vs.stack[b+2] = step
			if !((step > 0 && start <= stop) || (step < 0 && start >= stop)) {
				fr.pc = int(in.b)
			}
		case opForLoop:
			b := fr.base + int(in.a)
			i := vs.stack[b].(float64) + vs.stack[b+2].(float64)
			stop := vs.stack[b+1].(float64)
			step := vs.stack[b+2].(float64)
			vs.stack[b] = numValue(i)
			if (step > 0 && i <= stop) || (step < 0 && i >= stop) {
				fr.pc = int(in.b)
			}

		case opIterPrep:
			st, perr := newIterState(pop(), int(in.line))
			if perr != nil {
				return nil, perr
			}
			vs.stack[fr.base+int(in.a)] = st
		case opIterPrepG:
			v := pop()
			name, builtin := "pairs", stdPairs
			if in.b == 1 {
				name, builtin = "ipairs", stdIpairs
			}
			var st *iterState
			if t, ok := v.(*Table); ok && sameGoFunc(ip.globals[name], builtin) {
				st = &iterState{line: int(in.line)}
				if in.b == 1 {
					st.ipt = t
				} else {
					st.items = make([]iterKV, 0, len(t.arr)+len(t.keys))
					t.Pairs(func(k, vv Value) bool {
						st.items = append(st.items, iterKV{k, vv})
						return true
					})
				}
			} else {
				// Guard failed (global rebound, or non-table operand):
				// behave exactly like the unoptimized path — call the
				// global at the call site's line, then iterate whatever
				// its first result is.
				rs, cerr := ip.call(ip.globals[name], []Value{v}, int(in.c))
				if cerr != nil {
					return nil, cerr
				}
				var first Value
				if len(rs) > 0 {
					first = rs[0]
				}
				var perr error
				st, perr = newIterState(first, int(in.line))
				if perr != nil {
					return nil, perr
				}
			}
			vs.stack[fr.base+int(in.a)] = st
		case opIterNext:
			st := vs.stack[fr.base+int(in.a)].(*iterState)
			vals, done, nerr := st.next(ip)
			if nerr != nil {
				return nil, nerr
			}
			if done {
				fr.pc = int(in.b)
				continue
			}
			for i := 0; i < int(in.c); i++ {
				if i < len(vals) {
					push(vals[i])
				} else {
					push(nil)
				}
			}

		case opAdjustM:
			total := int(in.a) + pending
			pending = 0
			want := int(in.b)
			switch {
			case total < want:
				for i := total; i < want; i++ {
					push(nil)
				}
			case total > want:
				vs.popN(total - want)
			}

		default:
			return nil, &RuntimeError{Line: int(in.line), Msg: "unhandled opcode " + in.op.String()}
		}
	}
}

func (vs *vmState) popN(n int) {
	for i := 0; i < n; i++ {
		vs.stack[len(vs.stack)-1] = nil
		vs.stack = vs.stack[:len(vs.stack)-1]
	}
}

// finishCall copies a host-side call's results over the callee slot and
// applies the caller's result-count contract, returning the new pending.
func (vs *vmState) finishCall(fnIdx int, rs []Value, want, pending int) int {
	// rs may alias the argument region (e.g. assert returns its args);
	// the left-shifting copy below is safe for that overlap.
	n := copy(vs.stack[fnIdx:], rs)
	vs.stack = vs.stack[:fnIdx+n]
	switch {
	case want < 0:
		return len(rs)
	case n < want:
		for i := n; i < want; i++ {
			vs.stack = append(vs.stack, nil)
		}
	case n > want:
		vs.popN(n - want)
	}
	return pending
}

// iterState drives one for-in loop: snapshotted table pairs (matching
// the tree-walker's deterministic iteration), a live ipairs walk, or an
// iterator function.
type iterState struct {
	items []iterKV
	idx   int
	ipt   *Table // non-nil: guarded-ipairs mode
	ipi   int
	fn    Value
	line  int
	pair  [2]Value // reused key/value buffer for table iteration
}

type iterKV struct{ k, v Value }

func newIterState(it Value, line int) (*iterState, error) {
	switch it := it.(type) {
	case *Table:
		st := &iterState{line: line}
		it.Pairs(func(k, v Value) bool {
			st.items = append(st.items, iterKV{k, v})
			return true
		})
		return st, nil
	case *CompiledClosure, GoFunc:
		return &iterState{fn: it, line: line}, nil
	}
	return nil, &RuntimeError{Line: line, Msg: "cannot iterate a " + TypeName(it) + " value"}
}

// sameGoFunc reports whether v is the exact builtin fn. Go function
// values only compare to nil, so identity goes through the code
// pointer; the builtins are package-level singletons, so a matching
// pointer means the global is untouched.
func sameGoFunc(v Value, fn GoFunc) bool {
	g, ok := v.(GoFunc)
	if !ok {
		return false
	}
	return reflect.ValueOf(g).Pointer() == reflect.ValueOf(fn).Pointer()
}

func (st *iterState) next(ip *Interp) ([]Value, bool, error) {
	if st.ipt != nil {
		st.ipi++
		v := st.ipt.Get(float64(st.ipi))
		if v == nil {
			return nil, true, nil
		}
		st.pair[0], st.pair[1] = numValue(float64(st.ipi)), v
		return st.pair[:], false, nil
	}
	if st.fn == nil {
		if st.idx >= len(st.items) {
			return nil, true, nil
		}
		item := st.items[st.idx]
		st.idx++
		st.pair[0], st.pair[1] = item.k, item.v
		return st.pair[:], false, nil
	}
	vals, err := ip.call(st.fn, nil, st.line)
	if err != nil {
		return nil, false, err
	}
	if len(vals) == 0 || vals[0] == nil {
		return nil, true, nil
	}
	return vals, false, nil
}
