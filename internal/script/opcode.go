package script

import "fmt"

// The bytecode layer compiles the AST once into a compact stack-machine
// program so the hot programmable paths (object-class calls, Mantle
// ticks) stop paying the tree-walker's per-node dispatch and per-scope
// map allocations. Locals become indexed frame slots, constants are
// pooled per chunk, and control flow becomes patched jumps.

// Opcode identifies one VM instruction.
type Opcode uint8

// Instruction set. Operands a, b, c are instruction-specific; every
// instruction carries the source line of the AST node it was compiled
// from so runtime errors attribute exactly like the tree-walker's.
const (
	opConst         Opcode = iota // push consts[a]
	opNil                         // push nil
	opTrue                        // push true
	opFalse                       // push false
	opPop                         // pop a values
	opLoadSlot                    // push slots[a]
	opStoreSlot                   // slots[a] = pop
	opLoadCell                    // push slots[a].(*cell).v
	opStoreCell                   // slots[a].(*cell).v = pop
	opNewCell                     // slots[a] = new empty cell
	opCellParam                   // slots[a] = cell boxing the raw value in slots[a]
	opLoadUp                      // push upvalue cell a's value
	opStoreUp                     // upvalue cell a's value = pop
	opGetGlobal                   // push globals[consts[a]]
	opSetGlobal                   // globals[consts[a]] = pop
	opIndex                       // key=pop, obj=pop; push obj[key]
	opCheckTable                  // error unless peek is a table (index-assignment pre-check)
	opSetIndex                    // val=pop, key=pop, tbl=pop; tbl[key]=val
	opNewTable                    // push fresh table
	opTableSet                    // val=pop, key=pop; peek.Set(key, val)
	opTableApp                    // val=pop; peek.Set(a, val) — positional constructor field
	opTableAppM                   // append the pending multi values at array index a
	opClosure                     // push closure over protos[a] capturing per proto.ups
	opMethod                      // recv=pop (must be table); push recv[consts[a]], recv
	opCall                        // call with a args, want b results (-1 = all → pending)
	opCallM                       // like opCall but args = a fixed + pending multi
	opReturn                      // return a values popped from the stack
	opReturnM                     // return a fixed values + pending multi
	opJump                        // pc = a
	opJumpIfFalse                 // v=pop; if !truthy(v) pc = a
	opJumpFalseKeep               // if !truthy(peek) pc = a, else pop (and/or chains)
	opJumpTrueKeep                // if truthy(peek) pc = a, else pop
	opBin                         // r=pop, l=pop; push l <Kind(a)> r
	opUn                          // v=pop; push <Kind(a)> v
	opVarargX                     // v=pop (vararg table or nil); push its first value
	opToNumber                    // coerce peek to a number or fail (for-loop bounds)
	opForPrep                     // step,stop,start=pop3 → slots[a..a+2]; empty range → pc = b
	opForLoop                     // slots[a] += step; if still in range pc = b
	opIterPrep                    // it=pop; slots[a] = iterator state over it
	opIterPrepG                   // guarded pairs/ipairs: t=pop; b: 0=pairs 1=ipairs; c=call line
	opIterNext                    // advance slots[a]; done → pc = b, else push c values
	opAdjustM                     // normalize a fixed + pending values to exactly b values
)

var opNames = [...]string{
	opConst: "CONST", opNil: "NIL", opTrue: "TRUE", opFalse: "FALSE",
	opPop: "POP", opLoadSlot: "LOADSLOT", opStoreSlot: "STORESLOT",
	opLoadCell: "LOADCELL", opStoreCell: "STORECELL", opNewCell: "NEWCELL",
	opCellParam: "CELLPARAM", opLoadUp: "LOADUP", opStoreUp: "STOREUP",
	opGetGlobal: "GETGLOBAL", opSetGlobal: "SETGLOBAL", opIndex: "INDEX",
	opCheckTable: "CHECKTABLE", opSetIndex: "SETINDEX", opNewTable: "NEWTABLE",
	opTableSet: "TABLESET", opTableApp: "TABLEAPP", opTableAppM: "TABLEAPPM",
	opClosure: "CLOSURE", opMethod: "METHOD", opCall: "CALL", opCallM: "CALLM",
	opReturn: "RETURN", opReturnM: "RETURNM", opJump: "JUMP",
	opJumpIfFalse: "JFALSE", opJumpFalseKeep: "JFALSEKEEP",
	opJumpTrueKeep: "JTRUEKEEP", opBin: "BIN", opUn: "UN",
	opVarargX: "VARARGX", opToNumber: "TONUM", opForPrep: "FORPREP",
	opForLoop: "FORLOOP", opIterPrep: "ITERPREP", opIterPrepG: "ITERPREPG",
	opIterNext: "ITERNEXT", opAdjustM: "ADJUSTM",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// instr is one instruction. Operand meaning depends on the opcode; line
// is the source line for error attribution and budget errors.
type instr struct {
	op      Opcode
	a, b, c int32
	line    int32
}

// proto is one compiled function body.
type proto struct {
	code     []instr
	params   int
	variadic bool
	// varargSlot is the frame slot holding the `...` table of a
	// variadic function (the slot right after the parameters).
	varargSlot int
	// numSlots is the frame size: parameters, vararg slot, locals, and
	// hidden loop/assignment temporaries.
	numSlots int
	// ups describes how to capture each upvalue when a closure over
	// this proto is created: from the creating frame's slots (cells) or
	// from the creating closure's own upvalues.
	ups  []upvalRef
	name string
	line int
}

// upvalRef tells opClosure where one captured variable lives at
// closure-creation time.
type upvalRef struct {
	fromParent bool // true: parent frame slot (a cell); false: parent upvalue
	index      int
}

// cell boxes one captured local so closures and the defining frame share
// mutations, mirroring the tree-walker's shared-Env semantics.
type cell struct{ v Value }

// CompiledChunk is a script compiled to bytecode. Compile once, then
// Run any number of times (against the same or different interpreters);
// the chunk itself is immutable and safe for concurrent Run calls on
// distinct interpreters.
type CompiledChunk struct {
	main   *proto
	protos []*proto
	consts []Value
	// mainCl is the preallocated closure over main (no upvalues), so Run
	// does not allocate per invocation.
	mainCl *CompiledClosure
}

// CompiledClosure is a bytecode function plus its captured upvalues:
// every script-defined function value. It is created by executing
// compiled code and is callable through Interp.Call.
type CompiledClosure struct {
	chunk *CompiledChunk
	proto *proto
	ups   []*cell
}

// Disasm renders the chunk's bytecode for debugging and docs.
func (c *CompiledChunk) Disasm() string {
	out := c.disasmProto(c.main, "main")
	for i, p := range c.protos {
		out += c.disasmProto(p, fmt.Sprintf("fn%d %s", i, p.name))
	}
	return out
}

func (c *CompiledChunk) disasmProto(p *proto, title string) string {
	out := fmt.Sprintf("%s: params=%d variadic=%v slots=%d ups=%d\n",
		title, p.params, p.variadic, p.numSlots, len(p.ups))
	for i, in := range p.code {
		detail := ""
		switch in.op {
		case opConst, opGetGlobal, opSetGlobal, opMethod:
			detail = fmt.Sprintf(" ; %v", c.consts[in.a])
		case opBin, opUn:
			detail = fmt.Sprintf(" ; %s", Kind(in.a))
		}
		out += fmt.Sprintf("  %4d  %-10s %5d %5d %5d  (line %d)%s\n",
			i, in.op, in.a, in.b, in.c, in.line, detail)
	}
	return out
}
