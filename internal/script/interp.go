package script

import (
	"fmt"
	"io"
	"strings"
)

// RuntimeError describes a failure while executing a script.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("script: runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrBudget is the message used when a script exceeds its step budget.
const ErrBudget = "instruction budget exhausted"

// DefaultBudget is the per-Run step allowance. Daemons embed scripts in
// their tick paths, so runaway policies must be cut off rather than
// wedging the daemon (Section 4 of the paper motivates sandboxing).
const DefaultBudget = 5_000_000

// DefaultMaxDepth bounds script call-stack depth.
const DefaultMaxDepth = 200

// Interp runs compiled scripts against a global environment shared
// across Run and Call invocations, so hosts can install tables (e.g. the
// Mantle metrics) and read back results.
type Interp struct {
	globals      map[string]Value
	globalWrites uint64 // SetGlobal calls, the VM's included (GlobalWrites)
	stdout       io.Writer

	budget    int64 // steps remaining in the current Run/Call
	runBudget int64 // budget installed at the start of each Run/Call
	maxDepth  int
	depth     int

	vmFree *vmState // freelist of pooled VM activations
}

// Option configures an Interp.
type Option func(*Interp)

// WithBudget sets the per-invocation step budget.
func WithBudget(steps int64) Option {
	return func(ip *Interp) { ip.runBudget = steps }
}

// WithStdout redirects the script's print output.
func WithStdout(w io.Writer) Option {
	return func(ip *Interp) { ip.stdout = w }
}

// WithMaxDepth sets the maximum call-stack depth.
func WithMaxDepth(d int) Option {
	return func(ip *Interp) { ip.maxDepth = d }
}

// New builds an interpreter with the standard library installed.
func New(opts ...Option) *Interp {
	ip := &Interp{
		globals:   make(map[string]Value),
		stdout:    io.Discard,
		runBudget: DefaultBudget,
		maxDepth:  DefaultMaxDepth,
	}
	for _, o := range opts {
		o(ip)
	}
	ip.installStdlib()
	return ip
}

// SetGlobal installs a global variable visible to scripts. Every global
// assignment goes through it, the VM's included.
func (ip *Interp) SetGlobal(name string, v Value) {
	ip.globals[name] = v
	ip.globalWrites++
}

// Global reads a global variable (nil when unset).
func (ip *Interp) Global(name string) Value { return ip.globals[name] }

// GlobalWrites counts the assignments made to globals on this
// interpreter — by scripts, including the definitions a chunk's top
// level makes, and by the host. A host that reuses an interpreter
// compares it across a call to learn whether the call left global state
// behind.
func (ip *Interp) GlobalWrites() uint64 { return ip.globalWrites }

// Run compiles src and runs it as a chunk, returning its return values.
// Hosts that run the same source repeatedly compile it once with
// Compile and call CompiledChunk.Run instead.
func (ip *Interp) Run(src string) ([]Value, error) {
	chunk, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return chunk.Run(ip)
}

// Call invokes a script value (compiled closure or host function) with
// args, refreshing the step budget. Use it for policy callbacks like
// Mantle's when().
func (ip *Interp) Call(fn Value, args ...Value) ([]Value, error) {
	ip.budget = ip.runBudget
	return ip.call(fn, args, 0)
}

// call dispatches one call at the given source line, charging one level
// of call depth.
func (ip *Interp) call(fn Value, args []Value, line int) ([]Value, error) {
	ip.depth++
	defer func() { ip.depth-- }()
	if ip.depth > ip.maxDepth {
		return nil, &RuntimeError{Line: line, Msg: "call stack too deep"}
	}
	switch fn := fn.(type) {
	case GoFunc:
		return fn(ip, args)
	case *CompiledClosure:
		return ip.callCompiled(fn, args)
	}
	return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("attempt to call a %s value", TypeName(fn))}
}

func pick(useFirst bool, a, b Value) Value {
	if useFirst {
		return a
	}
	return b
}

func concatible(v Value) (string, bool) {
	switch v := v.(type) {
	case string:
		return v, true
	case float64:
		return formatNumber(v), true
	}
	return "", false
}

func valueEq(a, b Value) bool {
	if a == nil && b == nil {
		return true
	}
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case *Table:
		bv, ok := b.(*Table)
		return ok && av == bv
	case *CompiledClosure:
		bv, ok := b.(*CompiledClosure)
		return ok && av == bv
	}
	return false
}

// printArgs renders values print-style, tab separated.
func printArgs(args []Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ToString(a)
	}
	return strings.Join(parts, "\t")
}
