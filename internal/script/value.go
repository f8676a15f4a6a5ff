package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is any script value. The dynamic type is one of:
//
//	nil              — the nil value
//	bool             — booleans
//	float64          — numbers
//	string           — strings
//	*Table           — tables
//	*CompiledClosure — script-defined functions
//	GoFunc           — host functions
type Value any

// GoFunc is a host function callable from scripts. It receives the
// interpreter (for re-entrant calls and budget accounting) and the
// evaluated arguments, and returns result values.
type GoFunc func(ip *Interp, args []Value) ([]Value, error)

// Table is the script aggregate type: a hybrid array + hash map, as in
// Lua. Iteration order over the hash part is insertion order, which keeps
// policy evaluation deterministic across runs.
type Table struct {
	arr  []Value         // 1-based dense array part; arr[i] holds key i+1
	hash map[Value]Value // everything else
	keys []Value         // insertion order of hash keys
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{}
}

// NewArray builds a table whose array part holds the given values.
func NewArray(vals ...Value) *Table {
	t := NewTable()
	for i, v := range vals {
		t.Set(float64(i+1), v)
	}
	return t
}

// normKey canonicalizes table keys: integral floats stay float64, and
// that is the only numeric key form. Returns an error value for NaN/nil.
func normKey(k Value) (Value, error) {
	switch k := k.(type) {
	case nil:
		return nil, fmt.Errorf("table index is nil")
	case float64:
		if math.IsNaN(k) {
			return nil, fmt.Errorf("table index is NaN")
		}
		return k, nil
	case bool, string:
		return k, nil
	case *Table, *CompiledClosure:
		return k, nil
	case GoFunc:
		return nil, fmt.Errorf("host function cannot be a table key")
	}
	return nil, fmt.Errorf("invalid table key type %s", TypeName(k))
}

// arrayIndex reports whether key addresses the array part, returning the
// zero-based slot.
func (t *Table) arrayIndex(k Value) (int, bool) {
	f, ok := k.(float64)
	if !ok || f != math.Trunc(f) || f < 1 || f > float64(len(t.arr)+1) {
		return 0, false
	}
	return int(f) - 1, true
}

// Get returns the value stored at key, or nil when absent.
func (t *Table) Get(key Value) Value {
	k, err := normKey(key)
	if err != nil {
		return nil
	}
	if i, ok := t.arrayIndex(k); ok && i < len(t.arr) {
		return t.arr[i]
	}
	if t.hash == nil {
		return nil
	}
	return t.hash[k]
}

// Set stores value at key. Setting nil removes the key.
func (t *Table) Set(key, value Value) error {
	k, err := normKey(key)
	if err != nil {
		return err
	}
	if i, ok := t.arrayIndex(k); ok {
		if i < len(t.arr) {
			t.arr[i] = value
			if value == nil && i == len(t.arr)-1 {
				// Shrink trailing nils so Len stays correct.
				for len(t.arr) > 0 && t.arr[len(t.arr)-1] == nil {
					t.arr = t.arr[:len(t.arr)-1]
				}
			}
			return nil
		}
		if value == nil {
			return nil
		}
		t.arr = append(t.arr, value)
		// Absorb any contiguous successor keys from the hash part.
		for t.hash != nil {
			next := float64(len(t.arr) + 1)
			v, ok := t.hash[next]
			if !ok {
				break
			}
			t.arr = append(t.arr, v)
			t.deleteHash(next)
		}
		return nil
	}
	if value == nil {
		t.deleteHash(k)
		return nil
	}
	if t.hash == nil {
		t.hash = make(map[Value]Value)
	}
	if _, exists := t.hash[k]; !exists {
		t.keys = append(t.keys, k)
	}
	t.hash[k] = value
	return nil
}

func (t *Table) deleteHash(k Value) {
	if t.hash == nil {
		return
	}
	if _, ok := t.hash[k]; !ok {
		return
	}
	delete(t.hash, k)
	for i, kk := range t.keys {
		if kk == k {
			t.keys = append(t.keys[:i], t.keys[i+1:]...)
			break
		}
	}
}

// Len returns the array-part length (the Lua # operator).
func (t *Table) Len() int { return len(t.arr) }

// Pairs calls fn for each key/value pair: array part first in index
// order, then hash part in insertion order. fn returning false stops.
func (t *Table) Pairs(fn func(k, v Value) bool) {
	for i, v := range t.arr {
		if v == nil {
			continue
		}
		if !fn(numValue(float64(i+1)), v) {
			return
		}
	}
	for _, k := range t.keys {
		v := t.hash[k]
		if v == nil {
			continue
		}
		if !fn(k, v) {
			return
		}
	}
}

// Truthy reports Lua truthiness: everything except nil and false.
func Truthy(v Value) bool {
	if v == nil {
		return false
	}
	if b, ok := v.(bool); ok {
		return b
	}
	return true
}

// TypeName returns the script-visible type name of v.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Table:
		return "table"
	case *CompiledClosure, GoFunc:
		return "function"
	}
	return fmt.Sprintf("<%T>", v)
}

// ToString renders v the way print does.
func ToString(v Value) string {
	switch v := v.(type) {
	case nil:
		return "nil"
	case bool:
		if v {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(v)
	case string:
		return v
	case *Table:
		return fmt.Sprintf("table: %p", v)
	case *CompiledClosure:
		return fmt.Sprintf("function: %p", v)
	case GoFunc:
		return "function: builtin"
	}
	return fmt.Sprintf("<%T>", v)
}

func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 14, 64)
}

// ToNumber attempts numeric coercion (numbers pass through; numeric
// strings convert), reporting success.
func ToNumber(v Value) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}
