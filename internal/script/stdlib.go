package script

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// installStdlib wires the built-in library into the global environment.
// The surface area is deliberately small: what Mantle policies and object
// interfaces in the paper actually use (tables, math, strings, print).
func (ip *Interp) installStdlib() {
	def := ip.SetGlobal

	def("print", GoFunc(func(ip *Interp, args []Value) ([]Value, error) {
		fmt.Fprintln(ip.stdout, printArgs(args))
		return nil, nil
	}))

	def("type", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("type: value expected")
		}
		return []Value{TypeName(args[0])}, nil
	}))

	def("tostring", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 {
			return []Value{"nil"}, nil
		}
		return []Value{ToString(args[0])}, nil
	}))

	def("tonumber", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 {
			return []Value{nil}, nil
		}
		f, ok := ToNumber(args[0])
		if !ok {
			return []Value{nil}, nil
		}
		return []Value{f}, nil
	}))

	def("assert", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 || !Truthy(args[0]) {
			msg := "assertion failed!"
			if len(args) > 1 {
				msg = ToString(args[1])
			}
			return nil, fmt.Errorf("%s", msg)
		}
		return args, nil
	}))

	def("error", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		msg := "error"
		if len(args) > 0 {
			msg = ToString(args[0])
		}
		return nil, fmt.Errorf("%s", msg)
	}))

	def("pcall", GoFunc(func(ip *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 {
			return []Value{false, "pcall: function expected"}, nil
		}
		rs, err := ip.call(args[0], args[1:], 0)
		if err != nil {
			return []Value{false, err.Error()}, nil
		}
		return append([]Value{true}, rs...), nil
	}))

	def("pairs", stdPairs)
	def("ipairs", stdIpairs)

	ip.installMath()
	ip.installString()
	ip.installTable()
}

// stdPairs and stdIpairs live at package level so the VM's guarded
// iteration fast path can verify (by function identity) that the
// globals still point at the builtins before bypassing the
// iterator-function protocol.
var stdPairs = GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
	t, ok := argTable(args, 0)
	if !ok {
		return nil, fmt.Errorf("pairs: table expected")
	}
	type kv struct{ k, v Value }
	var items []kv
	t.Pairs(func(k, v Value) bool {
		items = append(items, kv{k, v})
		return true
	})
	i := 0
	iter := GoFunc(func(_ *Interp, _ []Value) ([]Value, error) {
		if i >= len(items) {
			return []Value{nil}, nil
		}
		item := items[i]
		i++
		return []Value{item.k, item.v}, nil
	})
	return []Value{iter}, nil
})

var stdIpairs = GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
	t, ok := argTable(args, 0)
	if !ok {
		return nil, fmt.Errorf("ipairs: table expected")
	}
	i := 0
	iter := GoFunc(func(_ *Interp, _ []Value) ([]Value, error) {
		i++
		v := t.Get(float64(i))
		if v == nil {
			return []Value{nil}, nil
		}
		return []Value{float64(i), v}, nil
	})
	return []Value{iter}, nil
})

func (ip *Interp) installMath() {
	m := NewTable()
	def := func(name string, fn func(float64) float64) {
		m.Set(name, GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
			f, ok := argNumber(args, 0)
			if !ok {
				return nil, fmt.Errorf("math.%s: number expected", name)
			}
			return []Value{fn(f)}, nil
		}))
	}
	def("floor", math.Floor)
	def("ceil", math.Ceil)
	def("abs", math.Abs)
	def("sqrt", math.Sqrt)
	def("exp", math.Exp)
	def("log", math.Log)

	m.Set("huge", math.Inf(1))                                           //nolint:errcheck
	m.Set("pi", math.Pi)                                                 //nolint:errcheck
	m.Set("max", GoFunc(mathMinMax(math.Max, "max")))                    //nolint:errcheck
	m.Set("min", GoFunc(mathMinMax(math.Min, "min")))                    //nolint:errcheck
	m.Set("pow", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		a, aok := argNumber(args, 0)
		b, bok := argNumber(args, 1)
		if !aok || !bok {
			return nil, fmt.Errorf("math.pow: numbers expected")
		}
		return []Value{math.Pow(a, b)}, nil
	}))
	ip.SetGlobal("math", m)
}

func mathMinMax(fn func(a, b float64) float64, name string) func(*Interp, []Value) ([]Value, error) {
	return func(_ *Interp, args []Value) ([]Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("math.%s: at least one number expected", name)
		}
		acc, ok := argNumber(args, 0)
		if !ok {
			return nil, fmt.Errorf("math.%s: number expected", name)
		}
		for i := 1; i < len(args); i++ {
			f, ok := argNumber(args, i)
			if !ok {
				return nil, fmt.Errorf("math.%s: number expected", name)
			}
			acc = fn(acc, f)
		}
		return []Value{acc}, nil
	}
}

func (ip *Interp) installString() {
	s := NewTable()
	s.Set("len", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		if !ok {
			return nil, fmt.Errorf("string.len: string expected")
		}
		return []Value{float64(len(str))}, nil
	}))
	s.Set("sub", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		if !ok {
			return nil, fmt.Errorf("string.sub: string expected")
		}
		i, _ := argNumber(args, 1)
		j := float64(len(str))
		if f, ok := argNumber(args, 2); ok {
			j = f
		}
		lo, hi := strRange(int(i), int(j), len(str))
		return []Value{str[lo:hi]}, nil
	}))
	s.Set("upper", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		if !ok {
			return nil, fmt.Errorf("string.upper: string expected")
		}
		return []Value{strings.ToUpper(str)}, nil
	}))
	s.Set("lower", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		if !ok {
			return nil, fmt.Errorf("string.lower: string expected")
		}
		return []Value{strings.ToLower(str)}, nil
	}))
	s.Set("rep", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		n, nok := argNumber(args, 1)
		if !ok || !nok || n < 0 || n > 1e6 {
			return nil, fmt.Errorf("string.rep: bad arguments")
		}
		return []Value{strings.Repeat(str, int(n))}, nil
	}))
	s.Set("find", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		str, ok := argString(args, 0)
		pat, pok := argString(args, 1)
		if !ok || !pok {
			return nil, fmt.Errorf("string.find: strings expected")
		}
		// Plain substring search (no Lua patterns).
		idx := strings.Index(str, pat)
		if idx < 0 {
			return []Value{nil}, nil
		}
		return []Value{float64(idx + 1), float64(idx + len(pat))}, nil
	}))
	s.Set("format", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		f, ok := argString(args, 0)
		if !ok {
			return nil, fmt.Errorf("string.format: format string expected")
		}
		out, err := scriptFormat(f, args[1:])
		if err != nil {
			return nil, err
		}
		return []Value{out}, nil
	}))
	ip.SetGlobal("string", s)
}

// scriptFormat implements a useful subset of string.format: %d %s %f %g
// %x %% and width/precision modifiers.
func scriptFormat(f string, args []Value) (string, error) {
	var b strings.Builder
	arg := 0
	next := func() (Value, error) {
		if arg >= len(args) {
			return nil, fmt.Errorf("string.format: not enough arguments")
		}
		v := args[arg]
		arg++
		return v, nil
	}
	for i := 0; i < len(f); i++ {
		c := f[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		j := i + 1
		for j < len(f) && strings.IndexByte("-+ #0123456789.", f[j]) >= 0 {
			j++
		}
		if j >= len(f) {
			return "", fmt.Errorf("string.format: truncated directive")
		}
		spec := f[i : j+1]
		verb := f[j]
		i = j
		switch verb {
		case '%':
			b.WriteByte('%')
		case 'd', 'x', 'X':
			v, err := next()
			if err != nil {
				return "", err
			}
			n, ok := ToNumber(v)
			if !ok {
				return "", fmt.Errorf("string.format: %%%c expects a number", verb)
			}
			fmt.Fprintf(&b, spec, int64(n))
		case 'f', 'g', 'e':
			v, err := next()
			if err != nil {
				return "", err
			}
			n, ok := ToNumber(v)
			if !ok {
				return "", fmt.Errorf("string.format: %%%c expects a number", verb)
			}
			fmt.Fprintf(&b, spec, n)
		case 's', 'q':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, spec, ToString(v))
		default:
			return "", fmt.Errorf("string.format: unsupported verb %%%c", verb)
		}
	}
	return b.String(), nil
}

func (ip *Interp) installTable() {
	t := NewTable()
	t.Set("insert", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		tbl, ok := argTable(args, 0)
		if !ok {
			return nil, fmt.Errorf("table.insert: table expected")
		}
		switch len(args) {
		case 2:
			return nil, tbl.Set(float64(tbl.Len()+1), args[1])
		case 3:
			posN, ok := argNumber(args, 1)
			if !ok {
				return nil, fmt.Errorf("table.insert: position must be a number")
			}
			n := tbl.Len()
			p := int(posN)
			if p < 1 || p > n+1 {
				return nil, fmt.Errorf("table.insert: position out of bounds")
			}
			for i := n; i >= p; i-- {
				tbl.Set(float64(i+1), tbl.Get(float64(i))) //nolint:errcheck
			}
			return nil, tbl.Set(float64(p), args[2])
		}
		return nil, fmt.Errorf("table.insert: wrong number of arguments")
	}))
	t.Set("remove", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		tbl, ok := argTable(args, 0)
		if !ok {
			return nil, fmt.Errorf("table.remove: table expected")
		}
		n := tbl.Len()
		if n == 0 {
			return []Value{nil}, nil
		}
		p := n
		if f, ok := argNumber(args, 1); ok {
			p = int(f)
			if p < 1 || p > n {
				return nil, fmt.Errorf("table.remove: position out of bounds")
			}
		}
		removed := tbl.Get(float64(p))
		for i := p; i < n; i++ {
			tbl.Set(float64(i), tbl.Get(float64(i+1))) //nolint:errcheck
		}
		tbl.Set(float64(n), nil) //nolint:errcheck
		return []Value{removed}, nil
	}))
	t.Set("sort", GoFunc(func(ip *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		tbl, ok := argTable(args, 0)
		if !ok {
			return nil, fmt.Errorf("table.sort: table expected")
		}
		n := tbl.Len()
		vals := make([]Value, n)
		for i := 0; i < n; i++ {
			vals[i] = tbl.Get(float64(i + 1))
		}
		var sortErr error
		less := func(a, b Value) bool {
			if len(args) > 1 {
				rs, err := ip.call(args[1], []Value{a, b}, 0)
				if err != nil {
					sortErr = err
					return false
				}
				return len(rs) > 0 && Truthy(rs[0])
			}
			if af, ok := a.(float64); ok {
				if bf, ok := b.(float64); ok {
					return af < bf
				}
			}
			if as, ok := a.(string); ok {
				if bs, ok := b.(string); ok {
					return as < bs
				}
			}
			sortErr = fmt.Errorf("table.sort: incomparable values")
			return false
		}
		sort.SliceStable(vals, func(i, j int) bool { return less(vals[i], vals[j]) })
		if sortErr != nil {
			return nil, sortErr
		}
		for i, v := range vals {
			tbl.Set(float64(i+1), v) //nolint:errcheck
		}
		return nil, nil
	}))
	t.Set("concat", GoFunc(func(_ *Interp, args []Value) ([]Value, error) { //nolint:errcheck
		tbl, ok := argTable(args, 0)
		if !ok {
			return nil, fmt.Errorf("table.concat: table expected")
		}
		sep := ""
		if s, ok := argString(args, 1); ok {
			sep = s
		}
		var parts []string
		for i := 1; i <= tbl.Len(); i++ {
			v := tbl.Get(float64(i))
			s, ok := concatible(v)
			if !ok {
				return nil, fmt.Errorf("table.concat: invalid value at index %d", i)
			}
			parts = append(parts, s)
		}
		return []Value{strings.Join(parts, sep)}, nil
	}))
	ip.SetGlobal("table", t)
}

func strRange(i, j, n int) (int, int) {
	if i < 0 {
		i = n + i + 1
	}
	if j < 0 {
		j = n + j + 1
	}
	if i < 1 {
		i = 1
	}
	if j > n {
		j = n
	}
	if i > j {
		return 0, 0
	}
	return i - 1, j
}

func argTable(args []Value, i int) (*Table, bool) {
	if i >= len(args) {
		return nil, false
	}
	t, ok := args[i].(*Table)
	return t, ok
}

func argNumber(args []Value, i int) (float64, bool) {
	if i >= len(args) {
		return 0, false
	}
	return ToNumber(args[i])
}

func argString(args []Value, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	s, ok := args[i].(string)
	return s, ok
}
