package script

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The differential suite runs every program through the reference
// tree-walker (oracle_test.go) AND the production compiler + VM and
// requires identical results: same values, same print output, and — for
// failing programs — the same error message including the attributed
// line. Budget exhaustion is the one sanctioned exception (the engines
// count steps differently), compared by message only.

// diffSetup installs identical host state into an interpreter.
type diffSetup func(ip *Interp)

func runBoth(t *testing.T, src string, budget int64, depth int, setup diffSetup) {
	t.Helper()

	newIP := func(out *bytes.Buffer) *Interp {
		opts := []Option{WithStdout(out)}
		if budget > 0 {
			opts = append(opts, WithBudget(budget))
		}
		if depth > 0 {
			opts = append(opts, WithMaxDepth(depth))
		}
		ip := New(opts...)
		if setup != nil {
			setup(ip)
		}
		return ip
	}

	var iOut, vOut bytes.Buffer
	iIP := newIP(&iOut)
	iVals, iErr := oracleRun(iIP, src)

	vIP := newIP(&vOut)
	chunk, cErr := Compile(src)
	if cErr != nil {
		t.Fatalf("Compile(%q): %v (oracle err: %v)", src, cErr, iErr)
	}
	vVals, vErr := chunk.Run(vIP)

	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("source %q:\noracle err: %v\nvm err:     %v", src, iErr, vErr)
	}
	if iErr != nil {
		if strings.Contains(iErr.Error(), ErrBudget) || strings.Contains(vErr.Error(), ErrBudget) {
			if !strings.Contains(iErr.Error(), ErrBudget) || !strings.Contains(vErr.Error(), ErrBudget) {
				t.Fatalf("source %q: budget divergence:\noracle err: %v\nvm err:     %v", src, iErr, vErr)
			}
			return
		}
		if iErr.Error() != vErr.Error() {
			t.Fatalf("source %q: error mismatch (line attribution matters):\noracle: %v\nvm:     %v", src, iErr, vErr)
		}
		return
	}
	if !valsEqual(iVals, vVals) {
		t.Fatalf("source %q:\noracle: %s\nvm:     %s", src, renderVals(iVals), renderVals(vVals))
	}
	if iOut.String() != vOut.String() {
		t.Fatalf("source %q: print output mismatch:\noracle: %q\nvm:     %q", src, iOut.String(), vOut.String())
	}
}

func valsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !deepValueEqual(a[i], b[i], 0) {
			return false
		}
	}
	return true
}

// deepValueEqual compares script values structurally: tables compare by
// contents in iteration order (order is part of the engine contract);
// functions compare by being functions.
func deepValueEqual(a, b Value, d int) bool {
	if d > 16 {
		return true // cyclic or absurdly deep; call it equal
	}
	switch av := a.(type) {
	case *Table:
		bv, ok := b.(*Table)
		if !ok {
			return false
		}
		type kv struct{ k, v Value }
		var ap, bp []kv
		av.Pairs(func(k, v Value) bool { ap = append(ap, kv{k, v}); return true })
		bv.Pairs(func(k, v Value) bool { bp = append(bp, kv{k, v}); return true })
		if len(ap) != len(bp) {
			return false
		}
		for i := range ap {
			if !deepValueEqual(ap[i].k, bp[i].k, d+1) || !deepValueEqual(ap[i].v, bp[i].v, d+1) {
				return false
			}
		}
		return true
	case *CompiledClosure, GoFunc:
		return TypeName(b) == "function"
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return false
		}
		return av == bv || (av != av && bv != bv) // NaN == NaN for our purposes
	default:
		return valueEq(a, b)
	}
}

func renderVals(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%s(%s)", ToString(v), TypeName(v))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// corpusPrograms is every script source exercised by the existing
// interpreter tests (script_test.go, robust_test.go, the stdlib tests).
var corpusPrograms = []string{
	// Arithmetic.
	"return 1+2*3",
	"return (1+2)*3",
	"return 10/4",
	"return 2^10",
	"return 2^3^2",
	"return 7 % 3",
	"return -7 % 3",
	"return -2^2",
	"return 0x10",
	"return 1.5e2",
	// Comparison and logic.
	"return 1 < 2",
	"return 2 <= 2",
	"return 3 ~= 4",
	"return 'abc' < 'abd'",
	"return not nil",
	"return not 0",
	"return false or 5",
	"return 3 and 4",
	"return nil and 'x' or 'y'",
	// Strings and concat.
	`return "a" .. "b" .. "c"`,
	`return "n=" .. 42`,
	`return #"hello"`,
	`return "a\tb\n"`,
	// Locals and scope.
	"local x = 1\ndo\n\tlocal x = 2\nend\nreturn x",
	"x = 5\nlocal function bump() x = x + 1 end\nbump()\nbump()\nreturn x",
	// Multiple assignment.
	"local a, b = 1, 2  a, b = b, a  return a",
	"local a, b = 1  return a + (b == nil and 10 or 0)",
	"local function two() return 3, 4 end\nlocal a, b = two()\nreturn a * 10 + b",
	"local function two() return 3, 4 end\nlocal a, b = two(), 9\nreturn a * 10 + b",
	// Control flow.
	"local s = 0\nfor i = 1, 10 do s = s + i end\nreturn s",
	"local s = 0\nfor i = 10, 1, -2 do s = s + i end\nreturn s",
	"local s, i = 0, 0\nwhile i < 5 do i = i + 1 s = s + i end\nreturn s",
	"local i = 0\nrepeat i = i + 1 until i >= 4\nreturn i",
	"local s = 0\nfor i = 1, 100 do\n\tif i > 3 then break end\n\ts = s + i\nend\nreturn s",
	"local x = 15\nif x < 10 then return \"small\"\nelseif x < 20 then return \"medium\"\nelse return \"large\" end",
	"local n = 0\nrepeat\n\tlocal done = true\n\tn = n + 1\nuntil done\nreturn n",
	// Functions and closures.
	"local function make()\n\tlocal n = 0\n\treturn function() n = n + 1 return n end\nend\nlocal c = make()\nc() c()\nreturn c()",
	"local function fib(n)\n\tif n < 2 then return n end\n\treturn fib(n-1) + fib(n-2)\nend\nreturn fib(15)",
	"local f = function(a, b) return a - b end\nreturn f(10, 4)",
	// Variadic (first value only — engine quirk preserved).
	"local function first(...) return ... end\nreturn first(42, 1, 2)",
	// Tables.
	"local t = {10, 20, 30}\nreturn t[1] + t[3]",
	"local t = {} t[1]=1 t[2]=2 t[3]=3 return #t",
	"local t = {name = \"osd\", [\"kind\"] = \"daemon\"}\nreturn t.name .. \"/\" .. t.kind",
	"local t = {a = {b = {c = 99}}}\nreturn t.a.b.c",
	"local t = {1,2,3} t[3] = nil return #t",
	"local t = {} t[2]=2 t[1]=1 return #t",
	"local t = {x = 1, 5, y = 2, 6} return t[1]*10 + t[2]",
	// Method call sugar.
	"local obj = {count = 5}\nfunction obj.get(self) return self.count end\nreturn obj:get()",
	"local stack = {items = {}, n = 0}\nfunction stack.push(self, v)\n\tself.n = self.n + 1\n\tself.items[self.n] = v\nend\nfunction stack.pop(self)\n\tlocal v = self.items[self.n]\n\tself.items[self.n] = nil\n\tself.n = self.n - 1\n\treturn v\nend\nstack:push(7)\nstack:push(9)\nstack:pop()\nreturn stack:pop()",
	// Generic for.
	"local t = {3, 4, 5}\nlocal s = 0\nfor i, v in ipairs(t) do s = s + i * v end\nreturn s",
	"local t = {a = 1, b = 2, c = 3}\nlocal s = 0\nfor k, v in pairs(t) do s = s + v end\nreturn s",
	"local t = {10, 20}\nlocal s = 0\nfor k, v in t do s = s + v end\nreturn s",
	"local t = {}\nt.zebra = 1 t.apple = 2 t.mango = 3\nlocal out = \"\"\nfor k, v in pairs(t) do out = out .. k .. \",\" end\nreturn out",
	// Stdlib: math.
	"return math.floor(3.7)",
	"return math.ceil(3.2)",
	"return math.abs(-4)",
	"return math.max(1, 9, 4)",
	"return math.min(1, 9, 4)",
	"return math.sqrt(81)",
	"return math.huge > 1e300",
	// Stdlib: string.
	`return string.len("abcd")`,
	`return string.sub("metadata", 1, 4)`,
	`return string.sub("metadata", -4)`,
	`return string.upper("osd")`,
	`return string.rep("ab", 3)`,
	`return string.find("sequencer", "que")`,
	`return string.format("mds.%d load=%.2f", 3, 1.5)`,
	`return string.format("%s=%d", "quota", 100)`,
	// Stdlib: table.
	"local t = {}\ntable.insert(t, 5)\ntable.insert(t, 7)\ntable.insert(t, 1, 3)\nreturn t[1]*100 + t[2]*10 + t[3]",
	"local t = {1, 2, 3}\nlocal v = table.remove(t)\nreturn v * 10 + #t",
	"local t = {3, 1, 2}\ntable.sort(t)\nreturn table.concat(t, \"-\")",
	"local t = {\"b\", \"c\", \"a\"}\ntable.sort(t, function(x, y) return x > y end)\nreturn table.concat(t)",
	// Type conversions.
	"return type({})",
	"return type(1)",
	"return type('x')",
	"return type(nil)",
	"return type(print)",
	`return tonumber("42") + 1`,
	`return tonumber("zzz") == nil`,
	"return tostring(1.5)",
	"return tostring(true)",
	// pcall / error.
	"local ok, err = pcall(function() error(\"boom\") end)\nreturn ok == false and string.find(err, \"boom\") ~= nil",
	"local ok, v = pcall(function() return 9 end)\nreturn v",
	// Print output.
	`print("hello", 1, nil)`,
	// Comments.
	"-- line comment\nlocal x = 1 -- trailing\n--[[ block\ncomment ]]\nreturn x",
	// Number formatting.
	"return tostring(3)",
	"return tostring(-0.5)",
	"return 1 .. ''",
	// Runtime error programs (message + line must match).
	"return nil + 1",
	`return {} .. "x"`,
	"local x = nil return x.field",
	"local f = 5 return f()",
	"return #5",
	"local t = {} t[nil] = 1",
	// Robustness corpus.
	"return (nil)()",
	"local t = {} return t[t]",
	"return 1/0",
	"return 0/0",
	"return -(-(-(1)))",
	"local a a = a return a",
	"for i = 1, 0 do error('never') end return 1",
	"return #{} + #''",
	"local s = '' for i = 1, 100 do s = s .. i end return s",
	"return ({1,2,3})[9]",
	"t = {} t[1.5] = 'x' return t[1.5]",
	"return tostring(nil) .. tostring(true)",
	"local ok, e = pcall(error) return tostring(ok)",
	"return 1/0 > 1e308, 0/0 ~= 0/0",
}

// adversarialPrograms stress the compiler's corners: multi-value
// plumbing, upvalue capture, scoping edge cases, and — crucially —
// error-line attribution on multi-line programs.
var adversarialPrograms = []string{
	// Multi-value expansion and truncation.
	"local function mv() return 1, 2, 3 end\nreturn mv()",
	"local function mv() return 1, 2, 3 end\nreturn (mv())",
	"local function mv() return 1, 2, 3 end\nlocal a, b, c, d = mv()\nreturn a, b, c, d",
	"local function mv() return 1, 2, 3 end\nlocal t = {mv()}\nreturn #t, t[1], t[3]",
	"local function mv() return 1, 2, 3 end\nlocal t = {0, mv()}\nreturn #t, t[4]",
	"local function mv() return 1, 2, 3 end\nlocal t = {mv(), 0}\nreturn #t, t[1], t[2]",
	"local function mv() return 1, 2, 3 end\nreturn mv(), mv()",
	"local function mv() return 1, 2, 3 end\nlocal function sum(a, b, c, d, e, f) return (a or 0)+(b or 0)+(c or 0)+(d or 0)+(e or 0)+(f or 0) end\nreturn sum(mv(), mv())",
	"local function none() end\nlocal a, b = none()\nreturn a == nil and b == nil",
	"local function none() end\nreturn none()",
	"local a, b, c = 1, 2\nreturn a, b, c",
	"local a = 1, 2, 3\nreturn a",
	"local function mv() return 7, 8 end\nlocal x = mv()\nreturn x",
	// select-like: nested calls only expand in tail position.
	"local function mv() return 1, 2 end\nlocal function id(...) return ... end\nreturn id(mv())",
	// Assignment ordering and index targets.
	"local t = {}\nlocal i = 1\nt[i], i = 10, 2\nreturn t[1], i",
	"local t = {1, 2}\nt[1], t[2] = t[2], t[1]\nreturn t[1], t[2]",
	"a, b = 1\nreturn a, b == nil",
	"local x = 5\nx, x = 1, 2\nreturn x",
	// Duplicate names in one local statement: last wins.
	"local a, a = 1, 2\nreturn a",
	// Same-scope redeclaration shares the variable with prior closures.
	"local x = 1\nlocal f = function() return x end\nlocal x = 2\nreturn f() + x",
	// Closures and upvalues.
	"local fns = {}\nfor i = 1, 3 do fns[i] = function() return i end end\nreturn fns[1]() * 100 + fns[2]() * 10 + fns[3]()",
	"local fns = {}\nlocal i = 1\nwhile i <= 3 do\n\tlocal j = i\n\tfns[i] = function() return j end\n\ti = i + 1\nend\nreturn fns[1]() * 100 + fns[2]() * 10 + fns[3]()",
	"local function counter()\n\tlocal n = 0\n\treturn function() n = n + 1 return n end, function() return n end\nend\nlocal inc, get = counter()\ninc() inc()\nreturn get()",
	"local x = 10\nlocal function outer()\n\tlocal function inner() return x end\n\treturn inner()\nend\nreturn outer()",
	"local function adder(n)\n\treturn function(m) return n + m end\nend\nreturn adder(3)(4)",
	"local g = 1\nlocal function deep()\n\treturn function()\n\t\treturn function() g = g + 1 return g end\n\tend\nend\nreturn deep()()()",
	// Mutual recursion via predeclared local (works in both engines).
	"local odd\nlocal function even(n) if n == 0 then return true end return odd(n-1) end\nodd = function(n) if n == 0 then return false end return even(n-1) end\nreturn even(10), odd(10)",
	// Recursion through a local function name.
	"local function fact(n) if n <= 1 then return 1 end return n * fact(n-1) end\nreturn fact(10)",
	// Globals vs locals.
	"g1 = 7\nlocal function f() g1 = g1 + 1 return g1 end\nreturn f() + g1",
	"local function f() undefined_global = 3 end\nf()\nreturn undefined_global",
	"return undefined_global_read == nil",
	// Varargs.
	"local function f(...) return ... end\nreturn f()",
	"local function f(a, ...) return a, ... end\nreturn f(1, 2, 3)",
	"local function f(...) local t = {...} return #t end\nreturn f(9, 8, 7)",
	"local function outer(...)\n\tlocal function inner() return ... end\n\treturn inner()\nend\nreturn outer(5, 6)",
	"return ...",
	// Table constructor corners.
	"local t = {[1] = 'a', [2] = 'b'}\nreturn #t, t[1]",
	"local t = {nil, 2}\nreturn t[2]",
	"local t = {1, nil, 3}\nreturn t[3]",
	"local k = 'key'\nlocal t = {[k] = 1, key2 = 2}\nreturn t.key + t.key2",
	// String indexing via the string library (s:method() sugar).
	"local s = 'hello'\nreturn s:len()",
	"local s = 'hello'\nreturn s:upper()",
	"return ('abc'):sub(2, 3)",
	// repeat/until scoping with closures.
	"local f\nlocal n = 0\nrepeat\n\tlocal x = n\n\tf = function() return x end\n\tn = n + 1\nuntil n > 2\nreturn f()",
	// Nested loops and break.
	"local s = 0\nfor i = 1, 3 do\n\tfor j = 1, 3 do\n\t\tif j == 2 then break end\n\t\ts = s + i * j\n\tend\nend\nreturn s",
	"local s = 0\nlocal i = 0\nwhile true do\n\ti = i + 1\n\tif i > 4 then break end\n\trepeat\n\t\ts = s + i\n\t\tbreak\n\tuntil false\nend\nreturn s",
	// Numeric for with expressions and float steps.
	"local s = 0\nfor i = 0.5, 2.5, 0.5 do s = s + i end\nreturn s",
	"local s = 0\nfor i = 3, 1 do s = s + 1 end\nreturn s",
	"local n = '3'\nlocal s = 0\nfor i = 1, n do s = s + i end\nreturn s",
	// Generic for over an explicit iterator closure.
	"local function range(n)\n\tlocal i = 0\n\treturn function()\n\t\ti = i + 1\n\t\tif i <= n then return i end\n\tend\nend\nlocal s = 0\nfor v in range(4) do s = s + v end\nreturn s",
	"local s = ''\nfor k in pairs({x = 1}) do s = s .. k end\nreturn s",
	// break inside generic for.
	"local s = 0\nfor i, v in ipairs({5, 6, 7}) do\n\tif i == 2 then break end\n\ts = s + v\nend\nreturn s",
	// Guarded-iteration edge cases: the VM's pairs/ipairs fast path must
	// fall back bit-for-bit when the builtin is shadowed or rebound.
	"local pairs = function(t) local done = false return function() if done then return nil end done = true return 'only', 99 end end\nlocal out = ''\nfor k, v in pairs({a=1, b=2}) do out = out .. k .. tostring(v) end\nreturn out",
	"pairs = ipairs\nlocal s = 0\nfor i, v in pairs({7, 8}) do s = s + i * v end\nreturn s",
	"for k, v in pairs(42) do end",
	"for k, v in ipairs('str') do end",
	"for k, v in pairs() do end",
	"pairs = nil\nfor k in pairs({1}) do end",
	"local function shadowed()\n\tlocal ipairs = function(t) return function() end end\n\tlocal n = 0\n\tfor i in ipairs({1, 2, 3}) do n = n + 1 end\n\treturn n\nend\nreturn shadowed()",
	"local mutated = {1, 2, 3}\nlocal s = ''\nfor k, v in pairs(mutated) do s = s .. tostring(v) mutated[4] = 9 end\nreturn s",
	"local t = {10, 20, nil, 40}\nlocal s = 0\nfor i, v in ipairs(t) do s = s + v end\nreturn s",
	// Method resolution before argument evaluation.
	"local log = {}\nlocal t = {}\nfunction t.m(self, v) return v end\nlocal function arg() log[#log+1] = 'arg' return 1 end\nreturn t:m(arg()), #log",
	// function a.b.c() targets.
	"local a = {b = {}}\nfunction a.b.c(x) return x * 2 end\nreturn a.b.c(21)",
	// and/or chains.
	"local function side(v, t) t[#t+1] = v return v end\nlocal log = {}\nlocal r = side(false, log) or side(3, log)\nreturn r, #log",
	"local log = {}\nlocal function side(v) log[#log+1] = 1 return v end\nlocal r = side(nil) and side(2)\nreturn r == nil, #log",
	// Comparison chains / mixed types that error.
	"return 'a' < 'b', 2 < 10",
	// Error-line attribution: failures on specific lines.
	"local x = 1\nlocal y = 2\nreturn x + y + nil",
	"local t = {}\nlocal u\nreturn u.missing",
	"local s = 'str'\nlocal n\nreturn s .. n",
	"local f\nlocal x = 3\nreturn f(x)",
	"local t = {}\nt.fn = 5\nreturn t:fn()",
	"local n = 42\nreturn n:method()",
	"local t\nt[1] = 2",
	"local function inner() return nil + 1 end\nlocal function outer() return inner() end\nreturn outer()",
	"for i = 1, 'x' do end",
	"for i = 'y', 10 do end",
	"for i = 1, 10, 0 do end",
	"for v in 42 do end",
	"local t = {}\nt[0/0] = 1",
	"return #nil",
	"return -{}",
	// Errors thrown inside pcall keep their line attribution.
	"local ok, err = pcall(function()\n\tlocal x\n\treturn x.y\nend)\nreturn ok, err",
	"local ok, err = pcall(function() return nil .. 'x' end)\nreturn ok, err",
	// error() values stringify identically.
	"local ok, err = pcall(function() error('custom: 42') end)\nreturn err",
	"local ok, err = pcall(error)\nreturn ok, err",
	// Depth exhaustion inside pcall (message only; no line in GoFunc path).
	"local function rec(n) return rec(n+1) end\nlocal ok, err = pcall(rec, 0)\nreturn ok, err",
	// Budget exhaustion (compared by message only).
	"while true do end",
	"local function spin() while true do end end\nspin()",
	// Stray break exits the function like the tree-walker's control leak.
	"local function f() if true then break end return 1 end\nreturn f() == nil",
	// Shadowing in nested scopes.
	"local x = 'outer'\ndo\n\tlocal x = 'inner'\n\tdo\n\t\tlocal x = 'innermost'\n\tend\nend\nreturn x",
	"local x = 1\nlocal function f()\n\tlocal x = 2\n\treturn x\nend\nreturn f() * 10 + x",
	// Chunk-level return with no function wrapper.
	"return",
	"",
	// Deeply chained indexing and calls.
	"local t = {a = {b = {c = function() return {d = 5} end}}}\nreturn t.a.b.c().d",
	// Boolean keys and table identity keys.
	"local t = {}\nt[true] = 'yes'\nt[false] = 'no'\nreturn t[true] .. t[false]",
	"local k = {}\nlocal t = {}\nt[k] = 'id'\nreturn t[k]",
	// Functions as table values, passed around.
	"local ops = {add = function(a, b) return a + b end}\nreturn ops.add(2, 3)",
	"local ops = {}\nops['mul'] = function(a, b) return a * b end\nlocal name = 'mul'\nreturn ops[name](6, 7)",
	// Numeric edge: string coercion in arithmetic.
	"return '10' + 5",
	"return '3' * '4'",
	"return 10 .. 20",
	// Assignment to global from nested function; read from chunk.
	"local function set() shared_g = 99 end\nset()\nreturn shared_g",
	// print in both engines (stdout comparison).
	"print('a', 2)\nprint()\nprint({} ~= nil)",
	"for i = 1, 3 do print(i) end",
}

func TestDifferentialCorpus(t *testing.T) {
	for i, src := range corpusPrograms {
		t.Run(fmt.Sprintf("corpus_%03d", i), func(t *testing.T) {
			runBoth(t, src, 200_000, 0, nil)
		})
	}
}

func TestDifferentialAdversarial(t *testing.T) {
	for i, src := range adversarialPrograms {
		t.Run(fmt.Sprintf("adv_%03d", i), func(t *testing.T) {
			runBoth(t, src, 200_000, 60, nil)
		})
	}
}

// TestDifferentialHostInterop mirrors the host-facing interpreter tests:
// globals installed by the host, host functions, and Call round trips.
func TestDifferentialHostInterop(t *testing.T) {
	setup := func(ip *Interp) {
		ip.SetGlobal("host_fn", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
			f, _ := ToNumber(args[0])
			return []Value{f * 2}, nil
		}))
		tbl, mds := NewTable(), NewTable()
		tbl.Set("load", 12.5) //nolint:errcheck
		mds.Set(1.0, tbl)     //nolint:errcheck
		ip.SetGlobal("mds", mds)
	}
	runBoth(t, `return host_fn(mds[1]["load"])`, 0, 0, setup)

	mantle := func(ip *Interp) {
		self := NewTable()
		self.Set("load", 100.0) //nolint:errcheck
		mds := NewTable()
		mds.Set(0.0, self) //nolint:errcheck
		ip.SetGlobal("mds", mds)
		ip.SetGlobal("whoami", 0.0)
		ip.SetGlobal("targets", NewTable())
	}
	runBoth(t, `targets[whoami+1] = mds[whoami]["load"]/2 return targets[1]`, 0, 0, mantle)
}

// TestDifferentialCallPath compiles a chunk defining functions, then
// drives them through Interp.Call from the host on both engines —
// the exact pattern the Mantle balancer and class runtime use.
func TestDifferentialCallPath(t *testing.T) {
	src := `
		function when(load) return load > 50 end
		function howmuch(load) return load / 2 end
	`
	iIP := New()
	if _, err := oracleRun(iIP, src); err != nil {
		t.Fatal(err)
	}
	vIP := New()
	chunk, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(vIP); err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0, 10, 50, 51, 80, 1e9} {
		iRes, iErr := iIP.Call(iIP.Global("when"), load)
		vRes, vErr := vIP.Call(vIP.Global("when"), load)
		if (iErr == nil) != (vErr == nil) || !valsEqual(iRes, vRes) {
			t.Fatalf("when(%v): oracle %v/%v vm %v/%v", load, iRes, iErr, vRes, vErr)
		}
		iRes, _ = iIP.Call(iIP.Global("howmuch"), load)
		vRes, _ = vIP.Call(vIP.Global("howmuch"), load)
		if !valsEqual(iRes, vRes) {
			t.Fatalf("howmuch(%v): oracle %v vm %v", load, iRes, vRes)
		}
	}
}

// TestDifferentialGlobalsPersist verifies both engines share globals
// across repeated executions of distinct chunks.
func TestDifferentialGlobalsPersist(t *testing.T) {
	iIP := New()
	vIP := New()
	srcs := []string{"counter = 10", "counter = counter + 5 return counter"}
	var iVals, vVals []Value
	for _, src := range srcs {
		var err error
		iVals, err = oracleRun(iIP, src)
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		vVals, err = chunk.Run(vIP)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !valsEqual(iVals, vVals) {
		t.Fatalf("oracle %v vm %v", iVals, vVals)
	}
}

// TestDifferentialDepthLimit checks the recursion guard fires with the
// same message on both engines.
func TestDifferentialDepthLimit(t *testing.T) {
	runBoth(t, "local function rec(n) return rec(n + 1) end\nreturn rec(0)", 0, 50, nil)
}
