package script

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// run evaluates src and returns the first returned value.
func run(t *testing.T, src string) Value {
	t.Helper()
	ip := New()
	vals, err := ip.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	if len(vals) == 0 {
		return nil
	}
	return vals[0]
}

func mustNum(t *testing.T, src string, want float64) {
	t.Helper()
	v := run(t, src)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("Run(%q) = %v (%s), want number", src, v, TypeName(v))
	}
	if math.Abs(f-want) > 1e-9 {
		t.Fatalf("Run(%q) = %v, want %v", src, f, want)
	}
}

func mustStr(t *testing.T, src, want string) {
	t.Helper()
	v := run(t, src)
	s, ok := v.(string)
	if !ok || s != want {
		t.Fatalf("Run(%q) = %v, want %q", src, v, want)
	}
}

func mustBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := run(t, src)
	b, ok := v.(bool)
	if !ok || b != want {
		t.Fatalf("Run(%q) = %v, want %v", src, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	mustNum(t, "return 1+2*3", 7)
	mustNum(t, "return (1+2)*3", 9)
	mustNum(t, "return 10/4", 2.5)
	mustNum(t, "return 2^10", 1024)
	mustNum(t, "return 2^3^2", 512) // right associative
	mustNum(t, "return 7 % 3", 1)
	mustNum(t, "return -7 % 3", 2) // Lua modulo semantics
	mustNum(t, "return -2^2", -4)  // unary binds looser than ^
	mustNum(t, "return 0x10", 16)
	mustNum(t, "return 1.5e2", 150)
}

func TestComparisonAndLogic(t *testing.T) {
	mustBool(t, "return 1 < 2", true)
	mustBool(t, "return 2 <= 2", true)
	mustBool(t, "return 3 ~= 4", true)
	mustBool(t, "return 'abc' < 'abd'", true)
	mustBool(t, "return not nil", true)
	mustBool(t, "return not 0", false) // 0 is truthy in Lua
	// and/or return operands.
	mustNum(t, "return false or 5", 5)
	mustNum(t, "return 3 and 4", 4)
	mustStr(t, "return nil and 'x' or 'y'", "y")
}

func TestStringsAndConcat(t *testing.T) {
	mustStr(t, `return "a" .. "b" .. "c"`, "abc")
	mustStr(t, `return "n=" .. 42`, "n=42")
	mustNum(t, `return #"hello"`, 5)
	mustStr(t, `return "a\tb\n"`, "a\tb\n")
}

func TestLocalsAndScope(t *testing.T) {
	mustNum(t, `
		local x = 1
		do
			local x = 2
		end
		return x`, 1)
	mustNum(t, `
		x = 5
		local function bump() x = x + 1 end
		bump()
		bump()
		return x`, 7)
}

func TestMultipleAssignment(t *testing.T) {
	mustNum(t, "local a, b = 1, 2  a, b = b, a  return a", 2)
	mustNum(t, "local a, b = 1  return a + (b == nil and 10 or 0)", 11)
	mustNum(t, `
		local function two() return 3, 4 end
		local a, b = two()
		return a * 10 + b`, 34)
	// Non-final call truncated to one value.
	mustNum(t, `
		local function two() return 3, 4 end
		local a, b = two(), 9
		return a * 10 + b`, 39)
}

func TestControlFlow(t *testing.T) {
	mustNum(t, `
		local s = 0
		for i = 1, 10 do s = s + i end
		return s`, 55)
	mustNum(t, `
		local s = 0
		for i = 10, 1, -2 do s = s + i end
		return s`, 30)
	mustNum(t, `
		local s, i = 0, 0
		while i < 5 do i = i + 1 s = s + i end
		return s`, 15)
	mustNum(t, `
		local i = 0
		repeat i = i + 1 until i >= 4
		return i`, 4)
	mustNum(t, `
		local s = 0
		for i = 1, 100 do
			if i > 3 then break end
			s = s + i
		end
		return s`, 6)
	mustStr(t, `
		local x = 15
		if x < 10 then return "small"
		elseif x < 20 then return "medium"
		else return "large" end`, "medium")
}

func TestRepeatScopeSeesBodyLocals(t *testing.T) {
	mustNum(t, `
		local n = 0
		repeat
			local done = true
			n = n + 1
		until done
		return n`, 1)
}

func TestFunctionsAndClosures(t *testing.T) {
	mustNum(t, `
		local function make()
			local n = 0
			return function() n = n + 1 return n end
		end
		local c = make()
		c() c()
		return c()`, 3)
	mustNum(t, `
		local function fib(n)
			if n < 2 then return n end
			return fib(n-1) + fib(n-2)
		end
		return fib(15)`, 610)
	mustNum(t, `
		local f = function(a, b) return a - b end
		return f(10, 4)`, 6)
}

func TestVariadic(t *testing.T) {
	mustNum(t, `
		local function first(...) return ... end
		return first(42, 1, 2)`, 42)
}

func TestTables(t *testing.T) {
	mustNum(t, `
		local t = {10, 20, 30}
		return t[1] + t[3]`, 40)
	mustNum(t, `local t = {} t[1]=1 t[2]=2 t[3]=3 return #t`, 3)
	mustStr(t, `
		local t = {name = "osd", ["kind"] = "daemon"}
		return t.name .. "/" .. t.kind`, "osd/daemon")
	mustNum(t, `
		local t = {a = {b = {c = 99}}}
		return t.a.b.c`, 99)
	// Deleting the tail shrinks #.
	mustNum(t, `local t = {1,2,3} t[3] = nil return #t`, 2)
	// Hash absorbed into array when it becomes contiguous.
	mustNum(t, `local t = {} t[2]=2 t[1]=1 return #t`, 2)
	// Nested constructor fields.
	mustNum(t, `local t = {x = 1, 5, y = 2, 6} return t[1]*10 + t[2]`, 56)
}

func TestMethodCallSugar(t *testing.T) {
	mustNum(t, `
		local obj = {count = 5}
		function obj.get(self) return self.count end
		return obj:get()`, 5)
	mustNum(t, `
		local stack = {items = {}, n = 0}
		function stack.push(self, v)
			self.n = self.n + 1
			self.items[self.n] = v
		end
		function stack.pop(self)
			local v = self.items[self.n]
			self.items[self.n] = nil
			self.n = self.n - 1
			return v
		end
		stack:push(7)
		stack:push(9)
		stack:pop()
		return stack:pop()`, 7)
}

func TestGenericFor(t *testing.T) {
	mustNum(t, `
		local t = {3, 4, 5}
		local s = 0
		for i, v in ipairs(t) do s = s + i * v end
		return s`, 3+8+15)
	mustNum(t, `
		local t = {a = 1, b = 2, c = 3}
		local s = 0
		for k, v in pairs(t) do s = s + v end
		return s`, 6)
	// Direct table iteration (extension): for k, v in t do ... end.
	mustNum(t, `
		local t = {10, 20}
		local s = 0
		for k, v in t do s = s + v end
		return s`, 30)
}

func TestPairsDeterministicOrder(t *testing.T) {
	// Insertion order iteration is part of the contract (deterministic
	// policy evaluation).
	mustStr(t, `
		local t = {}
		t.zebra = 1 t.apple = 2 t.mango = 3
		local out = ""
		for k, v in pairs(t) do out = out .. k .. "," end
		return out`, "zebra,apple,mango,")
}

func TestStdlibMath(t *testing.T) {
	mustNum(t, "return math.floor(3.7)", 3)
	mustNum(t, "return math.ceil(3.2)", 4)
	mustNum(t, "return math.abs(-4)", 4)
	mustNum(t, "return math.max(1, 9, 4)", 9)
	mustNum(t, "return math.min(1, 9, 4)", 1)
	mustNum(t, "return math.sqrt(81)", 9)
	mustBool(t, "return math.huge > 1e300", true)
}

func TestStdlibString(t *testing.T) {
	mustNum(t, `return string.len("abcd")`, 4)
	mustStr(t, `return string.sub("metadata", 1, 4)`, "meta")
	mustStr(t, `return string.sub("metadata", -4)`, "data")
	mustStr(t, `return string.upper("osd")`, "OSD")
	mustStr(t, `return string.rep("ab", 3)`, "ababab")
	mustNum(t, `return string.find("sequencer", "que")`, 3)
	mustStr(t, `return string.format("mds.%d load=%.2f", 3, 1.5)`, "mds.3 load=1.50")
	mustStr(t, `return string.format("%s=%d", "quota", 100)`, "quota=100")
}

func TestStdlibTable(t *testing.T) {
	mustNum(t, `
		local t = {}
		table.insert(t, 5)
		table.insert(t, 7)
		table.insert(t, 1, 3)
		return t[1]*100 + t[2]*10 + t[3]`, 357)
	mustNum(t, `
		local t = {1, 2, 3}
		local v = table.remove(t)
		return v * 10 + #t`, 32)
	mustStr(t, `
		local t = {3, 1, 2}
		table.sort(t)
		return table.concat(t, "-")`, "1-2-3")
	mustStr(t, `
		local t = {"b", "c", "a"}
		table.sort(t, function(x, y) return x > y end)
		return table.concat(t)`, "cba")
}

func TestTypeConversions(t *testing.T) {
	mustStr(t, "return type({})", "table")
	mustStr(t, "return type(1)", "number")
	mustStr(t, "return type('x')", "string")
	mustStr(t, "return type(nil)", "nil")
	mustStr(t, "return type(print)", "function")
	mustNum(t, `return tonumber("42") + 1`, 43)
	mustBool(t, `return tonumber("zzz") == nil`, true)
	mustStr(t, "return tostring(1.5)", "1.5")
	mustStr(t, "return tostring(true)", "true")
}

func TestPcallAndError(t *testing.T) {
	mustBool(t, `
		local ok, err = pcall(function() error("boom") end)
		return ok == false and string.find(err, "boom") ~= nil`, true)
	mustNum(t, `
		local ok, v = pcall(function() return 9 end)
		return v`, 9)
}

func TestPrintGoesToStdout(t *testing.T) {
	var buf bytes.Buffer
	ip := New(WithStdout(&buf))
	if _, err := ip.Run(`print("hello", 1, nil)`); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "hello\t1\tnil\n" {
		t.Fatalf("print output = %q", got)
	}
}

func TestHostInterop(t *testing.T) {
	ip := New()
	calls := 0
	ip.SetGlobal("host_fn", GoFunc(func(_ *Interp, args []Value) ([]Value, error) {
		calls++
		f, _ := ToNumber(args[0])
		return []Value{f * 2}, nil
	}))
	tbl := NewTable()
	tbl.Set("load", 12.5) //nolint:errcheck
	ip.SetGlobal("mds", NewArray(tbl))

	vals, err := ip.Run(`return host_fn(mds[1]["load"])`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].(float64) != 25 {
		t.Fatalf("got %v, want [25]", vals)
	}
	if calls != 1 {
		t.Fatalf("host function called %d times", calls)
	}
}

func TestGlobalsPersistAcrossRuns(t *testing.T) {
	ip := New()
	if _, err := ip.Run("counter = 10"); err != nil {
		t.Fatal(err)
	}
	vals, err := ip.Run("counter = counter + 5 return counter")
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 15 {
		t.Fatalf("got %v", vals[0])
	}
}

func TestCallScriptFunctionFromHost(t *testing.T) {
	ip := New()
	if _, err := ip.Run(`function when(load) return load > 50 end`); err != nil {
		t.Fatal(err)
	}
	fn := ip.Global("when")
	rs, err := ip.Call(fn, 80.0)
	if err != nil {
		t.Fatal(err)
	}
	if !Truthy(rs[0]) {
		t.Fatal("when(80) should be true")
	}
	rs, err = ip.Call(fn, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if Truthy(rs[0]) {
		t.Fatal("when(10) should be false")
	}
}

func TestMantlePolicySnippet(t *testing.T) {
	// The exact policy fragment from the paper (Section 6.2.2):
	// targets[whoami+1] = mds[whoami]["load"]/2
	ip := New()
	self := NewTable()
	self.Set("load", 100.0) //nolint:errcheck
	mds := NewTable()
	mds.Set(0.0, self) //nolint:errcheck
	ip.SetGlobal("mds", mds)
	ip.SetGlobal("whoami", 0.0)
	ip.SetGlobal("targets", NewTable())

	if _, err := ip.Run(`targets[whoami+1] = mds[whoami]["load"]/2`); err != nil {
		t.Fatal(err)
	}
	targets := ip.Global("targets").(*Table)
	if got := targets.Get(1.0); got != 50.0 {
		t.Fatalf("targets[1] = %v, want 50", got)
	}
}

func TestBudgetKillsInfiniteLoop(t *testing.T) {
	ip := New(WithBudget(10_000))
	_, err := ip.Run("while true do end")
	if err == nil || !strings.Contains(err.Error(), ErrBudget) {
		t.Fatalf("expected budget error, got %v", err)
	}
}

// TestBudgetRefreshedPerRun sizes the budget to exactly one run of the
// loop, so a second run passes only if Run refreshes it. The VM charges
// one step per instruction: 2 for `local s = 0`, 6 to set up the loop,
// 7 per iteration and 2 for the return — 7,010 in all.
func TestBudgetRefreshedPerRun(t *testing.T) {
	const src = "local s = 0 for i = 1, 1000 do s = s + i end return s"
	ip := New(WithBudget(7_010))
	for i := 0; i < 3; i++ {
		if _, err := ip.Run(src); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if _, err := New(WithBudget(7_009)).Run(src); err == nil || !strings.Contains(err.Error(), ErrBudget) {
		t.Fatalf("one step short of the loop's cost: err = %v, want budget error", err)
	}
}

func TestDepthLimit(t *testing.T) {
	ip := New(WithMaxDepth(50))
	_, err := ip.Run(`
		local function rec(n) return rec(n + 1) end
		return rec(0)`)
	if err == nil || !strings.Contains(err.Error(), "call stack too deep") {
		t.Fatalf("expected depth error, got %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`return nil + 1`, "arithmetic"},
		{`return {} .. "x"`, "concatenate"},
		{`local x = nil return x.field`, "index"},
		{`local f = 5 return f()`, "call"},
		{`return #5`, "length"},
		{`local t = {} t[nil] = 1`, "nil"},
	}
	for _, tc := range cases {
		ip := New()
		_, err := ip.Run(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%q) error = %v, want mention of %q", tc.src, err, tc.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"return 1 +",
		"if x then",
		"local = 5",
		"for i = 1 do end",
		"function f( end",
		`return "unterminated`,
		"x ~ y",
		"return }",
		"1 + 2", // expression is not a statement
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestComments(t *testing.T) {
	mustNum(t, `
		-- line comment
		local x = 1 -- trailing
		--[[ block
		comment ]]
		return x`, 1)
}

func TestNumberFormatting(t *testing.T) {
	mustStr(t, "return tostring(3)", "3")
	mustStr(t, "return tostring(-0.5)", "-0.5")
	mustStr(t, "return 1 .. ''", "1")
}

// --- Property-based tests ---

func TestPropTableSetGet(t *testing.T) {
	// Any sequence of string-keyed sets is readable back.
	f := func(keys []string, vals []int64) bool {
		tbl := NewTable()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := map[string]float64{}
		for i := 0; i < n; i++ {
			v := float64(vals[i])
			if err := tbl.Set(keys[i], v); err != nil {
				return false
			}
			want[keys[i]] = v
		}
		for k, v := range want {
			if got := tbl.Get(k); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTableArrayAppend(t *testing.T) {
	// Appending n values at keys 1..n always yields Len() == n and the
	// values read back in order.
	f := func(vals []int64) bool {
		tbl := NewTable()
		for i, v := range vals {
			if err := tbl.Set(float64(i+1), float64(v)); err != nil {
				return false
			}
		}
		if tbl.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if tbl.Get(float64(i+1)) != float64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropArithmeticMatchesGo(t *testing.T) {
	ip := New()
	f := func(a, b int16) bool {
		ip.SetGlobal("a", float64(a))
		ip.SetGlobal("b", float64(b))
		vals, err := ip.Run("return a + b, a - b, a * b")
		if err != nil || len(vals) != 3 {
			return false
		}
		return vals[0] == float64(a)+float64(b) &&
			vals[1] == float64(a)-float64(b) &&
			vals[2] == float64(a)*float64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropLexRoundTripNumbers(t *testing.T) {
	// Every non-negative float formatted by formatNumber lexes back to
	// the same value.
	f := func(raw uint32) bool {
		v := float64(raw) / 8 // mix of integral and fractional values
		toks, err := lexAll(formatNumber(v))
		if err != nil || len(toks) != 2 || toks[0].Kind != Number {
			return false
		}
		return toks[0].Num == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropStringEscapes(t *testing.T) {
	// Strings of printable ASCII survive a quote/lex round trip.
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r < 32 || r > 126 || r == '"' || r == '\\' {
				return 'x'
			}
			return r
		}, s)
		toks, err := lexAll(`"` + clean + `"`)
		if err != nil || len(toks) != 2 || toks[0].Kind != String {
			return false
		}
		return toks[0].Text == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
