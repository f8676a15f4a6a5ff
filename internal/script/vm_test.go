package script

import (
	"strings"
	"sync"
	"testing"
)

func TestCompileReportsSyntaxErrors(t *testing.T) {
	if _, err := Compile("local = 5"); err == nil {
		t.Fatal("expected syntax error")
	}
	if _, err := Compile("return 1 +"); err == nil {
		t.Fatal("expected syntax error")
	}
}

// TestChunkReusedAcrossInterps is the caching contract: one compiled
// chunk, many interpreters, no cross-talk through chunk state.
func TestChunkReusedAcrossInterps(t *testing.T) {
	chunk, err := Compile("n = (n or 0) + 1 return n")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ip := New()
		for run := 1; run <= 4; run++ {
			vals, err := chunk.Run(ip)
			if err != nil {
				t.Fatal(err)
			}
			if got := vals[0].(float64); got != float64(run) {
				t.Fatalf("interp %d run %d: got %v", i, run, got)
			}
		}
	}
}

func TestChunkConcurrentRun(t *testing.T) {
	chunk, err := Compile(`
		local s = 0
		for i = 1, 1000 do s = s + i end
		return s
	`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ip := New()
			for i := 0; i < 50; i++ {
				vals, err := chunk.Run(ip)
				if err != nil || vals[0].(float64) != 500500 {
					t.Errorf("got %v, %v", vals, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestVMStateRecycled verifies the activation pool actually recycles:
// after a run completes, the freelist holds a state, and a second run
// reuses it rather than growing the list.
func TestVMStateRecycled(t *testing.T) {
	ip := New()
	chunk, err := Compile("return 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(ip); err != nil {
		t.Fatal(err)
	}
	if ip.vmFree == nil {
		t.Fatal("vm state not returned to freelist after Run")
	}
	first := ip.vmFree
	if _, err := chunk.Run(ip); err != nil {
		t.Fatal(err)
	}
	if ip.vmFree != first {
		t.Fatal("second run did not reuse the pooled vm state")
	}
}

// TestVMStateRecycledOnError: the pool must recover states even when
// execution aborts with a runtime error mid-frame.
func TestVMStateRecycledOnError(t *testing.T) {
	ip := New()
	chunk, err := Compile("local function f() return nil + 1 end return f()")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(ip); err == nil {
		t.Fatal("expected runtime error")
	}
	if ip.vmFree == nil {
		t.Fatal("vm state leaked on error path")
	}
	// Depth accounting must have unwound: a fresh run still works.
	if _, err := chunk.Run(ip); err == nil {
		t.Fatal("expected runtime error on rerun")
	}
	vals, err := New().Call(GoFunc(func(ip2 *Interp, _ []Value) ([]Value, error) {
		return []Value{1.0}, nil
	}))
	if err != nil || vals[0].(float64) != 1 {
		t.Fatal("sanity call failed")
	}
}

// TestCompiledClosureThroughHostCall: compiled functions must be
// callable via Interp.Call (the class/Mantle host path) and usable by
// stdlib helpers that call back into script code (table.sort, pcall).
func TestCompiledClosureThroughHostCall(t *testing.T) {
	ip := New()
	chunk, err := Compile(`
		function when(load) return load > 50 end
		sorted = {3, 1, 2}
		table.sort(sorted, function(a, b) return a > b end)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(ip); err != nil {
		t.Fatal(err)
	}
	fn := ip.Global("when")
	if _, ok := fn.(*CompiledClosure); !ok {
		t.Fatalf("when is %T, want *CompiledClosure", fn)
	}
	vals, err := ip.Call(fn, 80.0)
	if err != nil || vals[0] != true {
		t.Fatalf("Call(when, 80) = %v, %v", vals, err)
	}
	sorted := ip.Global("sorted").(*Table)
	v1 := sorted.Get(1.0)
	if v1.(float64) != 3 {
		t.Fatalf("table.sort with compiled comparator: got %v", v1)
	}
}

// TestVMDepthLimitViaHostCall: recursion depth is enforced when the
// entry point is Interp.Call on a compiled function.
func TestVMDepthLimitViaHostCall(t *testing.T) {
	ip := New(WithMaxDepth(40))
	chunk, err := Compile("function rec(n) return rec(n + 1) end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(ip); err != nil {
		t.Fatal(err)
	}
	_, err = ip.Call(ip.Global("rec"), 0.0)
	if err == nil || !strings.Contains(err.Error(), "call stack too deep") {
		t.Fatalf("want depth error, got %v", err)
	}
	// And the guard resets: a shallow call still works afterwards.
	chunk2, err := Compile("function ok() return 7 end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk2.Run(ip); err != nil {
		t.Fatal(err)
	}
	vals, err := ip.Call(ip.Global("ok"))
	if err != nil || vals[0].(float64) != 7 {
		t.Fatalf("post-depth-error call: %v, %v", vals, err)
	}
}

func TestVMBudgetKillsLoop(t *testing.T) {
	ip := New(WithBudget(10_000))
	chunk, err := Compile("while true do end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chunk.Run(ip); err == nil || !strings.Contains(err.Error(), ErrBudget) {
		t.Fatalf("want budget error, got %v", err)
	}
	// Budget refreshes per Run.
	chunk2, err := Compile("return 42")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := chunk2.Run(ip)
	if err != nil || vals[0].(float64) != 42 {
		t.Fatalf("budget did not refresh: %v, %v", vals, err)
	}
}

func BenchmarkVMFib(b *testing.B) {
	src := `
		local function fib(n)
			if n < 2 then return n end
			return fib(n-1) + fib(n-2)
		end
		return fib(15)
	`
	ip := New()
	chunk, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chunk.Run(ip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMTableOps(b *testing.B) {
	src := `
		local t = {}
		for i = 1, 100 do t[i] = i * 2 end
		local s = 0
		for i = 1, 100 do s = s + t[i] end
		return s
	`
	ip := New()
	chunk, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chunk.Run(ip); err != nil {
			b.Fatal(err)
		}
	}
}
