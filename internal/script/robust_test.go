package script

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestParseNeverPanics feeds the parser random byte soup and random
// token salads; it must always return (result, error), never panic.
// Daemons parse scripts that arrive over the wire, so this is a safety
// property, not a nicety.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseTokenSaladNeverPanics builds syntactically plausible garbage
// from real tokens, which reaches deeper into the parser than raw
// bytes.
func TestParseTokenSaladNeverPanics(t *testing.T) {
	tokens := []string{
		"function", "end", "if", "then", "else", "while", "do", "for",
		"return", "local", "x", "y", "(", ")", "{", "}", "[", "]",
		"=", "==", "~=", "+", "-", "*", "/", "..", ",", ";", ":",
		"1", "2.5", `"str"`, "nil", "true", "false", "not", "and", "or",
		"#", "break", "repeat", "until", "in", "...",
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano() % 1000))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(24)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = tokens[rng.Intn(len(tokens))]
		}
		src := strings.Join(parts, " ")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestRunGarbageNeverPanics: even sources that parse must compile and
// run on the VM without panicking (errors are fine).
func TestRunGarbageNeverPanics(t *testing.T) {
	sources := []string{
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
	}
	for _, src := range sources {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			ip := New(WithBudget(100_000))
			_, _ = ip.Run(src)
		}()
	}
}

// TestDivisionEdgeCases documents IEEE semantics (Lua numbers are
// doubles: division by zero is inf/NaN, not an error).
func TestDivisionEdgeCases(t *testing.T) {
	ip := New()
	vals, err := ip.Run("return 1/0 > 1e308, 0/0 ~= 0/0")
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != true || vals[1] != true {
		t.Fatalf("IEEE semantics violated: %v", vals)
	}
}

// TestDeepNestingBounded: pathological nesting errors out (or parses)
// without exhausting the stack.
func TestDeepNestingBounded(t *testing.T) {
	depth := 10_000
	src := "return " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }() //nolint:errcheck // stack overflow would kill the process, not panic-recover
		_, _ = Parse(src)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parser hung on deep nesting")
	}
}
