package rados

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

func execClass(t *testing.T, rt *classRuntime, def types.ClassDef, method, input string) (string, ResultCode) {
	t.Helper()
	obj := NewObject("t.obj")
	ctx := &ClassCtx{Obj: obj, Input: []byte(input)}
	out, rc := rt.callScript(def, method, ctx)
	return string(out), rc
}

// TestCompiledClassCacheStaleSource is the stale-code regression: after
// a class is re-registered under the same name with different source,
// calls must run the new code, never a cached compilation of the old.
// The subtest keeps the name it had when a second engine ran it too.
func TestCompiledClassCacheStaleSource(t *testing.T) {
	t.Run("mode_0", func(t *testing.T) {
		rt := newClassRuntime()
		v1 := types.ClassDef{Name: "echo", Version: 1, Script: `function get(cls) return "old" end`}
		v2 := types.ClassDef{Name: "echo", Version: 2, Script: `function get(cls) return "new" end`}

		if out, rc := execClass(t, rt, v1, "get", ""); rc != OK || out != "old" {
			t.Fatalf("v1: got %q rc=%v", out, rc)
		}
		// Warm the cache hard, then re-register.
		for i := 0; i < 10; i++ {
			execClass(t, rt, v1, "get", "")
		}
		if out, rc := execClass(t, rt, v2, "get", ""); rc != OK || out != "new" {
			t.Fatalf("after re-register: got %q rc=%v (stale compilation served)", out, rc)
		}
		// The old def still resolves to its own code (hash-keyed).
		if out, rc := execClass(t, rt, v1, "get", ""); rc != OK || out != "old" {
			t.Fatalf("v1 after v2: got %q rc=%v", out, rc)
		}
	})
}

// TestClassCallGlobalsDoNotLeak: a method that writes a global — a new
// name or a stdlib builtin — must not change what a later call on the
// same runtime sees, so the VM it ran on is not pooled again. Twenty
// rounds, because -race drops a random share of sync.Pool puts and a
// single round could miss the reuse.
func TestClassCallGlobalsDoNotLeak(t *testing.T) {
	rt := newClassRuntime()
	def := types.ClassDef{Name: "leaky", Version: 1, Script: `
		function poison(cls) leaked = "yes"; tostring = nil; return "ok" end
		function probe(cls) return type(leaked) .. "/" .. type(tostring) end
	`}
	for round := 0; round < 20; round++ {
		if out, rc := execClass(t, rt, def, "poison", ""); rc != OK || out != "ok" {
			t.Fatalf("round %d: poison: %q rc=%v", round, out, rc)
		}
		if out, rc := execClass(t, rt, def, "probe", ""); rc != OK || out != "nil/function" {
			t.Fatalf("round %d: probe = %q rc=%v, want \"nil/function\" (a global leaked from an earlier call)", round, out, rc)
		}
	}
}

// TestCompiledClassWarmPathMutations drives a mutating method many
// times through the pooled VM to prove the rebound ctx table targets
// the right object every call.
func TestCompiledClassWarmPathMutations(t *testing.T) {
	rt := newClassRuntime()
	def := types.ClassDef{Name: "kv", Version: 1, Script: `
		function put(cls)
			cls.omap_set(cls.input, cls.input .. "-v")
			return cls.input
		end
		function get(cls)
			return cls.omap_get(cls.input)
		end
	`}
	objs := make([]*Object, 4)
	for i := range objs {
		objs[i] = NewObject(fmt.Sprintf("o%d", i))
	}
	for round := 0; round < 8; round++ {
		for i, obj := range objs {
			key := fmt.Sprintf("k%d-%d", i, round)
			ctx := &ClassCtx{Obj: obj, Input: []byte(key)}
			if out, rc := rt.callScript(def, "put", ctx); rc != OK || string(out) != key {
				t.Fatalf("put %s: %q rc=%v", key, out, rc)
			}
		}
	}
	for i, obj := range objs {
		key := fmt.Sprintf("k%d-7", i)
		ctx := &ClassCtx{Obj: obj, Input: []byte(key)}
		out, rc := rt.callScript(def, "get", ctx)
		if rc != OK || string(out) != key+"-v" {
			t.Fatalf("get %s from o%d: %q rc=%v", key, i, out, rc)
		}
		if len(obj.Omap) != 8 {
			t.Fatalf("o%d has %d omap keys, want 8", i, len(obj.Omap))
		}
	}
}

// TestCompiledClassErrorCodes: error("ENOENT: ...") style codes survive
// the VM engine, including line-attributed runtime errors → EIO.
func TestCompiledClassErrorCodes(t *testing.T) {
	rt := newClassRuntime()
	def := types.ClassDef{Name: "err", Version: 1, Script: `
		function missing(cls) error("ENOENT: no such entry") end
		function boom(cls) return nil + 1 end
	`}
	if _, rc := execClass(t, rt, def, "missing", ""); rc != ENOENT {
		t.Fatalf("want ENOENT, got %v", rc)
	}
	if _, rc := execClass(t, rt, def, "boom", ""); rc != EIO {
		t.Fatalf("want EIO, got %v", rc)
	}
	if out, rc := execClass(t, rt, def, "absent", ""); rc != EINVAL {
		t.Fatalf("want EINVAL for missing method, got %v (%s)", rc, out)
	}
	bad := types.ClassDef{Name: "syntax", Version: 1, Script: "function ("}
	if _, rc := execClass(t, rt, bad, "x", ""); rc != EINVAL {
		t.Fatalf("want EINVAL for syntax error, got %v", rc)
	}
}

// TestCompiledClassCacheBounded: the FIFO cap holds.
func TestCompiledClassCacheBounded(t *testing.T) {
	rt := newClassRuntime()
	for i := 0; i < maxCompiledClasses+20; i++ {
		def := types.ClassDef{
			Name: "gen", Version: uint64(i),
			Script: fmt.Sprintf("function get(cls) return %d end", i),
		}
		if out, rc := execClass(t, rt, def, "get", ""); rc != OK || out != fmt.Sprint(i) {
			t.Fatalf("gen %d: %q rc=%v", i, out, rc)
		}
	}
	rt.mu.Lock()
	n, o := len(rt.compiled), len(rt.hashOrder)
	rt.mu.Unlock()
	if n != maxCompiledClasses || o != maxCompiledClasses {
		t.Fatalf("cache size %d/%d, want %d", n, o, maxCompiledClasses)
	}
}
