package rados

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/script"
	"repro/internal/types"
)

// The class runtime executes object interfaces next to the data
// (Section 4.2). Two kinds exist, exactly as in Ceph-plus-Malacology:
//
//   - native classes: compiled-in Go methods (Ceph's C++ classes);
//   - script classes: interpreted methods installed at runtime through
//     the monitor's Service Metadata interface and propagated in the
//     OSDMap — no daemon restart, an order of magnitude less code.
//
// Methods run atomically per object: they execute once, on the
// primary, on the live object under its slot lock, and every write goes
// through ClassCtx, which remembers what the key held before. A failed
// method is rolled back from that record; a successful one is
// replicated and journaled as its write-set, the final value of
// everything it touched. A method never observes or publishes a
// half-applied state, never blocks operations on other objects in the
// same PG, and never runs on a replica.

// touchKind names the keyed part of an object a touch covers.
type touchKind uint8

const (
	touchOmap touchKind = iota
	touchXattr
)

// touch is one key a call wrote, with what it held before the call.
type touch struct {
	kind    touchKind
	key     string
	old     []byte
	existed bool
}

type touchKey struct {
	kind touchKind
	key  string
}

const (
	// touchInline touches live inside the ClassCtx allocation; the
	// common method writes one to three keys.
	touchInline = 4
	// touchIndexAt is the list length past which "already captured?"
	// turns from a linear scan into a map lookup (a ZLog writev touches
	// 64 keys and more).
	touchIndexAt = 8
)

// ClassCtx is the execution context handed to a class method: the
// target object plus the method input. Methods read Obj directly and
// write through the set/del helpers, which capture each key's (and the
// bytestream's) prior state once per call in one list. That list is the
// undo log of a failed call — rollback costs O(touched state), which
// matters for hot objects like ZLog stripe objects, whose omaps grow
// without bound — and the source of a successful call's write-set.
type ClassCtx struct {
	Obj   *Object
	Input []byte

	savedData bool
	oldData   []byte
	touches   []touch
	inline    [touchInline]touch
	index     map[touchKey]struct{} // over touches, once longer than touchIndexAt
}

// slots returns the map a touch kind lives in.
func (c *ClassCtx) slots(kind touchKind) map[string][]byte {
	if kind == touchXattr {
		return c.Obj.Xattrs
	}
	return c.Obj.Omap
}

// capture records one key's prior state, once per call, ahead of a
// write to it.
func (c *ClassCtx) capture(kind touchKind, key string) {
	if c.index != nil {
		if _, seen := c.index[touchKey{kind, key}]; seen {
			return
		}
		c.index[touchKey{kind, key}] = struct{}{}
	} else {
		for i := range c.touches {
			if c.touches[i].key == key && c.touches[i].kind == kind {
				return
			}
		}
	}
	if c.touches == nil {
		c.touches = c.inline[:0]
	}
	old, existed := c.slots(kind)[key]
	c.touches = append(c.touches, touch{kind: kind, key: key, old: old, existed: existed})
	if c.index == nil && len(c.touches) > touchIndexAt {
		c.index = make(map[touchKey]struct{}, 4*touchIndexAt)
		for i := range c.touches {
			c.index[touchKey{c.touches[i].kind, c.touches[i].key}] = struct{}{}
		}
	}
}

// The write helpers take values as strings: a string cannot be written
// after the call, so the stored slice is always a fresh copy that no
// caller aliases (the copy-on-write rule on Object).

// setOmap writes one omap key.
func (c *ClassCtx) setOmap(k, v string) {
	c.capture(touchOmap, k)
	c.Obj.Omap[k] = []byte(v)
}

// delOmap removes one omap key.
func (c *ClassCtx) delOmap(k string) {
	c.capture(touchOmap, k)
	delete(c.Obj.Omap, k)
}

// setXattr writes one extended attribute.
func (c *ClassCtx) setXattr(k, v string) {
	c.capture(touchXattr, k)
	c.Obj.Xattrs[k] = []byte(v)
}

// delXattr removes one extended attribute.
func (c *ClassCtx) delXattr(k string) {
	c.capture(touchXattr, k)
	delete(c.Obj.Xattrs, k)
}

// captureData records the bytestream's prior state once per call.
func (c *ClassCtx) captureData() {
	if !c.savedData {
		c.savedData = true
		c.oldData = c.Obj.Data
	}
}

// setData replaces the bytestream.
func (c *ClassCtx) setData(v string) {
	c.captureData()
	c.Obj.Data = []byte(v)
}

// appendData extends the bytestream (into a fresh allocation: readers
// may hold the old slice).
func (c *ClassCtx) appendData(v string) {
	c.captureData()
	grown := make([]byte, 0, len(c.Obj.Data)+len(v))
	c.Obj.Data = append(append(grown, c.Obj.Data...), v...)
}

// rollback restores everything the call wrote.
func (c *ClassCtx) rollback() {
	for i := range c.touches {
		t := &c.touches[i]
		if t.existed {
			c.slots(t.kind)[t.key] = t.old
		} else {
			delete(c.slots(t.kind), t.key)
		}
	}
	if c.savedData {
		c.Obj.Data = c.oldData
	}
}

// wrote reports whether the method called any write helper.
func (c *ClassCtx) wrote() bool { return c.savedData || len(c.touches) > 0 }

// writeSet returns the call's effect as final values: the bytestream if
// the method wrote it, and for every key it touched the value the key
// holds now, or its removal. Values alias the object's stored slices.
func (c *ClassCtx) writeSet() []TxnOp {
	n := len(c.touches)
	if c.savedData {
		n++
	}
	txn := make([]TxnOp, 0, n)
	if c.savedData {
		txn = append(txn, TxnOp{Kind: TxnData, Val: c.Obj.Data})
	}
	for i := range c.touches {
		t := &c.touches[i]
		set, del := TxnOmapSet, TxnOmapDel
		if t.kind == touchXattr {
			set, del = TxnXattrSet, TxnXattrDel
		}
		if v, ok := c.slots(t.kind)[t.key]; ok {
			txn = append(txn, TxnOp{Kind: set, Key: t.key, Val: v})
		} else {
			txn = append(txn, TxnOp{Kind: del, Key: t.key})
		}
	}
	return txn
}

// NativeMethod is a compiled-in class method.
type NativeMethod func(ctx *ClassCtx) ([]byte, ResultCode)

// NativeClass groups named methods with a Table-1-style category.
type NativeClass struct {
	Name     string
	Category string
	Methods  map[string]NativeMethod
}

// maxCompiledClasses bounds the per-OSD compiled cache; eviction is
// FIFO, which is plenty for the handful of classes a cluster carries.
const maxCompiledClasses = 128

// compiledClass is one cached compilation plus a pool of warmed-up
// execution states for it.
type compiledClass struct {
	chunk *script.CompiledChunk
	pool  sync.Pool // of *classVM
}

// classVM is a reusable execution state for one compiled class: an
// interpreter whose globals hold only the stdlib and what the chunk's
// top level defines, and the pre-built cls binding table.
type classVM struct {
	ip      *script.Interp
	binding *clsBinding
}

// namedClass is the compilation last served under one class name,
// with the exact source it was compiled from.
type namedClass struct {
	source string
	cc     *compiledClass
}

// classRuntime resolves and executes class calls for one OSD.
type classRuntime struct {
	// native is filled by newClassRuntime and never written again, so
	// calls read it without a lock.
	native map[string]*NativeClass
	// byName is the per-call fast path in front of compiled: a
	// copy-on-write table from class name to the compilation last served
	// under it. A hit requires the stored source to equal the caller's
	// byte for byte (a pointer comparison when both come from the same
	// OSD map), so a re-register under the same name misses and takes the
	// hashed path — stale code can never be served from here either.
	byName atomic.Pointer[map[string]namedClass]

	mu sync.Mutex
	// compiled caches bytecode keyed by the script's content hash: a
	// re-register under the same name with different source is a
	// different key, so stale code can never be served.
	compiled  map[[32]byte]*compiledClass // guarded by mu
	hashOrder [][32]byte                  // guarded by mu; FIFO eviction order for compiled
}

func newClassRuntime() *classRuntime {
	rt := &classRuntime{
		native:   make(map[string]*NativeClass),
		compiled: make(map[[32]byte]*compiledClass),
	}
	for _, c := range BuiltinClasses() {
		rt.native[c.Name] = c
	}
	return rt
}

// isNative reports whether a compiled-in class with this name exists.
func (rt *classRuntime) isNative(cls string) bool {
	_, ok := rt.native[cls]
	return ok
}

// callNative executes a native method if the class exists; found=false
// defers to script classes.
func (rt *classRuntime) callNative(cls, method string, ctx *ClassCtx) (out []byte, rc ResultCode, found bool) {
	c, ok := rt.native[cls]
	if !ok {
		return nil, 0, false
	}
	m, ok := c.Methods[method]
	if !ok {
		return nil, EINVAL, true
	}
	out, rc = m(ctx)
	return out, rc, true
}

// callScript executes a script-class method from def against ctx.
func (rt *classRuntime) callScript(def types.ClassDef, method string, ctx *ClassCtx) ([]byte, ResultCode) {
	cc, err := rt.compiledFor(def)
	if err != nil {
		return []byte(err.Error()), EINVAL
	}
	vm, _ := cc.pool.Get().(*classVM)
	if vm == nil {
		vm = &classVM{ip: script.New(), binding: newClsBinding()}
	}
	// Re-run the chunk's top level: pure bytecode (no parse, no
	// compile), it just redefines the method functions.
	if _, rerr := cc.chunk.Run(vm.ip); rerr != nil {
		cc.pool.Put(vm)
		return []byte(rerr.Error()), EINVAL
	}
	fn := vm.ip.Global(method)
	if fn == nil {
		cc.pool.Put(vm)
		return []byte(fmt.Sprintf("class %s has no method %s", def.Name, method)), EINVAL
	}
	writes := vm.ip.GlobalWrites()
	vm.binding.bind(ctx)
	vals, cerr := vm.ip.Call(fn, vm.binding.tbl)
	vm.binding.bind(nil) // drop the object reference before pooling
	// A method that assigned a global left state the next call would
	// see; its VM is dropped, so every call starts from the top level.
	if vm.ip.GlobalWrites() == writes {
		cc.pool.Put(vm)
	}
	if cerr != nil {
		return []byte(cerr.Error()), codeFromError(cerr)
	}
	return decodeScriptResult(vals)
}

// compiledFor returns the cached compilation of def's source, compiling
// on first sight of this exact content.
func (rt *classRuntime) compiledFor(def types.ClassDef) (*compiledClass, error) {
	if tbl := rt.byName.Load(); tbl != nil {
		if nc, ok := (*tbl)[def.Name]; ok && nc.source == def.Script {
			return nc.cc, nil
		}
	}
	h := sha256.Sum256([]byte(def.Script))
	rt.mu.Lock()
	cc, ok := rt.compiled[h]
	if ok {
		rt.publishLocked(def, cc)
	}
	rt.mu.Unlock()
	if ok {
		return cc, nil
	}
	chunk, err := script.Compile(def.Script)
	if err != nil {
		return nil, err
	}
	cc = &compiledClass{chunk: chunk}
	rt.mu.Lock()
	if exist, ok := rt.compiled[h]; ok {
		cc = exist // lost a compile race; keep the winner's pool
	} else {
		rt.compiled[h] = cc
		rt.hashOrder = append(rt.hashOrder, h)
		if len(rt.hashOrder) > maxCompiledClasses {
			delete(rt.compiled, rt.hashOrder[0])
			rt.hashOrder = rt.hashOrder[1:]
		}
	}
	rt.publishLocked(def, cc)
	rt.mu.Unlock()
	return cc, nil
}

// publishLocked makes cc the compilation byName serves for def's name
// and source. Caller holds rt.mu, which serializes the table copies.
func (rt *classRuntime) publishLocked(def types.ClassDef, cc *compiledClass) {
	next := make(map[string]namedClass)
	if tbl := rt.byName.Load(); tbl != nil && len(*tbl) < maxCompiledClasses {
		for name, nc := range *tbl {
			next[name] = nc
		}
	} // else: a table grown past the cache bound starts over
	next[def.Name] = namedClass{source: def.Script, cc: cc}
	rt.byName.Store(&next)
}

// scriptCodes are the result codes a script can name, in error text
// (codeFromError) or as a second return value (decodeScriptResult).
var scriptCodes = [...]struct {
	name string
	rc   ResultCode
}{
	{"ENOENT", ENOENT}, {"EEXIST", EEXIST}, {"ESTALE", ESTALE},
	{"EINVAL", EINVAL}, {"ECANCELED", ECANCELED},
}

// codeFromError lets scripts abort with a specific result code by
// calling error("ENOENT: ...") etc.; anything else maps to EIO. When the
// message names several codes, the one named first is the code — the
// rest is the script's own prose.
func codeFromError(err error) ResultCode {
	msg := err.Error()
	rc, first := EIO, len(msg)
	for _, c := range scriptCodes {
		if i := strings.Index(msg, c.name); i >= 0 && i < first {
			rc, first = c.rc, i
		}
	}
	return rc
}

// decodeScriptResult maps script return values to (payload, code):
// return <value>                → value, OK
// return <value>, "<CODENAME>"  → value, code
func decodeScriptResult(vals []script.Value) ([]byte, ResultCode) {
	var payload []byte
	rc := OK
	if len(vals) > 0 && vals[0] != nil {
		switch v := vals[0].(type) {
		case string:
			payload = []byte(v)
		case float64:
			payload = []byte(strconv.FormatFloat(v, 'g', -1, 64))
		case bool:
			if v {
				payload = []byte("true")
			} else {
				payload = []byte("false")
			}
		default:
			return []byte("class returned unsupported type"), EINVAL
		}
	}
	if len(vals) > 1 {
		if name, ok := vals[1].(string); ok && name != "OK" && name != "" {
			rc = EIO
			for _, c := range scriptCodes {
				if name == c.name {
					rc = c.rc
				}
			}
		}
	}
	return payload, rc
}

// clsBinding is the `cls` table — the object-local host API a script
// method composes (read/write, omap, xattr — the "native interfaces" of
// Section 4.2) — with its ~15 GoFuncs built once. The functions close
// over the binding, not a particular call's context, so a pooled
// binding serves successive calls by swapping the ctx pointer instead
// of rebuilding the table.
type clsBinding struct {
	ctx *ClassCtx
	tbl *script.Table
}

// bind points the table's functions at ctx and refreshes the `input`
// field; bind(nil) releases the object reference between calls.
func (b *clsBinding) bind(ctx *ClassCtx) {
	b.ctx = ctx
	if ctx != nil {
		b.tbl.Set("input", string(ctx.Input)) //nolint:errcheck
	} else {
		b.tbl.Set("input", nil) //nolint:errcheck
	}
}

func newClsBinding() *clsBinding {
	b := &clsBinding{tbl: script.NewTable()}
	set := func(k string, v script.Value) { b.tbl.Set(k, v) } //nolint:errcheck

	set("read", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{string(b.ctx.Obj.Data)}, nil
	}))
	set("write", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		s, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.write expects a string")
		}
		b.ctx.setData(s)
		return nil, nil
	}))
	set("append", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		s, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.append expects a string")
		}
		b.ctx.appendData(s)
		return nil, nil
	}))
	set("size", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{float64(len(b.ctx.Obj.Data))}, nil
	}))

	set("omap_get", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.omap_get expects a key")
		}
		v, ok := b.ctx.Obj.Omap[k]
		if !ok {
			return []script.Value{nil}, nil
		}
		return []script.Value{string(v)}, nil
	}))
	set("omap_set", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, kok := argStr(args, 0)
		v, vok := argStr(args, 1)
		if !kok || !vok {
			return nil, fmt.Errorf("EINVAL: cls.omap_set expects key, value")
		}
		b.ctx.setOmap(k, v)
		return nil, nil
	}))
	set("omap_del", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.omap_del expects a key")
		}
		b.ctx.delOmap(k)
		return nil, nil
	}))
	set("omap_keys", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		prefix, _ := argStr(args, 0)
		keys := b.ctx.Obj.OmapKeysSorted(prefix)
		tbl := script.NewTable()
		for i, k := range keys {
			tbl.Set(float64(i+1), k) //nolint:errcheck
		}
		return []script.Value{tbl}, nil
	}))

	set("getxattr", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, ok := argStr(args, 0)
		if !ok {
			return nil, fmt.Errorf("EINVAL: cls.getxattr expects a key")
		}
		v, ok := b.ctx.Obj.Xattrs[k]
		if !ok {
			return []script.Value{nil}, nil
		}
		return []script.Value{string(v)}, nil
	}))
	set("setxattr", script.GoFunc(func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		k, kok := argStr(args, 0)
		v, vok := argStr(args, 1)
		if !kok || !vok {
			return nil, fmt.Errorf("EINVAL: cls.setxattr expects key, value")
		}
		b.ctx.setXattr(k, v)
		return nil, nil
	}))
	set("version", script.GoFunc(func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{float64(b.ctx.Obj.Version)}, nil
	}))
	return b
}

func argStr(args []script.Value, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	switch v := args[i].(type) {
	case string:
		return v, true
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), true
	}
	return "", false
}
