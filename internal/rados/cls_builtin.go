package rados

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// BuiltinClasses returns the compiled-in object interface inventory.
// These play the role of Ceph's production C++ classes, and their
// categories mirror Table 1 of the paper (logging, metadata,
// management, locking, other). cmd/figures -exp table1 prints the
// inventory grouped the same way.
func BuiltinClasses() []*NativeClass {
	return []*NativeClass{
		clsLog(),
		clsSnapMeta(),
		clsFsck(),
		clsChecksum(),
		clsLock(),
		clsRefcount(),
		clsGC(),
		clsNumOps(),
		clsDedup(),
	}
}

// clsLog is a logging-category class: an append-only record stream in
// the omap (the paper's example: geographically distributed replica
// logs).
func clsLog() *NativeClass {
	return &NativeClass{
		Name:     "log",
		Category: "logging",
		Methods: map[string]NativeMethod{
			// append stores the input at the next sequence number.
			"append": func(ctx *ClassCtx) ([]byte, ResultCode) {
				seq, err := omapCounter(ctx.Obj, "log.seq")
				if err != nil {
					return []byte("corrupt log.seq counter: " + err.Error()), EIO
				}
				key := fmt.Sprintf("log.%020d", seq)
				ctx.setOmap(key, string(ctx.Input))
				setOmapCounter(ctx, "log.seq", seq+1)
				return []byte(strconv.FormatUint(seq, 10)), OK
			},
			// tail returns the last N entries, N parsed from input.
			"tail": func(ctx *ClassCtx) ([]byte, ResultCode) {
				n, err := strconv.Atoi(strings.TrimSpace(string(ctx.Input)))
				if err != nil || n <= 0 {
					return []byte("tail wants a positive count"), EINVAL
				}
				keys := ctx.Obj.OmapKeysSorted("log.")
				// Drop the counter key.
				var entries []string
				for _, k := range keys {
					if k == "log.seq" {
						continue
					}
					entries = append(entries, string(ctx.Obj.Omap[k]))
				}
				if n < len(entries) {
					entries = entries[len(entries)-n:]
				}
				out, err := json.Marshal(entries)
				if err != nil {
					return []byte("encode failed: " + err.Error()), EIO
				}
				return out, OK
			},
			// count returns the number of appended entries.
			"count": func(ctx *ClassCtx) ([]byte, ResultCode) {
				seq, err := omapCounter(ctx.Obj, "log.seq")
				if err != nil {
					return []byte("corrupt log.seq counter: " + err.Error()), EIO
				}
				return []byte(strconv.FormatUint(seq, 10)), OK
			},
		},
	}
}

// clsSnapMeta is a metadata-category class: named snapshots of the
// object's bytestream (the paper's example: snapshots in the block
// device).
func clsSnapMeta() *NativeClass {
	return &NativeClass{
		Name:     "snapmeta",
		Category: "metadata",
		Methods: map[string]NativeMethod{
			"create_snap": func(ctx *ClassCtx) ([]byte, ResultCode) {
				name := strings.TrimSpace(string(ctx.Input))
				if name == "" {
					return []byte("snapshot needs a name"), EINVAL
				}
				key := "snap." + name
				if _, ok := ctx.Obj.Omap[key]; ok {
					return []byte("snapshot exists"), EEXIST
				}
				ctx.setOmap(key, string(ctx.Obj.Data))
				return nil, OK
			},
			"rollback_snap": func(ctx *ClassCtx) ([]byte, ResultCode) {
				name := strings.TrimSpace(string(ctx.Input))
				v, ok := ctx.Obj.Omap["snap."+name]
				if !ok {
					return []byte("no such snapshot"), ENOENT
				}
				ctx.setData(string(v))
				return nil, OK
			},
			"remove_snap": func(ctx *ClassCtx) ([]byte, ResultCode) {
				name := strings.TrimSpace(string(ctx.Input))
				key := "snap." + name
				if _, ok := ctx.Obj.Omap[key]; !ok {
					return []byte("no such snapshot"), ENOENT
				}
				ctx.delOmap(key)
				return nil, OK
			},
			"list_snaps": func(ctx *ClassCtx) ([]byte, ResultCode) {
				var names []string
				for _, k := range ctx.Obj.OmapKeysSorted("snap.") {
					names = append(names, strings.TrimPrefix(k, "snap."))
				}
				out, err := json.Marshal(names)
				if err != nil {
					return []byte("encode failed: " + err.Error()), EIO
				}
				return out, OK
			},
		},
	}
}

// clsFsck is a management-category class: scan extents for repair (the
// paper's file system repair example).
func clsFsck() *NativeClass {
	return &NativeClass{
		Name:     "fsck",
		Category: "management",
		Methods: map[string]NativeMethod{
			// scan_extents summarizes the bytestream as fixed extents
			// with per-extent checksums, JSON-encoded.
			"scan_extents": func(ctx *ClassCtx) ([]byte, ResultCode) {
				const extent = 4096
				type ext struct {
					Off int    `json:"off"`
					Len int    `json:"len"`
					Sum uint64 `json:"sum"`
				}
				var exts []ext
				for off := 0; off < len(ctx.Obj.Data); off += extent {
					end := off + extent
					if end > len(ctx.Obj.Data) {
						end = len(ctx.Obj.Data)
					}
					h := fnv.New64a()
					h.Write(ctx.Obj.Data[off:end]) //nolint:errcheck
					exts = append(exts, ext{Off: off, Len: end - off, Sum: h.Sum64()})
				}
				out, err := json.Marshal(exts)
				if err != nil {
					return []byte("encode failed: " + err.Error()), EIO
				}
				return out, OK
			},
		},
	}
}

// clsChecksum is a metadata-category class: compute and cache the
// object checksum server-side (the paper's motivating example of a
// co-designed interface — "remotely computing and caching the checksum
// of an object extent").
func clsChecksum() *NativeClass {
	return &NativeClass{
		Name:     "checksum",
		Category: "metadata",
		Methods: map[string]NativeMethod{
			"get": func(ctx *ClassCtx) ([]byte, ResultCode) {
				// Serve the cached value when it matches the current
				// version; otherwise recompute and cache.
				cachedVer, okV := ctx.Obj.Xattrs["cksum.ver"]
				cached, okC := ctx.Obj.Xattrs["cksum.val"]
				ver := strconv.FormatUint(ctx.Obj.Version, 10)
				if okV && okC && string(cachedVer) == ver {
					return cached, OK
				}
				h := fnv.New64a()
				h.Write(ctx.Obj.Data) //nolint:errcheck
				val := strconv.FormatUint(h.Sum64(), 16)
				ctx.setXattr("cksum.ver", ver)
				ctx.setXattr("cksum.val", val)
				return []byte(val), OK
			},
		},
	}
}

// clsLock is the locking-category class: grants clients exclusive
// access to an object (Table 1: "Grants clients exclusive access").
func clsLock() *NativeClass {
	return &NativeClass{
		Name:     "lock",
		Category: "locking",
		Methods: map[string]NativeMethod{
			// acquire input: "<owner>"; fails with EEXIST when held by
			// another owner, succeeds idempotently for the same owner.
			"acquire": func(ctx *ClassCtx) ([]byte, ResultCode) {
				owner := strings.TrimSpace(string(ctx.Input))
				if owner == "" {
					return []byte("lock needs an owner"), EINVAL
				}
				cur, held := ctx.Obj.Xattrs["lock.owner"]
				if held && string(cur) != owner {
					return cur, EEXIST
				}
				if !held {
					ctx.setXattr("lock.owner", owner)
				}
				return nil, OK
			},
			"release": func(ctx *ClassCtx) ([]byte, ResultCode) {
				owner := strings.TrimSpace(string(ctx.Input))
				cur, held := ctx.Obj.Xattrs["lock.owner"]
				if !held {
					return nil, ENOENT
				}
				if string(cur) != owner {
					return cur, EINVAL
				}
				ctx.delXattr("lock.owner")
				return nil, OK
			},
			"info": func(ctx *ClassCtx) ([]byte, ResultCode) {
				cur, held := ctx.Obj.Xattrs["lock.owner"]
				if !held {
					return nil, ENOENT
				}
				return cur, OK
			},
			// break_lock forcibly clears the lock (administrative).
			"break_lock": func(ctx *ClassCtx) ([]byte, ResultCode) {
				if _, held := ctx.Obj.Xattrs["lock.owner"]; held {
					ctx.delXattr("lock.owner")
				}
				return nil, OK
			},
		},
	}
}

// clsRefcount is an other-category class: reference counting shared
// objects.
func clsRefcount() *NativeClass {
	return &NativeClass{
		Name:     "refcount",
		Category: "other",
		Methods: map[string]NativeMethod{
			"get": func(ctx *ClassCtx) ([]byte, ResultCode) {
				n, err := omapCounter(ctx.Obj, "refs")
				if err != nil {
					return []byte("corrupt refs counter: " + err.Error()), EIO
				}
				setOmapCounter(ctx, "refs", n+1)
				return []byte(strconv.FormatUint(n+1, 10)), OK
			},
			"put": func(ctx *ClassCtx) ([]byte, ResultCode) {
				n, err := omapCounter(ctx.Obj, "refs")
				if err != nil {
					return []byte("corrupt refs counter: " + err.Error()), EIO
				}
				if n == 0 {
					return []byte("refcount underflow"), EINVAL
				}
				setOmapCounter(ctx, "refs", n-1)
				if n-1 == 0 {
					// Mark reclaimable; the gc class collects it.
					ctx.setXattr("gc.dead", "1")
				}
				return []byte(strconv.FormatUint(n-1, 10)), OK
			},
			"count": func(ctx *ClassCtx) ([]byte, ResultCode) {
				n, err := omapCounter(ctx.Obj, "refs")
				if err != nil {
					return []byte("corrupt refs counter: " + err.Error()), EIO
				}
				return []byte(strconv.FormatUint(n, 10)), OK
			},
		},
	}
}

// clsGC is an other-category class: garbage collection support.
func clsGC() *NativeClass {
	return &NativeClass{
		Name:     "gc",
		Category: "other",
		Methods: map[string]NativeMethod{
			// reap clears a dead object's payload; returns ENOENT when
			// the object is still referenced.
			"reap": func(ctx *ClassCtx) ([]byte, ResultCode) {
				if string(ctx.Obj.Xattrs["gc.dead"]) != "1" {
					return []byte("object is live"), ENOENT
				}
				ctx.setData("")
				for k := range ctx.Obj.Omap {
					ctx.delOmap(k)
				}
				ctx.delXattr("gc.dead")
				return nil, OK
			},
		},
	}
}

// clsNumOps is a metadata-category class used by tests and examples: an
// atomic 64-bit counter in the bytestream (the style of interface ZLog's
// sequencer would use were it object-hosted).
func clsNumOps() *NativeClass {
	return &NativeClass{
		Name:     "counter",
		Category: "metadata",
		Methods: map[string]NativeMethod{
			"incr": func(ctx *ClassCtx) ([]byte, ResultCode) {
				var v uint64
				if len(ctx.Obj.Data) == 8 {
					v = binary.BigEndian.Uint64(ctx.Obj.Data)
				}
				v++
				var buf [8]byte
				binary.BigEndian.PutUint64(buf[:], v)
				ctx.setData(string(buf[:]))
				return []byte(strconv.FormatUint(v, 10)), OK
			},
			"read": func(ctx *ClassCtx) ([]byte, ResultCode) {
				var v uint64
				if len(ctx.Obj.Data) == 8 {
					v = binary.BigEndian.Uint64(ctx.Obj.Data)
				}
				return []byte(strconv.FormatUint(v, 10)), OK
			},
		},
	}
}

// clsDedup is an other-category class: introspection over the
// content-addressed dedup path (dedup.go), running next to the data
// like every other interface. "info" decodes a manifest object into a
// JSON summary.
func clsDedup() *NativeClass {
	return &NativeClass{
		Name:     "dedup",
		Category: "other",
		Methods: map[string]NativeMethod{
			"info": func(ctx *ClassCtx) ([]byte, ResultCode) {
				m, isManifest, err := DecodeManifest(ctx.Obj.Data)
				if !isManifest {
					return []byte("object is not a dedup manifest"), EINVAL
				}
				if err != nil {
					return []byte("corrupt manifest: " + err.Error()), EIO
				}
				out, jerr := json.Marshal(map[string]any{
					"total_len":     m.TotalLen,
					"chunks":        len(m.Chunks),
					"unique_blocks": len(m.blockNames()),
				})
				if jerr != nil {
					return []byte("encode failed: " + jerr.Error()), EIO
				}
				return out, OK
			},
		},
	}
}

func omapCounter(o *Object, key string) (uint64, error) {
	v, ok := o.Omap[key]
	if !ok {
		return 0, nil
	}
	return strconv.ParseUint(string(v), 10, 64)
}

func setOmapCounter(ctx *ClassCtx, key string, n uint64) {
	ctx.setOmap(key, strconv.FormatUint(n, 10))
}
