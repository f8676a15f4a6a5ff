package rados

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/types"
)

// Object is the RADOS storage unit: a bytestream, a sorted key-value
// database (omap), and extended attributes. Class methods compose these
// native interfaces transactionally (Section 4.2: "an interface that
// atomically updates a matrix stored in the bytestream and an index of
// the matrix stored in the key-value database").
//
// Copy-on-write discipline: every mutation replaces the Data slice (and
// omap/xattr value slices) with a freshly allocated one rather than
// writing into the old backing array. That is what lets read replies
// alias the stored slices directly — zero copies on the in-process
// fabric — while a concurrent writer can never scribble under a reader.
// Callers of Read/GetXattr/OmapGet must treat returned bytes as
// immutable.
type Object struct {
	Name    string            `json:"name"`
	Data    []byte            `json:"data"`
	Omap    map[string][]byte `json:"omap"`
	Xattrs  map[string][]byte `json:"xattrs"`
	Version uint64            `json:"version"`
}

// NewObject creates an empty object.
func NewObject(name string) *Object {
	return &Object{
		Name:   name,
		Omap:   make(map[string][]byte),
		Xattrs: make(map[string][]byte),
	}
}

// clone deep-copies the object (for backfill shipping).
func (o *Object) clone() *Object {
	c := NewObject(o.Name)
	c.Version = o.Version
	c.Data = append([]byte(nil), o.Data...)
	for k, v := range o.Omap {
		c.Omap[k] = append([]byte(nil), v...)
	}
	for k, v := range o.Xattrs {
		c.Xattrs[k] = append([]byte(nil), v...)
	}
	return c
}

// applyTxn installs a write-set's final values by reference: its two
// callers hand it slices nobody writes again — the primary's stored
// slices on a replica, freshly decoded ones on replay — so the object
// adopts them (see TxnOp). Caller holds the object's slot lock.
func (o *Object) applyTxn(txn []TxnOp) {
	for i := range txn {
		op := &txn[i]
		switch op.Kind {
		case TxnData:
			o.Data = op.Val
		case TxnOmapSet:
			o.Omap[op.Key] = op.Val
		case TxnOmapDel:
			delete(o.Omap, op.Key)
		case TxnXattrSet:
			o.Xattrs[op.Key] = op.Val
		case TxnXattrDel:
			delete(o.Xattrs, op.Key)
		}
	}
}

// digest returns a checksum over the full object state, used by scrub.
func (o *Object) digest() uint64 {
	h := fnv.New64a()
	write := func(b []byte) { h.Write(b); h.Write([]byte{0}) } //nolint:errcheck
	write([]byte(o.Name))
	write(o.Data)
	keys := make([]string, 0, len(o.Omap))
	for k := range o.Omap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		write([]byte(k))
		write(o.Omap[k])
	}
	keys = keys[:0]
	for k := range o.Xattrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		write([]byte(k))
		write(o.Xattrs[k])
	}
	return h.Sum64()
}

// OmapKeysSorted lists omap keys with the given prefix in sorted order
// (the omap is a *sorted* kv database).
func (o *Object) OmapKeysSorted(prefix string) []string {
	var keys []string
	for k := range o.Omap {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// objEntry is the per-object concurrency slot inside a PG. Each object
// has its own mutex, so an operation on object A never waits behind
// object B's write or replication. The slot outlives the object itself:
// removal leaves a tombstone (obj == nil) whose version keeps advancing,
// which is what lets replicas order a remove against the writes around
// it and lets backfill distinguish "never existed" from "deleted newer
// than your copy".
type objEntry struct {
	mu  sync.Mutex
	obj *Object // guarded by mu; nil = tombstone (removed or never created)
	// ver is the authoritative mutation counter for this name. It is
	// mirrored into obj.Version while the object exists and survives
	// tombstoning so the per-object order is total across the object's
	// whole lifetime.
	ver uint64 // guarded by mu
	// applied is created by a replica applier holding an out-of-order
	// forward, which waits on it for the preceding mutation to land; the
	// next state change closes and clears it. Nil while nobody waits, so
	// the common mutation pays for no channel.
	applied chan struct{} // guarded by mu
	// touch is the last time this slot was mutated or, for dedup
	// blocks, stat-probed by a client assembling a manifest, or found
	// cited by a GC census. It is the GC grace clock: a block is
	// censused, and reclaimed if no manifest cites it, only once touch
	// is older than the grace window, which closes the race where a
	// client is told a block exists and then writes a manifest
	// referencing it. Primary-local and deliberately outside the scrub
	// digest — replicas need not agree on it.
	touch time.Time // guarded by mu
	// gcSweep/gcEpoch record the reclaim scan (OSD.gcSweepN) and map
	// epoch at which this primary last saw the block grace-expired. Because touch is primary-local, a failed-over
	// primary inherits a stale clock; requiring a second qualifying
	// observation — same primary, same epoch, a later sweep — re-opens
	// a full grace window after any failover before a block can go.
	gcSweep uint64      // guarded by mu
	gcEpoch types.Epoch // guarded by mu
	// unsynced counts, on a primary, the witnessed mutations of the
	// object whose fan-out has not finished (witness.go, rule 2); synced
	// is closed when it returns to zero, nil while nobody waits.
	unsynced int           // guarded by mu
	synced   chan struct{} // guarded by mu
}

// signalLocked wakes version-order waiters, if any. Caller holds e.mu.
func (e *objEntry) signalLocked() {
	if e.applied != nil {
		close(e.applied)
		e.applied = nil
	}
}

// appliedLocked returns the channel the next state change closes.
// Caller holds e.mu.
func (e *objEntry) appliedLocked() <-chan struct{} {
	if e.applied == nil {
		e.applied = make(chan struct{})
	}
	return e.applied
}

// bumpLocked advances the version after a local mutation, keeps the
// stored object's stamp in sync, refreshes the GC touch clock, and
// wakes waiters. Caller holds e.mu.
func (e *objEntry) bumpLocked() {
	e.ver++
	if e.obj != nil {
		e.obj.Version = e.ver
	}
	e.touch = time.Now()
	e.signalLocked()
}

// materializeLocked returns the live object, creating an empty one in
// place of a tombstone. Caller holds e.mu.
func (e *objEntry) materializeLocked(name string) *Object {
	if e.obj == nil {
		e.obj = NewObject(name)
		e.obj.Version = e.ver
	}
	return e.obj
}

// pg is one placement group replica held by an OSD. The PG mutex guards
// only the name→slot map; object state is protected per object by its
// slot's mutex, so operations on distinct objects in one PG proceed in
// parallel. Class method atomicity is per object — exactly the unit the
// paper's interfaces require — not per PG.
type pg struct {
	mu      sync.Mutex
	id      PGID
	objects map[string]*objEntry // guarded by mu
}

// entry returns the slot for name, creating it on first touch. Slots
// are never deleted by object removal, so concurrent holders and
// version-order waiters always share one coherent slot per name.
func (p *pg) entry(name string) *objEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.objects[name]
	if !ok {
		e = &objEntry{}
		p.objects[name] = e
	}
	return e
}

// lookup returns the slot for name, or nil when it has none. Unlike
// entry it never creates one, so a read of an absent name leaves the PG
// as it found it.
func (p *pg) lookup(name string) *objEntry {
	p.mu.Lock()
	e := p.objects[name]
	p.mu.Unlock()
	return e
}

// entries returns the current slots in sorted name order.
func (p *pg) entries() []*objEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.objects))
	for n := range p.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*objEntry, 0, len(names))
	for _, n := range names {
		out = append(out, p.objects[n])
	}
	return out
}

// slots returns a point-in-time copy of the name→slot map (the slots
// themselves are shared; lock each before reading its state).
func (p *pg) slots() map[string]*objEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]*objEntry, len(p.objects))
	for name, e := range p.objects {
		out[name] = e
	}
	return out
}

// tombstones returns the versions of the PG's deleted slots (obj ==
// nil with a nonzero version). A Force backfill ships them alongside
// the live snapshot so the receiver can order its own entries against
// the sender's deletions instead of purging blindly.
func (p *pg) tombstones() map[string]uint64 {
	p.mu.Lock()
	slots := make(map[string]*objEntry, len(p.objects))
	for name, e := range p.objects {
		slots[name] = e
	}
	p.mu.Unlock()
	out := make(map[string]uint64)
	for name, e := range slots {
		e.mu.Lock()
		if e.obj == nil && e.ver > 0 {
			out[name] = e.ver
		}
		e.mu.Unlock()
	}
	return out
}

// snapshot deep-copies the PG contents for backfill.
func (p *pg) snapshot() []*Object {
	var out []*Object
	for _, e := range p.entries() {
		e.mu.Lock()
		if e.obj != nil {
			out = append(out, e.obj.clone())
		}
		e.mu.Unlock()
	}
	return out
}

// digests returns per-object checksums for scrub comparison. Tombstones
// are invisible, matching a replica that never saw the object.
func (p *pg) digests() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range p.entries() {
		e.mu.Lock()
		if e.obj != nil {
			out[e.obj.Name] = e.obj.digest()
		}
		e.mu.Unlock()
	}
	return out
}
