package rados

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// WALBackendOptions is OpenWALBackend's options argument. It has no
// fields: the WAL rotates at wal's default segment size and every
// commit is synced.
type WALBackendOptions struct{}

// compactBytes is the journal-tail size past which NeedCheckpoint
// reports true.
const compactBytes = 1 << 20

// WALBackend journals mutations to a segmented write-ahead log
// (internal/wal) and rebuilds OSD state by replaying it. Mutations are
// encoded synchronously in Record (see the Backend contract: payloads
// alias live COW state, so capture must happen before Record returns)
// and made durable in batches by Commit's group commit.
type WALBackend struct {
	log *wal.Log

	mu     sync.Mutex
	recErr error // guarded by mu; first Record-side failure, surfaced by Commit
}

// OpenWALBackend opens (creating or recovering) a WAL backend rooted at
// dir. A torn tail left by a crash is truncated here; the stats surface
// via Replay.
func OpenWALBackend(dir string, _ WALBackendOptions) (*WALBackend, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	return &WALBackend{log: l}, nil
}

// Record encodes and appends one mutation. Errors are sticky and
// surface at the next Commit, matching the contract that Record is
// called under slot locks where there is no good error path.
func (b *WALBackend) Record(mut Mutation) {
	buf := encodeMutation(nil, mut)
	if _, err := b.log.Append(buf); err != nil {
		b.mu.Lock()
		if b.recErr == nil {
			b.recErr = err
		}
		b.mu.Unlock()
	}
}

// Commit group-commits every recorded mutation.
func (b *WALBackend) Commit() error {
	b.mu.Lock()
	err := b.recErr
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal backend: deferred record failure: %w", err)
	}
	return b.log.Sync()
}

// Replay rebuilds state: first the checkpoint snapshot's mutations,
// then every journaled mutation past it. A journal record that fails
// to decode is counted in Skipped and dropped — the version-guarded
// apply path makes over-skipping safe (backfill and scrub repair the
// gap) where a partial apply would not be.
func (b *WALBackend) Replay(apply func(Mutation)) (ReplayStats, error) {
	stats := ReplayStats{TornBytes: b.log.TornBytes()}
	state, _, ok, err := b.log.LoadCheckpoint()
	if err != nil {
		return stats, err
	}
	if ok {
		muts, derr := decodeMutationList(state)
		if derr != nil {
			return stats, fmt.Errorf("wal backend: checkpoint decode: %w", derr)
		}
		for _, m := range muts {
			apply(m)
			stats.CheckpointRecords++
		}
	}
	rerr := b.log.Replay(func(lsn uint64, rec []byte) error {
		mut, derr := decodeMutation(rec)
		if derr != nil {
			stats.Skipped++
			return nil
		}
		apply(mut)
		stats.Records++
		return nil
	})
	return stats, rerr
}

// Checkpoint snapshots full state and truncates the journal. The
// covered LSN is sampled BEFORE collect runs: any record appended by
// the time of the sample was applied under the same slot lock that
// produced it, so the (later) snapshot necessarily includes its effect;
// records landing during collection stay in the journal and replay
// idempotently over the snapshot thanks to the version guard.
func (b *WALBackend) Checkpoint(collect func() []Mutation) error {
	upTo := b.log.Appended()
	muts := collect()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		enc := encodeMutation(nil, m)
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return b.log.Checkpoint(buf, upTo)
}

// NeedCheckpoint reports whether the journal tail has outgrown the
// compaction threshold.
func (b *WALBackend) NeedCheckpoint() bool {
	return b.log.TailBytes() >= compactBytes
}

// Abandon simulates kill -9: unflushed appends are dropped and the log
// tail is torn.
func (b *WALBackend) Abandon() { b.log.Abandon(true) }

// Close flushes and closes the log.
func (b *WALBackend) Close() error { return b.log.Close() }

// Syncs exposes the underlying fsync-batch count (tests).
func (b *WALBackend) Syncs() uint64 { return b.log.Syncs() }

// ---- mutation codec -------------------------------------------------
//
// One record: kind byte, flags byte (bit0 = Force), pool, PG, object,
// version, then kind-specific payload. Strings and byte slices are
// uvarint-length-prefixed; maps are written in sorted key order so the
// encoding is deterministic.

const mutFlagForce = 1

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendKVMap(buf []byte, kv map[string][]byte) []byte {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendBytes(buf, kv[k])
	}
	return buf
}

func encodeMutation(buf []byte, m Mutation) []byte {
	buf = append(buf, byte(m.Kind))
	var flags byte
	if m.Force {
		flags |= mutFlagForce
	}
	buf = append(buf, flags)
	buf = appendString(buf, m.Pool)
	buf = binary.AppendUvarint(buf, uint64(m.PG))
	buf = appendString(buf, m.Object)
	buf = binary.AppendUvarint(buf, m.Version)
	switch m.Kind {
	case RecData:
		buf = appendBytes(buf, m.Data)
	case RecSnapshot:
		// Obj aliases live state; encoding now (not at Commit) is what
		// makes that safe.
		buf = appendBytes(buf, m.Obj.Data)
		buf = appendKVMap(buf, m.Obj.Omap)
		buf = appendKVMap(buf, m.Obj.Xattrs)
	case RecTxn:
		buf = binary.AppendUvarint(buf, uint64(len(m.Txn)))
		for i := range m.Txn {
			op := &m.Txn[i]
			buf = append(buf, byte(op.Kind))
			buf = appendString(buf, op.Key)
			buf = appendBytes(buf, op.Val)
		}
	case RecWitness, RecWitnessDrop:
		buf = appendString(buf, string(m.Op.Client))
		buf = binary.AppendUvarint(buf, m.Op.OpID)
		if m.Kind == RecWitness {
			buf = binary.AppendUvarint(buf, uint64(m.Op.Op))
			buf = binary.AppendUvarint(buf, uint64(m.Op.Epoch))
			buf = appendString(buf, m.Op.Class)
			buf = appendString(buf, m.Op.Method)
			buf = appendBytes(buf, m.Op.Input)
			buf = binary.AppendUvarint(buf, uint64(len(m.Op.Keys)))
			for _, k := range m.Op.Keys {
				buf = appendString(buf, k)
			}
		}
	case RecRemove, RecVerPin:
		// Header only.
	}
	return buf
}

type mutDecoder struct {
	buf []byte
	err error
}

func (d *mutDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("rados: mutation decode: bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *mutDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = errors.New("rados: mutation decode: short buffer")
		return nil
	}
	out := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return out
}

func (d *mutDecoder) str() string { return string(d.bytes()) }

func (d *mutDecoder) kvMap() map[string][]byte {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.err = errors.New("rados: mutation decode: pair count overflows buffer")
	}
	if d.err != nil {
		return nil
	}
	kv := make(map[string][]byte, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str()
		kv[k] = d.bytes()
	}
	return kv
}

func decodeMutation(rec []byte) (Mutation, error) {
	if len(rec) < 2 {
		return Mutation{}, errors.New("rados: mutation decode: too short")
	}
	var m Mutation
	m.Kind = MutKind(rec[0])
	if m.Kind == 0 || m.Kind > RecWitnessDrop {
		return Mutation{}, fmt.Errorf("rados: mutation decode: unknown kind %d", rec[0])
	}
	m.Force = rec[1]&mutFlagForce != 0
	d := &mutDecoder{buf: rec[2:]}
	m.Pool = d.str()
	m.PG = int(d.uvarint())
	m.Object = d.str()
	m.Version = d.uvarint()
	switch m.Kind {
	case RecData:
		m.Data = d.bytes()
	case RecSnapshot:
		obj := NewObject(m.Object)
		obj.Data = d.bytes()
		obj.Omap = d.kvMap()
		obj.Xattrs = d.kvMap()
		obj.Version = m.Version
		m.Obj = obj
	case RecTxn:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.buf)) {
			d.err = errors.New("rados: mutation decode: txn entry count overflows buffer")
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			var op TxnOp
			if len(d.buf) == 0 || TxnKind(d.buf[0]) > TxnXattrDel {
				d.err = errors.New("rados: mutation decode: bad txn entry kind")
				break
			}
			op.Kind, d.buf = TxnKind(d.buf[0]), d.buf[1:]
			op.Key = d.str()
			op.Val = d.bytes()
			m.Txn = append(m.Txn, op)
		}
	case RecWitness, RecWitnessDrop:
		op := &OpRequest{Pool: m.Pool, Object: m.Object, Witnessed: true}
		op.Client = wire.Addr(d.str())
		op.OpID = d.uvarint()
		if m.Kind == RecWitness {
			op.Op = OpCode(d.uvarint())
			op.Epoch = types.Epoch(d.uvarint())
			op.Class = d.str()
			op.Method = d.str()
			op.Input = d.bytes()
			n := d.uvarint()
			if d.err == nil && n > uint64(len(d.buf)) {
				d.err = errors.New("rados: mutation decode: key count overflows buffer")
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				op.Keys = append(op.Keys, d.str())
			}
		}
		m.Op = op
	case RecRemove, RecVerPin:
	}
	if d.err != nil {
		return Mutation{}, d.err
	}
	return m, nil
}

func decodeMutationList(buf []byte) ([]Mutation, error) {
	d := &mutDecoder{buf: buf}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(d.buf)) {
		return nil, errors.New("rados: mutation list: count overflows buffer")
	}
	out := make([]Mutation, 0, n)
	for i := uint64(0); i < n; i++ {
		rec := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		m, err := decodeMutation(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
