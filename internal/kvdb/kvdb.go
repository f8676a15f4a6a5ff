// Package kvdb is an elastic key-value database built over the ZLog
// shared log — the first of the higher-level services the paper's
// future work proposes ("an elastic cloud database", §7), in the style
// of the log-structured databases it cites (Hyder, Tango).
//
// Every mutation is an entry in one totally-ordered shared log; each
// database node materializes the log into a local map. Because the log
// is the only serialization point:
//
//   - any number of nodes can serve the same database (elasticity:
//     attach a node, it replays the log and is current);
//   - optimistic transactions (compare-and-swap on per-key versions)
//     resolve identically on every node, with no coordination beyond
//     the append;
//   - checkpoints (a snapshot object in RADOS plus a log position) let
//     new nodes skip history and let old entries be trimmed.
package kvdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mds"
	"repro/internal/rados"
	"repro/internal/wire"
	"repro/internal/zlog"
)

// ErrConflict is returned by CAS when the expected version lost.
var ErrConflict = errors.New("kvdb: version conflict")

// record is one log entry.
type record struct {
	Op  string `json:"op"` // put | del | cas
	Key string `json:"k"`
	Val string `json:"v,omitempty"`
	// Ver is the expected per-key version for cas records.
	Ver uint64 `json:"ver,omitempty"`
}

// entry is one materialized key.
type entry struct {
	Val string `json:"v"`
	Ver uint64 `json:"ver"` // bumps on every successful mutation
}

// checkpoint is the snapshot object format.
type checkpoint struct {
	Pos   uint64           `json:"pos"` // first log position NOT covered
	State map[string]entry `json:"state"`
}

// Options configures a database handle.
type Options struct {
	Name string // database (and underlying log) name
	Pool string // RADOS pool for log entries and checkpoints
	// SeqPolicy tunes the log sequencer capability (bursty writers
	// benefit from quota batching; the default forces round-trips).
	SeqPolicy mds.CapPolicy
}

// DB is one database node.
type DB struct {
	opts Options
	log  *zlog.Log
	rc   *rados.Client

	mu      sync.Mutex
	state   map[string]entry
	applied uint64 // next log position to apply
}

func ckptObject(name string) string { return "kvdb." + name + ".ckpt" }

// Open attaches a node to the database, loading the latest checkpoint
// (if any) and replaying the log suffix.
func Open(ctx context.Context, net *wire.Network, self wire.Addr, mons []int, opts Options) (*DB, error) {
	if opts.Name == "" || opts.Pool == "" {
		return nil, fmt.Errorf("kvdb: name and pool are required")
	}
	l, err := zlog.Open(ctx, net, self, mons, zlog.Options{
		Name: "kvdb-" + opts.Name, Pool: opts.Pool, SeqPolicy: opts.SeqPolicy,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:  opts,
		log:   l,
		rc:    rados.NewClient(net, self+".kvdb", mons),
		state: make(map[string]entry),
	}
	if err := db.rc.RefreshMap(ctx); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.loadCheckpoint(ctx); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Sync(ctx); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// Close releases the node's resources. The database itself lives in the
// log and checkpoints.
func (db *DB) Close() {
	db.log.Close()
	db.rc.Close()
}

// loadCheckpoint installs the newest snapshot when one exists.
func (db *DB) loadCheckpoint(ctx context.Context) error {
	raw, err := db.rc.Read(ctx, db.opts.Pool, ckptObject(db.opts.Name))
	if errors.Is(err, rados.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	var ck checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return fmt.Errorf("kvdb: corrupt checkpoint: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ck.Pos > db.applied {
		db.state = ck.State
		if db.state == nil {
			db.state = make(map[string]entry)
		}
		db.applied = ck.Pos
	}
	return nil
}

// Sync replays the log up to the current tail, making subsequent reads
// reflect every append that completed before Sync started.
func (db *DB) Sync(ctx context.Context) error {
	tail, err := db.log.Tail(ctx)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.applied < tail {
		data, err := db.log.Read(ctx, db.applied)
		switch {
		case errors.Is(err, zlog.ErrFilled) || errors.Is(err, zlog.ErrTrimmed):
			db.applied++
			continue
		case errors.Is(err, zlog.ErrNotWritten):
			// A hole below the tail: an appender obtained the position
			// but has not written yet. Fill it so the log stays dense
			// and replicas agree it is junk (the CORFU discipline).
			db.mu.Unlock()
			ferr := db.log.Fill(ctx, db.applied)
			db.mu.Lock()
			if ferr != nil && !errors.Is(ferr, rados.ErrExists) {
				return ferr
			}
			continue // reread: either filled or won by the writer
		case err != nil:
			return err
		}
		var r record
		if jerr := json.Unmarshal(data, &r); jerr != nil {
			db.applied++ // skip alien entry
			continue
		}
		db.applyLocked(r)
		db.applied++
	}
	return nil
}

// applyLocked folds one record into the state; deterministic, so every
// node converges.
func (db *DB) applyLocked(r record) {
	switch r.Op {
	case "put":
		e := db.state[r.Key]
		db.state[r.Key] = entry{Val: r.Val, Ver: e.Ver + 1}
	case "del":
		delete(db.state, r.Key)
	case "cas":
		e, ok := db.state[r.Key]
		cur := uint64(0)
		if ok {
			cur = e.Ver
		}
		if cur == r.Ver {
			db.state[r.Key] = entry{Val: r.Val, Ver: cur + 1}
		}
		// Losing CAS records are no-ops — identically on every node.
	}
}

func (db *DB) append(ctx context.Context, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = db.log.Append(ctx, data)
	return err
}

// Put writes key=val.
func (db *DB) Put(ctx context.Context, key, val string) error {
	return db.append(ctx, record{Op: "put", Key: key, Val: val})
}

// Delete removes key.
func (db *DB) Delete(ctx context.Context, key string) error {
	return db.append(ctx, record{Op: "del", Key: key})
}

// Get returns the value and its version, syncing to the log tail first
// (linearizable with respect to completed writes).
func (db *DB) Get(ctx context.Context, key string) (string, uint64, bool, error) {
	if err := db.Sync(ctx); err != nil {
		return "", 0, false, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.state[key]
	return e.Val, e.Ver, ok, nil
}

// GetStale reads the node's materialized state without syncing — cheap,
// possibly stale.
func (db *DB) GetStale(key string) (string, uint64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.state[key]
	return e.Val, e.Ver, ok
}

// CAS appends a conditional write: it succeeds iff key's version still
// equals expectVer when the record is applied. The caller learns the
// outcome by syncing past its own append.
func (db *DB) CAS(ctx context.Context, key string, expectVer uint64, val string) error {
	if err := db.append(ctx, record{Op: "cas", Key: key, Ver: expectVer, Val: val}); err != nil {
		return err
	}
	if err := db.Sync(ctx); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e := db.state[key]
	if e.Ver == expectVer+1 && e.Val == val {
		return nil
	}
	// Either another writer bumped the version first, or our record
	// applied and someone overwrote after; distinguishing needs a
	// read-back of our own entry. Conservative: report conflict unless
	// the state shows exactly our write.
	return ErrConflict
}

// Len returns the number of live keys in this node's materialized view.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.state)
}

// Checkpoint snapshots the synced state into RADOS and trims the
// covered log prefix, bounding replay time for new nodes.
func (db *DB) Checkpoint(ctx context.Context) error {
	if err := db.Sync(ctx); err != nil {
		return err
	}
	db.mu.Lock()
	ck := checkpoint{Pos: db.applied, State: make(map[string]entry, len(db.state))}
	for k, v := range db.state {
		ck.State[k] = v
	}
	db.mu.Unlock()

	raw, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := db.rc.WriteFull(ctx, db.opts.Pool, ckptObject(db.opts.Name), raw); err != nil {
		return err
	}
	// Trim the covered prefix; trimmed entries read as holes that Sync
	// skips, and their storage is reclaimable.
	for pos := uint64(0); pos < ck.Pos; pos++ {
		tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := db.log.Trim(tctx, pos)
		cancel()
		if err != nil {
			return fmt.Errorf("kvdb: trim %d: %w", pos, err)
		}
	}
	return nil
}

// Recover runs the underlying log's sequencer recovery (after a
// metadata-service failure lost the sequencer state).
func (db *DB) Recover(ctx context.Context) error { return db.log.Recover(ctx) }
