package rados

// Backend is the OSD's pluggable persistence seam. The OSD keeps its
// authoritative state in memory exactly as before; a durable backend
// additionally journals every applied mutation so a hard-killed OSD
// can rebuild the in-memory index by replaying the log.
//
// Contract: Record is called synchronously under the mutated object's
// slot lock and MUST capture (encode or copy) the mutation payload
// before returning — the Data/KV/Obj fields alias live copy-on-write
// state that later operations will replace, and maps (Omap/Xattrs) are
// mutated in place by subsequent ops. Commit makes every recorded
// mutation durable and is called after the slot lock is released, so a
// slow fsync never blocks other objects. Record failures are sticky
// and surface at the next Commit.
type Backend interface {
	// Durable reports whether this backend persists anything. The OSD
	// skips record/commit bookkeeping entirely when false.
	Durable() bool
	// Record journals one applied mutation (see contract above).
	Record(Mutation)
	// Commit makes all recorded mutations durable (group-committed).
	Commit() error
	// Replay invokes apply for the checkpoint's mutations and then for
	// every journaled mutation past the checkpoint, in log order.
	Replay(apply func(Mutation)) (ReplayStats, error)
	// Checkpoint persists a full-state snapshot (obtained from collect)
	// and truncates the journal behind it.
	Checkpoint(collect func() []Mutation) error
	// NeedCheckpoint reports whether enough journal has accumulated
	// since the last checkpoint to make one worthwhile.
	NeedCheckpoint() bool
	// Abandon simulates a process crash: buffered journal writes are
	// dropped and the tail is torn. The backend is dead afterwards.
	Abandon()
	// Close flushes and releases the backend.
	Close() error
}

// MutKind enumerates the journaled mutation types.
type MutKind uint8

// Journal record kinds. RecData carries the object's post-state
// bytestream (not the op's delta), making replay idempotent; RecSnapshot
// carries a whole object (backfill merges and checkpoints, which replace
// the copy wholesale); RecVerPin is a version-only advance (a replica
// no-op apply that pinned the primary's stamp); RecTxn carries the
// write-set of a class call or an overwrite — the final value of each
// thing the op touched, the same entries its replicas were sent — so
// its size follows the op, not the object. RecOmapSet and RecOmapDel
// are no longer written (those ops journal RecTxn) but still replay;
// RecXattrSet remains the record of a block's reference-set change.
const (
	RecCreate MutKind = iota
	RecData
	RecRemove
	RecPurge // slot dropped by a pool resplit; replays as a tombstone
	RecOmapSet
	RecOmapDel
	RecXattrSet
	RecSnapshot
	RecVerPin
	RecTxn
	// RecWitness is a witness record accepted (witness.go, rule 5) and
	// RecWitnessDrop its clearing; neither touches the object's slot.
	RecWitness
	RecWitnessDrop
)

func (k MutKind) String() string {
	names := [...]string{"create", "data", "remove", "purge", "omap-set",
		"omap-del", "xattr-set", "snapshot", "ver-pin", "txn", "witness", "witness-drop"}
	if int(k) < len(names) {
		return names[k]
	}
	return "rec(?)"
}

// Mutation is one journaled state change of one object. Version is the
// object's slot version after the change; replay applies a mutation
// only when its Version is ahead of the rebuilt slot (Force snapshots
// excepted, mirroring scrub's authoritative backfill).
//
// Its slices are copy-on-write, like the Object's they come from or go
// to: a recorded Mutation aliases live stored slices (the Backend
// contract), and a replayed one holds values the decoder copied out of
// the frame, which replay installs as they are. Neither side writes
// them in place.
type Mutation struct {
	Kind    MutKind
	Pool    string
	PG      int
	Object  string
	Version uint64
	Force   bool

	Data []byte            // RecData: full bytestream; RecXattrSet: value
	Key  string            // RecXattrSet key
	Keys []string          // RecOmapDel keys
	KV   map[string][]byte // RecOmapSet pairs
	Obj  *Object           // RecSnapshot payload
	Txn  []TxnOp           // RecTxn write-set
	Op   *OpRequest        // RecWitness: the witnessed op; RecWitnessDrop: its Client and OpID
}

// ReplayStats summarizes one startup replay.
type ReplayStats struct {
	CheckpointRecords int   // mutations restored from the checkpoint snapshot
	Records           int   // journal mutations replayed past the checkpoint
	Skipped           int   // journal records that failed to decode (dropped)
	TornBytes         int64 // torn-tail bytes the log truncated on open
}

// MemBackend is the non-durable backend: the seed's pure in-memory
// behavior. All methods are no-ops.
type MemBackend struct{}

// Durable reports false: nothing persists.
func (MemBackend) Durable() bool { return false }

// Record drops the mutation.
func (MemBackend) Record(Mutation) {}

// Commit is a no-op.
func (MemBackend) Commit() error { return nil }

// Replay restores nothing.
func (MemBackend) Replay(func(Mutation)) (ReplayStats, error) { return ReplayStats{}, nil }

// Checkpoint is a no-op.
func (MemBackend) Checkpoint(func() []Mutation) error { return nil }

// NeedCheckpoint is always false.
func (MemBackend) NeedCheckpoint() bool { return false }

// Abandon is a no-op: the state was already only in memory.
func (MemBackend) Abandon() {}

// Close is a no-op.
func (MemBackend) Close() error { return nil }
