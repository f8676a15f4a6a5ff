// Package rados implements the reliable distributed object store that
// Malacology re-purposes (Section 4.4 of the paper): object storage
// daemons (OSDs) holding replicated placement groups of objects, each
// object a bytestream plus a sorted key-value database (omap) plus
// extended attributes; primary-copy replication; epoch-guarded
// operations; peer-to-peer gossip of cluster maps; background scrub; and
// dynamically installed object interface classes executed next to the
// data (Section 4.2). It is the durability substrate under both Mantle
// (policy objects) and ZLog (log entry storage).
package rados

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/types"
	"repro/internal/wire"
)

// OpCode enumerates object operations.
type OpCode int

// Object operations.
const (
	OpRead OpCode = iota
	OpWriteFull
	OpAppend
	OpStat
	OpRemove
	OpCreate
	OpOmapGet
	OpOmapSet
	OpOmapDel
	OpOmapList
	OpGetXattr
	OpSetXattr
	OpCall // invoke an object-class method

	// Dedup block operations (content-addressed immutable blocks named
	// by their SHA-256; see dedup.go).
	OpBlockStat    // which of req.Keys exist here (batched presence probe; read-touches the reclaim clock)
	OpBlockWrite   // create-if-absent write of req.Blocks (or the one block Object/Data); a duplicate is an ack + touch, never a rewrite
	OpBlockReclaim // remove the block iff untouched for the grace window (req.Count ns)
	OpBlockRead    // the bytes of every block of req.Keys this primary leads, in one reply

	// OpTxn is the replica-only form of a class call or an overwrite (an
	// op whose row has a writeSet): the write-set the primary stored
	// (req.Txn), applied as final values. No client may send it.
	OpTxn
)

// opClass is what an op does to the object it names, which decides what
// a resend of it needs. The zero value is undeclared, and refused.
type opClass uint8

const (
	classUndeclared    opClass = iota
	classRead                  // never changes an object: never journaled, forwarded or replay-cached
	classOverwrite             // replaces what it writes without reading it
	classVersioned             // mutates behind a leading existence or duplicate guard
	classReplayGuarded         // reads what it writes: a resend is safe only as a replay-cache hit
	classReplicaOnly           // a primary's forward, which no client may send
)

// opSpec is one op's row of opSpecs: all the OSD knows of the op but how
// to apply it, which is its arm in applyOp (or applyCall, or readBatch).
type opSpec struct {
	name     string
	class    opClass
	journals bool    // recordOp journals it; RecCreate is kind 0, so journal cannot say "none"
	journal  MutKind // its record's kind
	call     bool    // a class call: applyCall runs it, and it forwards as its write-set
	// writeSet, set for the overwrites, is an applied op's write-set: for
	// each thing req replaced, the value obj now stores, shared by the
	// journal record and every replica (asTxn). Caller holds the slot lock.
	writeSet  func(obj *Object, req OpRequest) []TxnOp
	readBatch func(o *OSD, req OpRequest, pv *poolView, epoch types.Epoch) OpReply // a block read, spanning PGs
}

// opSpecs is indexed by OpCode: adding an op costs one row here and one
// arm in applyOp. Every row declares a class (TestOpTable).
var opSpecs = [...]opSpec{
	OpRead: {name: "read", class: classRead},
	OpWriteFull: {name: "write-full", class: classOverwrite, writeSet: func(obj *Object, _ OpRequest) []TxnOp {
		return []TxnOp{{Kind: TxnData, Val: obj.Data}}
	}},
	OpAppend:  {name: "append", class: classReplayGuarded, journals: true, journal: RecData},
	OpStat:    {name: "stat", class: classRead},
	OpRemove:  {name: "remove", class: classVersioned, journals: true, journal: RecRemove},
	OpCreate:  {name: "create", class: classVersioned, journals: true, journal: RecCreate},
	OpOmapGet: {name: "omap-get", class: classRead},
	OpOmapSet: {name: "omap-set", class: classOverwrite, writeSet: func(obj *Object, req OpRequest) []TxnOp {
		txn := make([]TxnOp, 0, len(req.KV))
		for k := range req.KV {
			txn = append(txn, TxnOp{Kind: TxnOmapSet, Key: k, Val: obj.Omap[k]})
		}
		// Key order, not map order: the journal encoding stays deterministic.
		slices.SortFunc(txn, func(a, b TxnOp) int { return strings.Compare(a.Key, b.Key) })
		return txn
	}},
	OpOmapDel: {name: "omap-del", class: classVersioned, writeSet: func(_ *Object, req OpRequest) []TxnOp {
		txn := make([]TxnOp, 0, len(req.Keys))
		for _, k := range req.Keys {
			txn = append(txn, TxnOp{Kind: TxnOmapDel, Key: k})
		}
		return txn
	}},
	OpOmapList: {name: "omap-list", class: classRead},
	OpGetXattr: {name: "getxattr", class: classRead},
	OpSetXattr: {name: "setxattr", class: classOverwrite, writeSet: func(obj *Object, req OpRequest) []TxnOp {
		return []TxnOp{{Kind: TxnXattrSet, Key: req.Key, Val: obj.Xattrs[req.Key]}}
	}},
	OpCall:         {name: "call", class: classReplayGuarded, call: true}, // whether it writes is known once it ran
	OpBlockStat:    {name: "block-stat", class: classRead, readBatch: (*OSD).blockStatBatch},
	OpBlockWrite:   {name: "block-write", class: classOverwrite, journals: true, journal: RecData},
	OpBlockReclaim: {name: "block-reclaim", class: classVersioned, journals: true, journal: RecRemove},
	OpBlockRead:    {name: "block-read", class: classRead, readBatch: (*OSD).blockReadBatch},
	OpTxn:          {name: "txn", class: classReplicaOnly, journals: true, journal: RecTxn},
}

// spec returns op's row; false for an op outside opSpecs or undeclared.
func (o OpCode) spec() (*opSpec, bool) {
	if o < 0 || int(o) >= len(opSpecs) || opSpecs[o].class == classUndeclared {
		return nil, false
	}
	return &opSpecs[o], true
}

// asTxn: once applied, the op journals and forwards as the OpTxn it stored.
func (s *opSpec) asTxn() bool { return s.call || s.writeSet != nil }

func (o OpCode) String() string {
	if s, ok := o.spec(); ok {
		return s.name
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ResultCode is the outcome class of an operation. It is 32 bits wide
// so that OpReply's small fields share one word: a reply past 128 bytes
// would leave the replay cache's map storing each one behind a pointer.
type ResultCode int32

// Result codes (mirroring the errno-style results Ceph classes use).
const (
	OK ResultCode = iota
	ENOENT
	EEXIST
	ESTALE // application-level staleness (e.g. a sealed epoch in a class)
	EINVAL
	EIO
	ECANCELED // class method explicitly aborted the transaction
	// EMapStale is cluster-map staleness: the sender's OSDMap epoch is
	// out of date or placement moved. The client library retries it
	// transparently after a map refresh; it never reaches applications.
	EMapStale
)

func (r ResultCode) String() string {
	names := [...]string{"OK", "ENOENT", "EEXIST", "ESTALE", "EINVAL", "EIO", "ECANCELED", "EMAPSTALE"}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("rc(%d)", int(r))
}

// Errors surfaced by the client.
var (
	ErrNotFound = errors.New("rados: object not found")
	ErrExists   = errors.New("rados: object exists")
	ErrStale    = errors.New("rados: stale map epoch")
	ErrInval    = errors.New("rados: invalid argument")
	ErrIO       = errors.New("rados: io error")
	ErrCanceled = errors.New("rados: operation canceled by class")
	// ErrRetriesExhausted wraps the final failure after the client's
	// map-refresh retry budget is spent; callers match it with errors.Is.
	ErrRetriesExhausted = errors.New("rados: retries exhausted")
	// ErrClosed fails an op on a closed client, and any op still waiting
	// for its replicas when the client closed.
	ErrClosed = errors.New("rados: client closed")
)

// ErrFor converts a result code to a sentinel error (nil for OK).
func ErrFor(rc ResultCode, detail string) error {
	var base error
	switch rc {
	case OK:
		return nil
	case ENOENT:
		base = ErrNotFound
	case EEXIST:
		base = ErrExists
	case ESTALE, EMapStale:
		base = ErrStale
	case EINVAL:
		base = ErrInval
	case ECANCELED:
		base = ErrCanceled
	default:
		base = ErrIO
	}
	if detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// OpRequest is one object operation addressed to the primary OSD of the
// object's placement group. It crosses the fabric as *OpRequest: the
// receiving daemon copies it once on entry (OSD.handle) and never
// writes the sender's.
type OpRequest struct {
	Pool   string
	Object string
	// Epoch is the sender's OSDMap epoch; daemons reject ops from
	// clients with older maps (ESTALE) so that interface changes and
	// placement changes are observed before I/O continues.
	Epoch types.Epoch
	Op    OpCode
	// OpID identifies one logical client operation across resends: the
	// client stamps it once before its retry loop, and the primary's
	// replay cache returns the recorded reply for a duplicate (from,
	// OpID) instead of re-applying a non-idempotent mutation (an append
	// whose ack was lost must not double-apply). Zero means unstamped.
	OpID uint64

	Data   []byte            // write-full / append payload
	Key    string            // omap/xattr key
	Keys   []string          // omap multi-get
	KV     map[string][]byte // omap-set payload
	Class  string            // OpCall: class name
	Method string            // OpCall: method name
	Input  []byte            // OpCall: method input
	// Count is OpBlockReclaim's grace window in nanoseconds, re-checked
	// under the block's slot lock so a stat or write since the sweep's
	// selection wins the race against the sweeper.
	Count int64
	// Blocks is the batched form of OpBlockWrite: every block the sender
	// has for this daemon, in one request (see BlockOp).
	Blocks []BlockOp
	// Txn is OpTxn's payload: the write-set of the overwrite or class
	// call the primary applied (see TxnOp).
	Txn []TxnOp

	// Replica marks a primary-to-replica forward; replicas apply without
	// re-forwarding.
	Replica bool
	// Witnessed marks an op whose client also sent each replica a
	// witness copy (witness.go), and a forward of one. On such a forward
	// Data is the primary's reply payload.
	Witnessed bool
	// Client, on a forward, is the address of the client whose op
	// (OpID) it carries: the replica acknowledges that client directly
	// once it has applied and committed the forward (replicaAck), unless
	// it holds the op's witness record, whose acceptance answered already.
	Client wire.Addr
	// PrevVersion/NewVersion carry the primary's per-object version
	// stamps on a replica forward: the replica applies only once its
	// local copy reaches PrevVersion (buffering out-of-order arrivals of
	// the parallel fan-out) and lands on NewVersion afterwards.
	PrevVersion uint64
	NewVersion  uint64
}

// BlockOp is one entry of a batched OpBlockWrite. A client fills Name
// and Data; on a primary-to-replica forward each entry also carries the
// primary's version stamps for that block, with the meaning of
// OpRequest.PrevVersion/NewVersion — the entries of one batch are
// independent objects, each ordered on its own slot.
type BlockOp struct {
	Name        string
	Data        []byte
	PrevVersion uint64
	NewVersion  uint64
}

// TxnKind names what one write-set entry replaces.
type TxnKind uint8

// Write-set entry kinds.
const (
	TxnData     TxnKind = iota // Val is the whole bytestream
	TxnOmapSet                 // omap[Key] = Val
	TxnOmapDel                 // omap key removed
	TxnXattrSet                // xattrs[Key] = Val
	TxnXattrDel                // xattr removed
)

// TxnOp is one entry of a write-set — of a class call, or of an
// overwrite (OpWriteFull, OpSetXattr, OpOmapSet, OpOmapDel): the final
// state of one thing the op touched, never the operation that produced
// it, so applying a write-set twice, or on a copy the op never ran
// against, lands on the primary's values. The same entries are the
// replica forward (OpRequest.Txn) and the journal record (RecTxn).
//
// Val is copy-on-write: it aliases the slice the primary stored, or a
// slice replay decoded fresh, and nobody writes either in place — so
// whoever installs an entry shares Val rather than cloning it, and a
// replicated write keeps one copy of its payload on all its replicas.
type TxnOp struct {
	Kind TxnKind
	Key  string
	Val  []byte
}

// OpReply carries the result of an OpRequest.
//
// Replies are retained verbatim by the primary's replay cache, so the
// copy-on-write discipline documented on Object extends to them: Data,
// KV values, and Keys may alias stored object state and must never be
// written in place — a handler that wants a scratch buffer must clone
// first (the cowalias pass machine-checks this).
type OpReply struct {
	Result ResultCode
	// Forwards, on a primary's answer to a mutation, counts the replica
	// peers it forwarded the op to and has not yet heard back from. Each
	// answers the client for itself once it has applied the forward
	// (replicaAck), or the primary relays for it when that ack cannot
	// reach the client. A re-send answered from the
	// replay cache after the fan-out finished carries 0.
	Forwards uint16
	// Unacked, on a replica's OK to a forward, says it applied the
	// forward but its ack did not reach the client: the primary relays.
	Unacked bool
	Detail  string
	Data    []byte
	KV      map[string][]byte
	Keys    []string
	// Blocks is OpBlockRead's payload: Blocks[i] holds the bytes of the
	// block Keys[i] names.
	Blocks  [][]byte
	Version uint64      // object version after the op
	Size    int64       // OpStat
	Epoch   types.Epoch // daemon's map epoch (lets stale clients resync)
}

// replicaAck answers a client for one peer of a forwarded op: the
// forward itself, sent back to the client it names, and the client reads
// only its OpID. The replica sends it once it has applied and committed
// the forward. Echoing the forward costs no allocation; nobody writes it.
type replicaAck OpRequest

// relayAck is the primary's answer to a client for a peer whose own ack
// will not come: the forward failed or was refused, which the primary's
// cluster log records, or the replica could not reach the client. It
// names the peer, so the client's tally counts it once beside any
// accept or ack from that peer.
type relayAck struct {
	OpID uint64
	Peer wire.Addr
}

// OSDAddr is the wire address of an OSD.
func OSDAddr(id int) wire.Addr {
	if id >= 0 && id < len(osdAddrs) {
		return osdAddrs[id]
	}
	return wire.Addr(types.EntityName(types.EntityOSD, id))
}

// osdAddrs holds the addresses of the first OSD ids, so the op path
// sends without building an address string per call.
var osdAddrs = func() (a [256]wire.Addr) {
	for id := range a {
		a[id] = wire.Addr(types.EntityName(types.EntityOSD, id))
	}
	return a
}()

// gossipMsg carries a peer's map epoch; a behind peer replies asking for
// the full map, which the sender pushes.
type gossipMsg struct {
	From  int
	Epoch types.Epoch
	// Map is attached when the sender knows the receiver is behind.
	Map *types.OSDMap
}

// backfillMsg pushes full PG contents to a (possibly new) replica after
// a map change.
type backfillMsg struct {
	Pool    string
	PG      int
	Objects []*Object
	Epoch   types.Epoch
	// Force replaces objects regardless of version; used by scrub repair
	// where the primary's copy is authoritative.
	Force bool
	// Tombstones carries, for Force pushes, the sender's deleted slots
	// and their versions at scan time. The receiver's deletion pass
	// orders its own entries against these instead of purging every
	// name the push omitted — a forward for a just-created object that
	// lands between the sender's scan and the pass must survive.
	Tombstones map[string]uint64
}

// scrubMsg asks a replica for a digest of its PG contents.
type scrubMsg struct {
	Pool string
	PG   int
}

// scrubReply returns per-object checksums for a PG.
type scrubReply struct {
	Digests map[string]uint64
}
