// Package mds implements the file system metadata service Malacology
// re-purposes: a cluster of metadata servers exposing a hierarchical
// namespace of typed inodes, a capability (lease) system for shared
// resources, and dynamic load balancing via inode migration.
//
// Three Malacology interfaces live here (Sections 4.3.1–4.3.3):
//
//   - Shared Resource: exclusive, recallable capabilities on inodes with
//     programmable hand-off policies (best-effort, delay, quota) — the
//     mechanism behind ZLog's sequencer (Figures 5–7);
//   - File Type: inodes carry a type (e.g. sequencer) whose state is
//     embedded in the inode and whose capability policy is custom;
//   - Load Balancing: migration of inodes between ranks, in proxy mode
//     (the old server forwards) or client mode (clients are redirected),
//     driven by pluggable balancers — hard-coded CephFS-style ones or
//     Mantle policy scripts (Figures 9–12).
package mds

import (
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// InodeType tags an inode with domain-specific behavior (the File Type
// interface). A sequencer inode embeds a 64-bit counter in the inode,
// exactly as Section 5.2.1 describes.
type InodeType string

// Built-in inode types.
const (
	TypeFile      InodeType = "file"
	TypeDir       InodeType = "dir"
	TypeSequencer InodeType = "sequencer"
)

// CapPolicy governs how the capability on an inode is granted and
// reclaimed. Zero value means a non-cacheable shared resource: every
// access is a round-trip to the metadata server.
type CapPolicy struct {
	// Cacheable lets a client hold an exclusive cached copy of the
	// resource and operate locally (the behavior Section 5.2.1 found
	// "unexpected" and then exploited).
	Cacheable bool
	// Delay is the maximum time one grant may be held (the paper's
	// "maximum reservation", 0.25 s in Figure 6). Zero with Quota zero
	// means best-effort: release as soon as another client asks.
	Delay time.Duration
	// Quota is the maximum number of operations per grant (the paper's
	// log-position quota). Zero means unlimited.
	Quota int
}

// MigrationMode selects how clients reach a migrated inode (Section
// 6.2.1, Figure 11).
type MigrationMode int

// Migration modes.
const (
	// ModeProxy keeps clients pointed at the old server, which forwards
	// each request to the new authority.
	ModeProxy MigrationMode = iota
	// ModeClient redirects clients to contact the new authority
	// directly.
	ModeClient
)

func (m MigrationMode) String() string {
	if m == ModeClient {
		return "client"
	}
	return "proxy"
}

// Inode is one namespace entry.
type Inode struct {
	Path   string    `json:"path"`
	Type   InodeType `json:"type"`
	Value  uint64    `json:"value"` // sequencer counter (File Type state)
	Policy CapPolicy `json:"policy"`
	// Popularity is a decayed op counter used by balancers to pick what
	// to migrate.
	Popularity float64 `json:"popularity"`
	// ImportedClient marks an inode imported in client mode; each access
	// then pays a cache-coherence round-trip to the former authority
	// (the scatter-gather strain of Section 6.2.1).
	ImportedClient bool `json:"imported_client"`
	OriginRank     int  `json:"origin_rank"`
}

// Status codes for MDS replies.
type Status int

// Reply statuses.
const (
	StOK Status = iota
	StNotFound
	StRedirect
	StExists
	StDenied
	StAgain
	StInval
)

func (s Status) String() string {
	names := [...]string{"OK", "NOT_FOUND", "REDIRECT", "EXISTS", "DENIED", "AGAIN", "EINVAL"}
	if int(s) < len(names) {
		return names[s]
	}
	return "UNKNOWN"
}

// ---- client ↔ MDS messages ----

// OpenReq creates (if absent) and opens an inode.
type OpenReq struct {
	Path   string
	Type   InodeType
	Policy *CapPolicy // applied on create; nil keeps default
}

// OpenResp answers OpenReq.
type OpenResp struct {
	Status   Status
	Redirect int // valid when Status == StRedirect
	// Cacheable is the inode's policy as it stands after the open: a
	// client told false allocates by round trip without first asking
	// for a capability it would be denied.
	Cacheable bool
}

// NextNReq asks the authoritative server for a contiguous range of N
// sequencer values in one round-trip: with N = 1 the round-trip (shared
// resource) access path, with more the batched allocation that
// amortizes the sequencer over many log appends (§5.2.1, Figures 5–7).
type NextNReq struct {
	Path string
	N    int
	// Proxied marks an MDS-to-MDS forward (proxy mode); it is served
	// without further forwarding.
	Proxied bool
}

// NextNResp grants the counter range [First, First+N).
type NextNResp struct {
	Status   Status
	First    uint64 // first value of the granted range
	N        int
	Redirect int
}

// ReadReq reads the sequencer value without advancing it.
type ReadReq struct {
	Path    string
	Proxied bool
}

// ReadResp answers ReadReq.
type ReadResp struct {
	Status   Status
	Value    uint64
	Redirect int
}

// AcquireReq asks for the exclusive cached capability on an inode. The
// call blocks at the MDS until the cap is available (waiters are served
// FIFO, producing the round-robin batching of Section 5.2.1).
type AcquireReq struct {
	Path   string
	Client wire.Addr
}

// AcquireResp grants the capability.
type AcquireResp struct {
	Status   Status
	Value    uint64        // counter value at grant; first local op yields Value+1
	Quota    int           // ops allowed this grant (0 = unlimited)
	Lease    time.Duration // hold deadline (0 = until recalled)
	Redirect int
}

// ReleaseReq returns the capability with the final counter value.
type ReleaseReq struct {
	Path   string
	Client wire.Addr
	Value  uint64
}

// ReleaseResp acknowledges.
type ReleaseResp struct{ Status Status }

// RecallMsg is pushed MDS→client when another client wants the cap.
type RecallMsg struct{ Path string }

// SetValueReq raises a sequencer inode's counter to at least Value
// (monotonic; used by ZLog recovery to install the recomputed tail).
type SetValueReq struct {
	Path  string
	Value uint64
}

// SetValueResp acknowledges.
type SetValueResp struct {
	Status   Status
	Redirect int
}

// SetPolicyReq changes an inode's capability policy at runtime (the
// programmability knob of Figures 5–7).
type SetPolicyReq struct {
	Path   string
	Policy CapPolicy
}

// SetPolicyResp acknowledges, with the new policy's Cacheable as in
// OpenResp.
type SetPolicyResp struct {
	Status    Status
	Cacheable bool
}

// ---- MDS ↔ MDS messages ----

// ExportMsg transfers authority for an inode to another rank.
type ExportMsg struct {
	Inode Inode
	Mode  MigrationMode
	From  int
}

// ExportAck acknowledges an import.
type ExportAck struct{ OK bool }

// CoherenceMsg is the per-access scatter-gather a client-mode import
// sends back to the former authority.
type CoherenceMsg struct {
	Path string
	// Terminal marks the consult as the final hop: the authority
	// accounts the coherence tax and acks without consulting anyone
	// else, so the scatter-gather protocol is single-hop by
	// construction and can never form a wait-for cycle between ranks.
	Terminal bool
}

// ---- helpers ----

// MDSAddr is the wire address of rank r.
func MDSAddr(rank int) wire.Addr {
	return wire.Addr(types.EntityName(types.EntityMDS, rank))
}

// AuthKey is the service-metadata key that records which rank is
// authoritative for a path after a client-mode migration.
func AuthKey(path string) string { return "mds.auth." + path }
