// Package types defines the cluster-state vocabulary shared by every
// Malacology subsystem: epochs, entity names, the per-subsystem cluster
// maps (OSDMap, MDSMap) that the monitor versions through Paxos, and the
// update operations that mutate them. These correspond to Ceph's "maps"
// in Section 4.1 of the paper: strongly-consistent, time-varying service
// metadata that daemons and clients synchronize on.
package types

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// Epoch is a monotonically increasing version for a cluster map. Clients
// tag requests with the epoch they believe current; daemons reject stale
// epochs (the basis of ZLog's seal protocol).
type Epoch uint64

// Entity kinds on the fabric.
const (
	EntityMon    = "mon"
	EntityOSD    = "osd"
	EntityMDS    = "mds"
	EntityClient = "client"
)

// EntityName renders "kind.id", the address form used on the wire.
func EntityName(kind string, id int) string {
	return kind + "." + strconv.Itoa(id)
}

// DaemonState is the lifecycle state of a daemon in a map.
type DaemonState int

// Daemon states.
const (
	StateDown DaemonState = iota
	StateUp
)

func (s DaemonState) String() string {
	if s == StateUp {
		return "up"
	}
	return "down"
}

// OSDInfo describes one object storage daemon.
type OSDInfo struct {
	ID    int         `json:"id"`
	Addr  string      `json:"addr"`
	State DaemonState `json:"state"`
}

// ClassDef is a dynamically installed object interface: a named group of
// script methods distributed through the cluster map (Section 4.2). The
// paper embeds Lua scripts in the map; we embed scripts in our embedded
// language. Version lets clients and daemons agree on the implementation.
type ClassDef struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Script  string `json:"script"`
	// Category classifies the class the way Table 1 of the paper does
	// (logging, metadata, locking, ...).
	Category string `json:"category,omitempty"`
}

// PoolInfo describes a RADOS pool.
type PoolInfo struct {
	Name     string `json:"name"`
	PGNum    int    `json:"pg_num"`
	Replicas int    `json:"replicas"`
}

// OSDMap is the object-store cluster map. A map is immutable once
// installed (copy-on-write): the monitor edits only its private working
// copy and publishes Clone()s, and every daemon and client that installs
// a published map shares that one pointer — across goroutines, and with
// the peers it forwards the map to — and never writes through it.
type OSDMap struct {
	Epoch   Epoch               `json:"epoch"`
	OSDs    map[int]OSDInfo     `json:"osds"`
	Pools   map[string]PoolInfo `json:"pools"`
	Classes map[string]ClassDef `json:"classes"`
	// Service is the generic service-metadata key-value bucket the
	// Malacology Service Metadata interface exposes (Section 4.1).
	Service map[string]string `json:"service"`
}

// NewOSDMap returns an empty epoch-0 map.
func NewOSDMap() *OSDMap {
	return &OSDMap{
		OSDs:    make(map[int]OSDInfo),
		Pools:   make(map[string]PoolInfo),
		Classes: make(map[string]ClassDef),
		Service: make(map[string]string),
	}
}

// Clone deep-copies the map so readers never share mutable state with
// the monitor.
func (m *OSDMap) Clone() *OSDMap {
	c := NewOSDMap()
	c.Epoch = m.Epoch
	for k, v := range m.OSDs {
		c.OSDs[k] = v
	}
	for k, v := range m.Pools {
		c.Pools[k] = v
	}
	for k, v := range m.Classes {
		c.Classes[k] = v
	}
	for k, v := range m.Service {
		c.Service[k] = v
	}
	return c
}

// UpOSDs returns the IDs of all up OSDs in ascending order.
func (m *OSDMap) UpOSDs() []int {
	var ids []int
	for id, info := range m.OSDs {
		if info.State == StateUp {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// MDSInfo describes one metadata server.
type MDSInfo struct {
	Rank  int         `json:"rank"`
	Addr  string      `json:"addr"`
	State DaemonState `json:"state"`
}

// MDSMap is the metadata-cluster map. BalancerVersion names the RADOS
// object holding the current Mantle policy (Section 5.1.1): the monitor
// versions the *pointer*; the object store holds the durable policy body.
type MDSMap struct {
	Epoch           Epoch             `json:"epoch"`
	Ranks           map[int]MDSInfo   `json:"ranks"`
	BalancerVersion string            `json:"balancer_version"`
	Service         map[string]string `json:"service"`
}

// NewMDSMap returns an empty epoch-0 map.
func NewMDSMap() *MDSMap {
	return &MDSMap{
		Ranks:   make(map[int]MDSInfo),
		Service: make(map[string]string),
	}
}

// Clone deep-copies the map.
func (m *MDSMap) Clone() *MDSMap {
	c := NewMDSMap()
	c.Epoch = m.Epoch
	c.BalancerVersion = m.BalancerVersion
	for k, v := range m.Ranks {
		c.Ranks[k] = v
	}
	for k, v := range m.Service {
		c.Service[k] = v
	}
	return c
}

// UpRanks returns the ranks of all up MDS daemons in ascending order.
func (m *MDSMap) UpRanks() []int {
	var ranks []int
	for r, info := range m.Ranks {
		if info.State == StateUp {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// Map kinds accepted by the monitor.
const (
	MapOSD = "osd"
	MapMDS = "mds"
)

// OpCode enumerates cluster-map mutations.
type OpCode string

// Update operations. These are the monitor's write vocabulary: daemons
// and Malacology interfaces submit them, Paxos orders them, and every
// monitor applies them deterministically.
const (
	OpOSDBoot      OpCode = "osd.boot"     // Key=id, Value=addr
	OpOSDDown      OpCode = "osd.down"     // Key=id
	OpMDSBoot      OpCode = "mds.boot"     // Key=rank, Value=addr
	OpMDSDown      OpCode = "mds.down"     // Key=rank
	OpPoolCreate   OpCode = "pool.create"  // Key=name, Value=pgnum, Aux=replicas
	OpPoolResize   OpCode = "pool.resize"  // Key=name, Value=new pgnum (grow only)
	OpClassInstall OpCode = "cls.install"  // Key=name, Value=script, Aux=category
	OpClassRemove  OpCode = "cls.remove"   // Key=name
	OpServiceSet   OpCode = "svc.set"      // Map=kind, Key, Value
	OpServiceDel   OpCode = "svc.del"      // Map=kind, Key
	OpBalancerSet  OpCode = "balancer.set" // Value=policy object name
)

// Op is one mutation of one cluster map.
type Op struct {
	Code  OpCode `json:"code"`
	Map   string `json:"map,omitempty"` // for svc.* ops: which map's bucket
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
	Aux   string `json:"aux,omitempty"`
}

// Update is a batch of ops committed atomically through Paxos.
type Update struct {
	Source string `json:"source"` // requesting entity, for the cluster log
	Ops    []Op   `json:"ops"`
}

// EncodeUpdates serializes a Paxos value.
func EncodeUpdates(us []Update) ([]byte, error) {
	return json.Marshal(us)
}

// DecodeUpdates parses a Paxos value.
func DecodeUpdates(b []byte) ([]Update, error) {
	var us []Update
	if err := json.Unmarshal(b, &us); err != nil {
		return nil, fmt.Errorf("types: decode updates: %w", err)
	}
	return us, nil
}
