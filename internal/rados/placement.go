package rados

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync/atomic"

	"repro/internal/types"
)

// Placement is a simplified CRUSH: objects hash onto placement groups,
// and placement groups map onto OSDs by highest-random-weight
// (rendezvous) hashing over the up set. HRW gives CRUSH's key property
// at our scale: when an OSD joins or leaves, only the PGs that actually
// involve it move.

// PGID identifies a placement group within a pool.
type PGID struct {
	Pool string
	PG   int
}

func (p PGID) String() string { return fmt.Sprintf("%s.%d", p.Pool, p.PG) }

func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))    //nolint:errcheck // fnv never fails
		h.Write([]byte{0x1f}) //nolint:errcheck
	}
	return h.Sum64()
}

// PGForObject maps an object name to its placement group.
func PGForObject(object string, pgNum int) int {
	if pgNum <= 0 {
		pgNum = 1
	}
	return int(hash64(object) % uint64(pgNum))
}

// rankOSDs returns the acting set for a PG: the replicas
// highest-scoring members of up (ascending ids) ranked by rendezvous
// hash, primary first, ties broken toward the lower id; nil when no OSD
// is up. It computes from scratch; the op path reads a mapView instead.
func rankOSDs(up []int, pool string, pg, replicas int) []int {
	if len(up) == 0 {
		return nil
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(up) {
		replicas = len(up)
	}
	key := pool + "/" + strconv.Itoa(pg)
	ids := append([]int(nil), up...)
	scores := make([]uint64, len(ids))
	for i, id := range ids {
		scores[i] = hash64(key, strconv.Itoa(id))
	}
	// Only the top replicas matter, so select them instead of sorting.
	for i := 0; i < replicas; i++ {
		best := i
		for j := i + 1; j < len(ids); j++ {
			if scores[j] > scores[best] || (scores[j] == scores[best] && ids[j] < ids[best]) {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
		scores[i], scores[best] = scores[best], scores[i]
	}
	return append([]int(nil), ids[:replicas]...)
}

// Locate resolves an object to its PG and acting set under map m, from
// scratch.
func Locate(m *types.OSDMap, pool, object string) (PGID, []int, error) {
	return newMapView(m).locate(pool, object)
}

// mapView is one OSD-map epoch as the op path reads it: the map and the
// acting set of every (pool, pg) consulted under it. Placement is a pure
// function of the map, so an acting set is computed on first use and
// then shared read-only by every later op of the epoch; the only
// invalidation is a newer map replacing the whole view (one atomic
// pointer swap in OSD.updateMap and Client.RefreshMap). Nothing in a
// view changes after construction except the fill-once acting slots.
type mapView struct {
	m     *types.OSDMap
	up    []int
	pools map[string]*poolView
}

// poolView is one pool's placement table under a mapView.
type poolView struct {
	name   string
	info   types.PoolInfo
	up     []int
	acting []atomic.Pointer[[]int] // indexed by pg; nil until first consulted
}

func newMapView(m *types.OSDMap) *mapView {
	v := &mapView{m: m, up: m.UpOSDs(), pools: make(map[string]*poolView, len(m.Pools))}
	for name, pi := range m.Pools {
		n := pi.PGNum
		if n <= 0 {
			n = 1 // PGForObject folds a non-positive PGNum to one PG
		}
		v.pools[name] = &poolView{name: name, info: pi, up: v.up, acting: make([]atomic.Pointer[[]int], n)}
	}
	return v
}

// actingFor returns the acting set of pg, primary first; nil when no OSD
// is up. The slice is shared: callers must not modify it.
func (p *poolView) actingFor(pg int) []int {
	if pg < 0 || pg >= len(p.acting) {
		// Not a PG of this epoch's pool (PGNum only grows, so only a
		// caller's stale id lands here); answer without remembering.
		return rankOSDs(p.up, p.name, pg, p.info.Replicas)
	}
	if set := p.acting[pg].Load(); set != nil {
		return *set
	}
	// Racing first users compute the same value; either store stands.
	set := rankOSDs(p.up, p.name, pg, p.info.Replicas)
	p.acting[pg].Store(&set)
	return set
}

// actingFor is poolView.actingFor for callers holding only a PG id; nil
// when the pool does not exist.
func (v *mapView) actingFor(id PGID) []int {
	p := v.pools[id.Pool]
	if p == nil {
		return nil
	}
	return p.actingFor(id.PG)
}

// actingOf is pool/object's acting set under this view (shared,
// read-only); nil when the pool does not exist.
func (v *mapView) actingOf(pool, object string) []int {
	p := v.pools[pool]
	if p == nil {
		return nil
	}
	return p.actingFor(PGForObject(object, p.info.PGNum))
}

// locate resolves an object to its PG and (shared, read-only) acting
// set under this view.
func (v *mapView) locate(pool, object string) (PGID, []int, error) {
	p := v.pools[pool]
	if p == nil {
		return PGID{}, nil, fmt.Errorf("rados: pool %q does not exist", pool)
	}
	pg := PGForObject(object, p.info.PGNum)
	acting := p.actingFor(pg)
	if len(acting) == 0 {
		return PGID{}, nil, fmt.Errorf("rados: no OSDs up for %s/%s", pool, object)
	}
	return PGID{Pool: pool, PG: pg}, acting, nil
}
