package rados

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/types"
)

// refActing is the acting-set computation as it stood before placement
// was memoized, kept verbatim as the reference the table is checked
// against: it also pins the hash inputs, so a change that would move
// every object in a deployed cluster fails here.
func refActing(m *types.OSDMap, pool string, pg, replicas int) []int {
	up := m.UpOSDs()
	if len(up) == 0 {
		return nil
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(up) {
		replicas = len(up)
	}
	type scored struct {
		id    int
		score uint64
	}
	scores := make([]scored, 0, len(up))
	key := fmt.Sprintf("%s/%d", pool, pg)
	for _, id := range up {
		scores = append(scores, scored{id: id, score: hash64(key, fmt.Sprint(id))})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].score != scores[j].score {
			return scores[i].score > scores[j].score
		}
		return scores[i].id < scores[j].id
	})
	out := make([]int, replicas)
	for i := 0; i < replicas; i++ {
		out[i] = scores[i].id
	}
	return out
}

// TestPlacementViewMatchesFromScratch walks randomized map histories
// (OSDs going up and down, OSDs added, pools grown, replicas 1-3) and
// checks, at every epoch and for every (pool, pg), that the view's
// acting set — first use and memoized reuse — equals the from-scratch
// computation.
func TestPlacementViewMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := types.NewOSDMap()
		for id, n := 0, 1+rng.Intn(8); id < n; id++ {
			m.OSDs[id] = types.OSDInfo{ID: id, State: types.DaemonState(rng.Intn(2))}
		}
		for p, n := 0, 1+rng.Intn(3); p < n; p++ {
			name := fmt.Sprintf("pool%d", p)
			m.Pools[name] = types.PoolInfo{Name: name, PGNum: 1 + rng.Intn(24), Replicas: 1 + rng.Intn(3)}
		}
		for step := 0; step < 12; step++ {
			m.Epoch++
			switch rng.Intn(3) {
			case 0: // flip one OSD
				id := rng.Intn(len(m.OSDs))
				info := m.OSDs[id]
				info.State = types.StateUp - info.State
				m.OSDs[id] = info
			case 1: // add one
				id := len(m.OSDs)
				m.OSDs[id] = types.OSDInfo{ID: id, State: types.StateUp}
			case 2: // grow one pool
				name := fmt.Sprintf("pool%d", rng.Intn(len(m.Pools)))
				pi := m.Pools[name]
				pi.PGNum += 1 + rng.Intn(8)
				m.Pools[name] = pi
			}
			snap := m.Clone()
			v := newMapView(snap)
			for name, pi := range snap.Pools {
				for pg := 0; pg < pi.PGNum; pg++ {
					want := refActing(snap, name, pg, pi.Replicas)
					first := v.actingFor(PGID{Pool: name, PG: pg})
					again := v.pools[name].actingFor(pg)
					if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(again, want) {
						t.Fatalf("seed %d epoch %d %s/%d: view %v then %v, from scratch %v", seed, snap.Epoch, name, pg, first, again, want)
					}
					if len(want) > 0 && &first[0] != &again[0] {
						t.Fatalf("seed %d %s/%d: second lookup recomputed instead of reading the table", seed, name, pg)
					}
					if got := OSDsForPG(snap, name, pg, pi.Replicas); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s/%d: OSDsForPG %v, reference %v", seed, name, pg, got, want)
					}
				}
				obj := fmt.Sprintf("obj-%d", rng.Intn(1000))
				id, acting, err := v.locate(name, obj)
				want := refActing(snap, name, PGForObject(obj, pi.PGNum), pi.Replicas)
				if len(want) == 0 {
					if err == nil {
						t.Fatalf("seed %d: locate with no OSD up returned %v", seed, acting)
					}
					continue
				}
				if err != nil || id.PG != PGForObject(obj, pi.PGNum) || !reflect.DeepEqual(acting, want) {
					t.Fatalf("seed %d: locate(%s,%s) = %v %v %v, want %v", seed, name, obj, id, acting, err, want)
				}
			}
			if got := v.actingFor(PGID{Pool: "nope", PG: 0}); got != nil {
				t.Fatalf("unknown pool has acting set %v", got)
			}
		}
	}
}

// TestPlacementNoStaleReadAcrossEpoch: the epoch that marks an object's
// primary down must change what the very next lookup returns, on the
// client and on the surviving daemons — the table is replaced with the
// map, never consulted past it.
func TestPlacementNoStaleReadAcrossEpoch(t *testing.T) {
	tc := bootClusterOpts(t, clusterOpts{osds: 3, replicas: 3, osd: OSDConfig{GossipInterval: time.Hour}})
	ctx := ctxT(t, 15*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, before, err := tc.client.view.Load().locate("data", "obj")
	if err != nil {
		t.Fatal(err)
	}
	old := before[0]

	tc.osds[old].Stop()
	if err := tc.client.Mon().MarkOSDDown(ctx, old); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	_, after, err := tc.client.view.Load().locate("data", "obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range after {
		if id == old {
			t.Fatalf("acting set %v after epoch %d still names downed osd.%d", after, tc.client.MapEpoch(), old)
		}
	}
	if !reflect.DeepEqual(after, refActing(tc.client.CachedMap(), "data", PGForObject("obj", 8), 3)) {
		t.Fatalf("post-epoch acting set %v is not the from-scratch one", after)
	}

	// The new primary serves the write as soon as it has the epoch.
	if err := tc.client.WriteFull(ctx, "data", "obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	survivor := tc.osds[after[0]]
	if survivor.Epoch() < tc.client.MapEpoch() {
		t.Fatalf("new primary acked at epoch %d, behind the client's %d", survivor.Epoch(), tc.client.MapEpoch())
	}
	if _, got, _ := survivor.view.Load().locate("data", "obj"); !reflect.DeepEqual(got, after) {
		t.Fatalf("new primary places obj on %v, client on %v", got, after)
	}
}
