package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
)

// leaderOSDEpoch is the OSD-map epoch the quorum's leader has applied:
// the newest any monitor has, since a follower applies a value only
// after the leader has chosen it.
func leaderOSDEpoch(c *Cluster) types.Epoch {
	var newest types.Epoch
	for _, m := range c.Mons {
		if osd, _ := m.MapEpochs(); osd > newest {
			newest = osd
		}
	}
	return newest
}

// listening reports whether addr has an endpoint on net: a call to one
// that has none fails as unreachable before any handler runs.
func listening(net *wire.Network, addr wire.Addr) bool {
	_, err := net.Call(context.Background(), "probe", addr, nil)
	return !errors.Is(err, wire.ErrUnreachable)
}

// TestBootIsOneProposal pins bring-up to one Paxos value: with a
// proposal interval long enough that no tick can split the boots, the
// pools, all eight OSDs' boots and both MDS ranks' boots commit as
// OSD-map epoch 1 and MDS-map epoch 1. Booting them one after another
// commits one epoch per pool and per daemon. The boot replies then
// agree, so bring-up reads no map: the bootstrap client's one call is
// the pools' submit.
func TestBootIsOneProposal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Boot(ctx, Options{OSDs: 8, MDSs: 2, Pools: []string{"data"}, ProposalInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got := leaderOSDEpoch(c); got != 1 {
		t.Fatalf("boot committed OSD-map epoch %d, want 1 (one proposal)", got)
	}
	if _, mdsEpoch := c.Mons[0].MapEpochs(); mdsEpoch != 1 {
		t.Fatalf("boot committed MDS-map epoch %d, want 1", mdsEpoch)
	}
	if got := c.Net.Stats().Outbound[bootstrapAddr].Calls; got != 1 {
		t.Fatalf("bootstrap client made %d calls, want 1 (the pools' submit; no map read)", got)
	}
	monc := c.NewMonClient("client.t")
	m, err := monc.GetOSDMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.UpOSDs()) != 8 || len(m.Pools) != 2 {
		t.Fatalf("epoch %d: up %v, pools %v", m.Epoch, m.UpOSDs(), m.Pools)
	}
	mm, err := monc.GetMDSMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.UpRanks()) != 2 {
		t.Fatalf("MDS epoch %d: up %v", mm.Epoch, mm.UpRanks())
	}
}

// TestBootLeavesEveryOSDOnTheLeadersEpoch boots each benchmark
// workload's cluster shape repeatedly and requires every OSD to hold
// the leader's OSD-map epoch when Boot returns: a daemon that read the
// map before a later boot committed must have been caught up.
func TestBootLeavesEveryOSDOnTheLeadersEpoch(t *testing.T) {
	shapes := map[string]Options{
		"rados-mem": {OSDs: 3, Pools: []string{"data"}, Replicas: 3},
		"dedup": {OSDs: 2, Pools: []string{"data"}, Replicas: 1,
			OSD: rados.OSDConfig{GCInterval: time.Hour, GCGrace: time.Hour}},
		"zlog": {MDSs: 1, OSDs: 3, Pools: []string{"zlog"}, Replicas: 3,
			NetLatency: time.Millisecond},
		"control": {Mons: 3, OSDs: 8, MDSs: 1, GossipFanout: 3,
			NetLatency: time.Millisecond},
	}
	for name, opts := range shapes {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				opts.Seed = int64(i + 1)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				c, err := Boot(ctx, opts)
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				want := leaderOSDEpoch(c)
				var behind []string
				for _, o := range c.OSDs {
					if got := o.Epoch(); got != want {
						behind = append(behind, fmt.Sprintf("%s@%d", o.Addr(), got))
					}
				}
				c.Stop()
				if len(behind) > 0 {
					t.Fatalf("boot %d: leader at epoch %d, behind: %v", i, want, behind)
				}
			}
		})
	}
}

// TestBootFailureStopsEveryDaemon fails one OSD's backend and requires
// Boot to name that daemon and to leave nothing listening: the
// monitors, the OSDs that did start and the MDS rank, which starts
// beside the OSDs, are all stopped.
func TestBootFailureStopsEveryDaemon(t *testing.T) {
	errBackend := errors.New("disk on fire")
	c := newCluster(Options{OSDs: 4, MDSs: 1, OSDBackend: func(id int) (rados.Backend, error) {
		if id == 2 {
			return nil, errBackend
		}
		return rados.MemBackend{}, nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := c.start(ctx)
	if !errors.Is(err, errBackend) || !strings.Contains(err.Error(), "osd.2") {
		t.Fatalf("start = %v, want osd.2's backend error", err)
	}
	if len(c.MDSs) != 1 || len(c.OSDs) != 3 {
		t.Fatalf("started %d ranks and %d OSDs beside the failing OSD, want 1 and 3", len(c.MDSs), len(c.OSDs))
	}
	addrs := []wire.Addr{mon.Addr(0), mds.MDSAddr(0)}
	for id := 0; id < 4; id++ {
		addrs = append(addrs, rados.OSDAddr(id))
	}
	for _, a := range addrs {
		if listening(c.Net, a) {
			t.Errorf("%s still listening after a failed boot", a)
		}
	}
}

// TestCatchUpHandsLaggardsTheLeadersMap drives bring-up's last step on
// an OSD that missed an epoch: cut off from the monitors and its peers,
// it cannot learn the map by push or gossip, and the catch-up step must
// deliver it.
func TestCatchUpHandsLaggardsTheLeadersMap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Boot(ctx, Options{OSDs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	lag := c.OSDs[1]
	c.Net.Partition(lag.Addr(), mon.Addr(0))
	for _, o := range c.OSDs {
		if o != lag {
			c.Net.Partition(lag.Addr(), o.Addr())
		}
	}
	monc := c.NewMonClient("client.t")
	if err := monc.SetService(ctx, types.MapOSD, "k", "v"); err != nil {
		t.Fatal(err)
	}
	want := leaderOSDEpoch(c)
	if lag.Epoch() >= want {
		t.Fatalf("osd.1 at epoch %d learned epoch %d while cut off", lag.Epoch(), want)
	}
	if err := c.catchUpOSDs(ctx, monc); err != nil {
		t.Fatal(err)
	}
	for _, o := range c.OSDs {
		if o.Epoch() != want {
			t.Fatalf("%s at epoch %d after catch-up, leader at %d", o.Addr(), o.Epoch(), want)
		}
	}
}
