package mds

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/types"
)

// The Load Balancing interface (Section 4.3.3): each balance tick the
// rank measures its load, publishes it through the Service Metadata
// interface, asks the pluggable Balancer what to shed where, and
// migrates inodes accordingly. The mechanisms (measure, migrate,
// partition) live here; the policies are pluggable — hard-coded
// CephFS-style ones or Mantle scripts.

// BalancerInput is what a policy sees each tick.
type BalancerInput struct {
	WhoAmI int
	// Loads maps rank -> load (requests/second over the last tick).
	Loads map[int]float64
	// Inodes lists this rank's inodes, hottest first.
	Inodes []InodeStat
	// MDSMap is the current metadata cluster map.
	MDSMap *types.MDSMap
}

// InodeStat summarizes one inode for balancing decisions.
type InodeStat struct {
	Path       string
	Type       InodeType
	Popularity float64
}

// Decision is a policy's output: how much load to send to which ranks,
// and in which migration mode.
type Decision struct {
	// Targets maps rank -> amount of load (same unit as Loads) to shed
	// to that rank.
	Targets map[int]float64
	Mode    MigrationMode
}

// Balancer decides migrations. Implementations must be safe for use
// from the rank's balance loop.
type Balancer interface {
	Decide(ctx context.Context, in BalancerInput) (Decision, error)
}

// BalancerFunc adapts a function to the Balancer interface.
type BalancerFunc func(ctx context.Context, in BalancerInput) (Decision, error)

// Decide implements Balancer.
func (f BalancerFunc) Decide(ctx context.Context, in BalancerInput) (Decision, error) {
	return f(ctx, in)
}

func (s *Server) balanceLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.BalanceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
		}
		s.balanceTick()
	}
}

func (s *Server) balanceTick() {
	interval := s.cfg.BalanceInterval.Seconds()

	s.mu.Lock()
	ops := s.ops
	s.ops = 0
	myLoad := float64(ops) / interval
	// Decay popularity so the balancer sees recent heat.
	stats := make([]InodeStat, 0, len(s.inodes))
	for _, ino := range s.inodes {
		stats = append(stats, InodeStat{Path: ino.Path, Type: ino.Type, Popularity: ino.Popularity})
		ino.Popularity *= 0.5
	}
	m := s.mdsMap
	s.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Popularity > stats[j].Popularity })

	// Publish this rank's load through the Service Metadata interface.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.BalanceInterval)
	defer cancel()
	if err := s.monc.SetService(ctx, types.MapMDS, loadKey(s.cfg.Rank), strconv.FormatFloat(myLoad, 'f', 1, 64)); err != nil {
		return
	}
	if s.cfg.Balancer == nil {
		return
	}

	// Assemble the cluster load view from published values.
	fresh, err := s.monc.GetMDSMap(ctx)
	if err != nil {
		fresh = m
	}
	loads := make(map[int]float64)
	for _, r := range fresh.UpRanks() {
		if v, ok := fresh.Service[loadKey(r)]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				s.monc.Log(ctx, "warn", fmt.Sprintf("mds.%d balancer: bad published load %q for rank %d, treating as 0", s.cfg.Rank, v, r)) //nolint:errcheck
				f = 0
			}
			loads[r] = f
		} else {
			loads[r] = 0
		}
	}
	loads[s.cfg.Rank] = myLoad

	dec, err := s.cfg.Balancer.Decide(ctx, BalancerInput{
		WhoAmI: s.cfg.Rank,
		Loads:  loads,
		Inodes: stats,
		MDSMap: fresh,
	})
	if err != nil {
		s.monc.Log(ctx, "error", fmt.Sprintf("mds.%d balancer: %v", s.cfg.Rank, err)) //nolint:errcheck
		return
	}

	s.executeDecision(ctx, dec, myLoad, stats)
}

// executeDecision picks the hottest inodes summing to each target's
// share of load and exports them ("migration units", Section 6.2.2).
func (s *Server) executeDecision(ctx context.Context, dec Decision, myLoad float64, stats []InodeStat) {
	if len(dec.Targets) == 0 || myLoad <= 0 {
		return
	}
	// Deterministic target order.
	ranks := make([]int, 0, len(dec.Targets))
	for r := range dec.Targets {
		if r != s.cfg.Rank && dec.Targets[r] > 0 {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	next := 0
	for _, target := range ranks {
		want := dec.Targets[target]
		shed := 0.0
		for next < len(stats) && shed < want*totalPop(stats)/myLoad {
			st := stats[next]
			next++
			if st.Popularity <= 0 {
				continue
			}
			if err := s.exportInode(ctx, st.Path, target, dec.Mode); err == nil {
				shed += st.Popularity
			}
		}
	}
}

func totalPop(stats []InodeStat) float64 {
	t := 0.0
	for _, s := range stats {
		t += s.Popularity
	}
	if t <= 0 {
		return 1
	}
	return t
}

// Export administratively migrates one inode to the target rank — the
// manual counterpart of a balancer decision.
func (s *Server) Export(ctx context.Context, path string, target int, mode MigrationMode) error {
	return s.exportInode(ctx, path, target, mode)
}

// NumInodes reports how many inodes this rank is authoritative for.
func (s *Server) NumInodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inodes)
}

// exportInode transfers authority for path to target.
func (s *Server) exportInode(ctx context.Context, path string, target int, mode MigrationMode) error {
	s.mu.Lock()
	ino, ok := s.inodes[path]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("mds.%d: export %s: not here", s.cfg.Rank, path)
	}
	if ino.holder != "" || len(ino.waiters) > 0 {
		s.mu.Unlock()
		return fmt.Errorf("mds.%d: export %s: capability outstanding", s.cfg.Rank, path)
	}
	snap := ino.Inode
	s.mu.Unlock()

	resp, err := s.net.Call(ctx, s.Addr(), MDSAddr(target), ExportMsg{Inode: snap, Mode: mode, From: s.cfg.Rank})
	if err != nil {
		return err
	}
	if ack, ok := resp.(ExportAck); !ok || !ack.OK {
		return fmt.Errorf("mds.%d: export %s refused by mds.%d", s.cfg.Rank, path, target)
	}

	s.mu.Lock()
	delete(s.inodes, path)
	if mode == ModeProxy {
		s.forward[path] = target
	} else {
		s.redirect[path] = target
	}
	s.mu.Unlock()

	s.journal(journalEntry{Op: "export", Path: path, Target: target, Mode: mode.String()})
	if mode == ModeClient {
		// Client-mode migrations publish the new authority so clients
		// (and future sessions) route directly.
		if err := s.monc.SetService(ctx, types.MapMDS, AuthKey(path), strconv.Itoa(target)); err != nil {
			s.monc.Log(ctx, "warn", "auth publish failed: "+err.Error()) //nolint:errcheck
		}
	}
	s.monc.Log(ctx, "info", fmt.Sprintf("mds.%d exported %s to mds.%d (%s mode)", s.cfg.Rank, path, target, mode)) //nolint:errcheck
	return nil
}

// handleImport installs an inode migrated from another rank.
func (s *Server) handleImport(m ExportMsg) ExportAck {
	s.mu.Lock()
	ino := &inode{Inode: m.Inode}
	ino.Popularity = m.Inode.Popularity
	if m.Mode == ModeClient {
		ino.ImportedClient = true
		ino.OriginRank = m.From
	} else {
		ino.ImportedClient = false
	}
	// Authority is here now: clear any stale routing for the path.
	delete(s.forward, m.Inode.Path)
	delete(s.redirect, m.Inode.Path)
	s.inodes[m.Inode.Path] = ino
	s.mu.Unlock()

	s.journal(journalEntry{
		Op: "import", Path: m.Inode.Path, Type: m.Inode.Type,
		Value: m.Inode.Value, Policy: m.Inode.Policy, Mode: m.Mode.String(),
	})
	return ExportAck{OK: true}
}

// ---- CephFS-style hard-coded balancers (the baseline of Figs. 9/10a) ----

// CephFSMode selects the metric a hard-coded balancer uses.
type CephFSMode string

// The three CephFS balancing modes (Section 6.2.1). All share one
// decision structure and differ only in the load metric, which is why
// they perform identically on the sequencer workload.
const (
	CephFSCPU      CephFSMode = "cpu"
	CephFSWorkload CephFSMode = "workload"
	CephFSHybrid   CephFSMode = "hybrid"
)

// NewCephFSBalancer builds the hard-coded balancer: when this rank's
// metric exceeds the cluster average, it sheds the excess to the least
// loaded rank, migrating in client mode (CephFS's behavior: clients
// follow the subtree).
func NewCephFSBalancer(mode CephFSMode) Balancer {
	rng := rand.New(rand.NewSource(42))
	return BalancerFunc(func(_ context.Context, in BalancerInput) (Decision, error) {
		metric := func(load float64) float64 {
			switch mode {
			case CephFSCPU:
				// CPU utilization is noisy; the paper calls out the
				// resulting variance explicitly.
				return load * (0.7 + 0.6*rng.Float64())
			case CephFSHybrid:
				return load*0.5 + load*(0.85+0.3*rng.Float64())*0.5
			default:
				return load
			}
		}
		my := metric(in.Loads[in.WhoAmI])
		total := 0.0
		min := in.WhoAmI
		minLoad := my
		for r, l := range in.Loads {
			ml := metric(l)
			total += ml
			if ml < minLoad || (ml == minLoad && r < min) {
				min, minLoad = r, ml
			}
		}
		avg := total / float64(len(in.Loads))
		if my <= avg*1.1 || min == in.WhoAmI {
			return Decision{}, nil
		}
		return Decision{
			Targets: map[int]float64{min: my - avg},
			Mode:    ModeClient,
		}, nil
	})
}
