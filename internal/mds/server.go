package mds

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config configures one metadata server rank.
type Config struct {
	Rank int
	Mons []int

	// HandleTime models the CPU cost of receiving/parsing/responding to
	// one client request. ServiceTime models the cost of the actual
	// metadata operation (e.g. finding the tail of the log). Proxy mode
	// splits these across two servers, which is why it outperforms one
	// server doing both (Section 6.2.1, chain-replication analogy).
	HandleTime  time.Duration
	ServiceTime time.Duration
	// CoherenceTime is the scatter-gather cost a client-mode import
	// imposes on the former authority per access (Section 6.2.1's
	// "strain on the server housing Sequencer 2").
	CoherenceTime time.Duration

	// BalanceInterval is the balancer tick (Ceph default 10 s; the
	// harness compresses it). Zero disables the balancing loop.
	BalanceInterval time.Duration
	// Balancer decides migrations each tick; nil disables balancing.
	Balancer Balancer
	// RecallTimeout force-reclaims a capability from an unresponsive
	// client (Section 5.2.2: "a timeout is used to determine when a
	// client should be considered unavailable").
	RecallTimeout time.Duration
	// JournalEvery checkpoints a sequencer's value to the journal every
	// N round-trip increments (cap releases always checkpoint; creates
	// always journal).
	JournalEvery int
}

func (c *Config) defaults() {
	if c.RecallTimeout <= 0 {
		c.RecallTimeout = 2 * time.Second
	}
	if c.JournalEvery <= 0 {
		c.JournalEvery = 256
	}
}

// waiter is one queued capability request.
type waiter struct {
	client wire.Addr
	ch     chan AcquireResp
}

// inode is the runtime inode: persistent state plus capability
// bookkeeping.
type inode struct {
	Inode
	holder     wire.Addr
	waiters    []*waiter
	recallSent bool
	grantSeq   uint64 // increments per grant; lets recall timers detect stale grants
	sinceCkpt  int    // round-trip increments since last journal checkpoint
	// fenceUntil pauses capability grants while a SetValue (ZLog
	// recovery installing the recomputed tail) chases the cap. Without
	// the fence, release hands the cap straight to the next queued
	// waiter and a recovery racing steady-state appenders starves
	// forever. Zero means no fence; an expired fence is ignored, so a
	// crashed recovery client cannot wedge the inode.
	fenceUntil time.Time
}

// fenced reports whether grants on ino are currently paused.
func (ino *inode) fenced(now time.Time) bool {
	return now.Before(ino.fenceUntil)
}

// Server is one metadata server rank.
type Server struct {
	cfg  Config
	net  *wire.Network
	monc *mon.Client
	rc   *rados.Client

	mu       sync.Mutex
	inodes   map[string]*inode // guarded by mu
	forward  map[string]int    // guarded by mu; proxy-mode forwarding: path -> rank
	redirect map[string]int    // guarded by mu; client-mode redirect: path -> rank
	mdsMap   *types.MDSMap     // guarded by mu
	ops      int64             // guarded by mu; requests handled since last balance tick
	// capLog linearizes capability grants and releases (every transition
	// happens under mu), so a harness can audit that the server never
	// had two concurrent holders on an inode.
	capLog []CapEvent // guarded by mu
	// ckpt is the rank's pending set of sequencer-value checkpoints (path
	// -> highest value not yet journaled); ckptFlushing is set while the
	// one flusher that writes it runs (see journal.go).
	ckpt         map[string]uint64 // guarded by mu
	ckptFlushing bool              // guarded by mu
	// stopped refuses to start a flusher once Stop has begun.
	stopped bool // guarded by mu

	// cpu is the simulated single CPU, a 1-slot semaphore: work holds
	// the slot while it sleeps, and only the holder touches cpuDebt.
	cpu     chan struct{}
	cpuDebt time.Duration

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewServer builds an MDS rank bound to the fabric.
func NewServer(net *wire.Network, cfg Config) *Server {
	cfg.defaults()
	return &Server{
		cfg:      cfg,
		net:      net,
		monc:     mon.NewClient(net, MDSAddr(cfg.Rank), cfg.Mons),
		rc:       rados.NewClient(net, wire.Addr(string(MDSAddr(cfg.Rank))+".rados"), cfg.Mons),
		inodes:   make(map[string]*inode),
		forward:  make(map[string]int),
		redirect: make(map[string]int),
		ckpt:     make(map[string]uint64),
		mdsMap:   types.NewMDSMap(),
		cpu:      make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
}

// Addr returns this rank's wire address.
func (s *Server) Addr() wire.Addr { return MDSAddr(s.cfg.Rank) }

// Rank returns this server's rank.
func (s *Server) Rank() int { return s.cfg.Rank }

// Start registers the rank, joins the cluster (mon.Client.Join: boot
// into the MDS map while subscribing to its pushes, starting on the map
// the join was answered with), and launches the balance loop.
// A rank of a fresh cluster has no down peer to take over, so it reads
// nothing from RADOS here and may start before the OSDs are up.
func (s *Server) Start(ctx context.Context) error {
	s.net.Listen(s.Addr(), s.handle)
	maps, err := s.monc.Join(ctx, types.MapMDS, mon.MDSBootOp(s.cfg.Rank, s.Addr()))
	if err != nil {
		s.net.Unlisten(s.Addr())
		return fmt.Errorf("mds.%d: %w", s.cfg.Rank, err)
	}
	s.updateMDSMap(maps.MDS)
	if s.cfg.BalanceInterval > 0 {
		s.wg.Add(1)
		go s.balanceLoop()
	}
	return nil
}

// Stop halts the rank and removes it from the fabric. It waits for the
// rank's loops and its journal flusher, so no checkpoint append leaves
// a stopped rank.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.net.Unlisten(s.Addr())
	s.wg.Wait()
	s.rc.Close()
}

// work simulates CPU time on this rank's single execution resource.
// Sub-millisecond costs are accumulated as debt and paid in batches,
// because an idle Go runtime waits for its next timer in whole
// milliseconds (the netpoller rounds a wait under 1 ms up to 1 ms), which
// would otherwise inflate every operation to that floor. Sleep
// overshoot is credited back, so the long-run capacity is exactly
// 1/cost operations per second.
func (s *Server) work(d time.Duration) {
	if d <= 0 {
		return
	}
	s.cpu <- struct{}{}
	s.cpuDebt += d
	if s.cpuDebt >= time.Millisecond {
		t0 := time.Now()
		time.Sleep(s.cpuDebt)
		s.cpuDebt -= time.Since(t0)
	}
	<-s.cpu
}

func (s *Server) countOp() {
	s.mu.Lock()
	s.ops++
	s.mu.Unlock()
}

func (s *Server) updateMDSMap(m *types.MDSMap) {
	s.mu.Lock()
	cur := s.mdsMap
	if m.Epoch > cur.Epoch {
		s.mdsMap = m
	} else {
		m = nil
	}
	s.mu.Unlock()
	if m != nil {
		s.checkTakeover(m)
	}
}

// handle is the single fabric endpoint for this rank.
func (s *Server) handle(ctx context.Context, from wire.Addr, req any) (any, error) {
	switch r := req.(type) {
	case OpenReq:
		return s.handleOpen(r), nil
	case NextNReq:
		return s.handleNextN(ctx, r), nil
	case ReadReq:
		return s.handleRead(ctx, r), nil
	case AcquireReq:
		return s.handleAcquire(ctx, r), nil
	case ReleaseReq:
		return s.handleRelease(r), nil
	case SetPolicyReq:
		return s.handleSetPolicy(r), nil
	case SetValueReq:
		return s.handleSetValue(r), nil
	case ExportMsg:
		return s.handleImport(r), nil
	case CoherenceMsg:
		if !r.Terminal {
			// Consults are single-hop by protocol; refuse anything
			// unmarked rather than risk cascading to a third rank.
			return false, nil
		}
		s.work(s.cfg.CoherenceTime)
		s.countOp()
		return true, nil
	case mon.MapNotify:
		if r.MDS != nil {
			s.updateMDSMap(r.MDS)
		}
		return nil, nil
	}
	return nil, fmt.Errorf("mds.%d: unknown request %T from %s", s.cfg.Rank, req, from)
}

func (s *Server) handleOpen(r OpenReq) OpenResp {
	s.work(s.cfg.HandleTime)
	s.countOp()
	s.mu.Lock()
	if tgt, ok := s.redirect[r.Path]; ok {
		s.mu.Unlock()
		return OpenResp{Status: StRedirect, Redirect: tgt}
	}
	ino, ok := s.inodes[r.Path]
	if !ok {
		ino = &inode{Inode: Inode{Path: r.Path, Type: r.Type}}
		if ino.Type == "" {
			ino.Type = TypeFile
		}
		if r.Policy != nil {
			ino.Policy = *r.Policy
		}
		s.inodes[r.Path] = ino
		rec := journalEntry{Op: "create", Path: r.Path, Type: ino.Type, Policy: ino.Policy}
		s.mu.Unlock()
		s.journal(rec)
		return OpenResp{Status: StOK, Cacheable: rec.Policy.Cacheable}
	}
	cacheable := ino.Policy.Cacheable
	s.mu.Unlock()
	return OpenResp{Status: StOK, Cacheable: cacheable}
}

// resolve finds the inode or the forwarding decision for a path.
func (s *Server) resolve(path string) (ino *inode, fwd int, redir int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tgt, ok := s.redirect[path]; ok {
		return nil, -1, tgt
	}
	if tgt, ok := s.forward[path]; ok {
		return nil, tgt, -1
	}
	if ino, ok := s.inodes[path]; ok {
		return ino, -1, -1
	}
	return nil, -1, -1
}

// handleNextN allocates a contiguous range of r.N sequencer values in
// one request. A range pays the handle/service cost of a single value —
// that amortization is the whole point of the batched path.
func (s *Server) handleNextN(ctx context.Context, r NextNReq) NextNResp {
	s.countOp()
	if r.N <= 0 {
		return NextNResp{Status: StInval}
	}
	ino, fwd, redir := s.resolve(r.Path)
	switch {
	case redir >= 0:
		// Client-mode redirect: cheap, no service work.
		return NextNResp{Status: StRedirect, Redirect: redir}
	case fwd >= 0 && !r.Proxied:
		// Proxy mode: this rank pays request handling, the authority
		// pays the service cost (the pipeline split of Section 6.2.1).
		s.work(s.cfg.HandleTime)
		resp, err := s.net.Call(ctx, s.Addr(), MDSAddr(fwd), NextNReq{Path: r.Path, N: r.N, Proxied: true})
		if err != nil {
			return NextNResp{Status: StAgain}
		}
		return resp.(NextNResp)
	case ino == nil:
		return NextNResp{Status: StNotFound}
	}

	if r.Proxied {
		s.work(s.cfg.ServiceTime)
	} else {
		s.work(s.cfg.HandleTime + s.cfg.ServiceTime)
	}
	s.coherence(ctx, ino)

	first, ok := s.advanceN(ino, uint64(r.N))
	if !ok {
		return NextNResp{Status: StAgain}
	}
	return NextNResp{Status: StOK, First: first, N: r.N}
}

func (s *Server) handleRead(ctx context.Context, r ReadReq) ReadResp {
	s.countOp()
	ino, fwd, redir := s.resolve(r.Path)
	switch {
	case redir >= 0:
		return ReadResp{Status: StRedirect, Redirect: redir}
	case fwd >= 0 && !r.Proxied:
		s.work(s.cfg.HandleTime)
		resp, err := s.net.Call(ctx, s.Addr(), MDSAddr(fwd), ReadReq{Path: r.Path, Proxied: true})
		if err != nil {
			return ReadResp{Status: StAgain}
		}
		return resp.(ReadResp)
	case ino == nil:
		return ReadResp{Status: StNotFound}
	}
	s.work(s.cfg.HandleTime)
	v, ok2 := s.currentValue(ino)
	if !ok2 {
		return ReadResp{Status: StAgain}
	}
	return ReadResp{Status: StOK, Value: v}
}

// currentValue returns the authoritative counter value, first reclaiming
// any outstanding cached capability (a read by another client revokes
// exclusivity, as in CephFS).
func (s *Server) currentValue(ino *inode) (uint64, bool) {
	s.mu.Lock()
	if ino.holder == "" {
		v := ino.Value
		s.mu.Unlock()
		return v, true
	}
	ch := s.enqueueWaiterLocked(ino, s.Addr())
	s.mu.Unlock()
	select {
	case resp := <-ch:
		s.mu.Lock()
		v := resp.Value
		_, g := s.releaseLocked(ino, s.Addr(), v)
		s.mu.Unlock()
		g.deliver()
		return v, true
	case <-time.After(s.cfg.RecallTimeout * 2):
		return 0, false
	}
}

// coherence pays the client-mode scatter-gather tax: an imported inode
// consults its former authority on every access.
func (s *Server) coherence(ctx context.Context, ino *inode) {
	s.mu.Lock()
	imported := ino.ImportedClient
	origin := ino.OriginRank
	s.mu.Unlock()
	if !imported || s.cfg.CoherenceTime <= 0 || origin == s.cfg.Rank {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	//lint:ignore errdrop the coherence round-trip exists to burn simulated time; a lost one only undercounts the tax
	_, _ = s.net.Call(cctx, s.Addr(), MDSAddr(origin), CoherenceMsg{Path: ino.Path, Terminal: true})
}

// advanceN advances the sequencer by n server-side and returns the
// first value of the contiguous range [first, first+n), reclaiming any
// outstanding cached capability first so ranges never overlap grants.
func (s *Server) advanceN(ino *inode, n uint64) (uint64, bool) {
	s.mu.Lock()
	if ino.holder != "" {
		// A client holds the cap; recall it and wait via the waiter
		// queue like any other contender.
		ch := s.enqueueWaiterLocked(ino, s.Addr())
		s.mu.Unlock()
		select {
		case resp := <-ch:
			s.mu.Lock()
			// We now "hold" the cap as the server; consume n values and
			// release immediately.
			first := resp.Value + 1
			ino.Value = resp.Value + n
			_, g := s.releaseLocked(ino, s.Addr(), ino.Value)
			s.mu.Unlock()
			g.deliver()
			return first, true
		case <-time.After(s.cfg.RecallTimeout * 2):
			return 0, false
		}
	}
	first := ino.Value + 1
	ino.Value += n
	ino.Popularity++
	ino.sinceCkpt += int(n)
	if ino.sinceCkpt >= s.cfg.JournalEvery {
		ino.sinceCkpt = 0
		s.checkpointLocked(ino.Path, ino.Value)
	}
	s.mu.Unlock()
	return first, true
}

func (s *Server) handleSetPolicy(r SetPolicyReq) SetPolicyResp {
	s.work(s.cfg.HandleTime)
	s.countOp()
	s.mu.Lock()
	defer s.mu.Unlock()
	ino, ok := s.inodes[r.Path]
	if !ok {
		return SetPolicyResp{Status: StNotFound}
	}
	ino.Policy = r.Policy
	return SetPolicyResp{Status: StOK, Cacheable: r.Policy.Cacheable}
}

// handleSetValue raises a sequencer counter monotonically (File Type
// interface; ZLog recovery installs the recomputed tail this way).
func (s *Server) handleSetValue(r SetValueReq) SetValueResp {
	s.work(s.cfg.HandleTime)
	s.countOp()
	ino, fwd, redir := s.resolve(r.Path)
	switch {
	case redir >= 0:
		return SetValueResp{Status: StRedirect, Redirect: redir}
	case fwd >= 0:
		return SetValueResp{Status: StRedirect, Redirect: fwd}
	case ino == nil:
		return SetValueResp{Status: StNotFound}
	}
	s.mu.Lock()
	if ino.holder != "" {
		// Chase the outstanding capability so the retry can proceed
		// (during ZLog recovery the holder has typically crashed and the
		// recall timer force-reclaims). The fence pauses re-grants until
		// the retry lands: without it, release hands the cap straight to
		// the next queued appender and the recovery starves.
		ino.fenceUntil = time.Now().Add(s.fenceWindow())
		s.sendRecallLocked(ino)
		s.mu.Unlock()
		return SetValueResp{Status: StAgain}
	}
	if r.Value > ino.Value {
		ino.Value = r.Value
	}
	v := ino.Value
	ino.fenceUntil = time.Time{}
	// The install is done; hand the cap to the next queued waiter (fenced
	// releases leave the queue untouched, so resume it here).
	var g *grantMsg
	if len(ino.waiters) > 0 {
		next := ino.waiters[0]
		ino.waiters = ino.waiters[1:]
		g = &grantMsg{ch: next.ch, resp: s.grantLocked(ino, next.client)}
	}
	s.mu.Unlock()
	g.deliver()
	s.journal(journalEntry{Op: "value", Path: r.Path, Value: v})
	return SetValueResp{Status: StOK}
}

// fenceWindow bounds how long a SetValue fence pauses grants: long
// enough to cover the client's busy-retry backoff, short enough that a
// crashed recovery releases the inode promptly.
func (s *Server) fenceWindow() time.Duration {
	return 300 * time.Millisecond
}

// ---- helpers ----

func loadKey(rank int) string { return "mds.load." + strconv.Itoa(rank) }
