package rados

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// handleOp services one object operation. The epoch discipline follows
// Ceph: a request from a client with an older map is rejected ESTALE
// (forcing a resync before I/O continues — the mechanism ZLog's seal
// protocol leans on); a request carrying a newer epoch makes this daemon
// pull the latest map before proceeding. sent is the request as it
// arrived, never written: the handler works on its own copy. A mutation
// that forwards returns its fan-out to run after the reply. A primary
// holding a witness record on the object replays it first (witness.go).
func (o *OSD) handleOp(ctx context.Context, from wire.Addr, sent *OpRequest) (OpReply, *replication) {
	req := *sent
	if req.Epoch > o.Epoch() {
		if m, err := o.monc.GetOSDMap(ctx); err == nil {
			o.updateMap(m, noPeer)
		}
	}
	v := o.view.Load()
	m := v.m

	spec, ok := req.Op.spec()
	if !ok {
		return OpReply{Result: EINVAL, Detail: "unknown op", Epoch: m.Epoch}, nil
	}
	// Class calls and overwrites apply on the primary alone; their
	// replicas are sent an OpTxn, which no client may send.
	if (req.Replica && spec.asTxn()) || (spec.class == classReplicaOnly && !req.Replica) {
		return OpReply{Result: EINVAL, Detail: "calls and overwrites apply on the primary only", Epoch: m.Epoch}, nil
	}

	// A call against a class this daemon does not know may be racing a
	// just-committed install; pull the latest map once before failing.
	if spec.call && !o.rt.isNative(req.Class) {
		if _, ok := m.Classes[req.Class]; !ok {
			if fresh, err := o.monc.GetOSDMap(ctx); err == nil {
				o.updateMap(fresh, noPeer)
				v = o.view.Load()
				m = v.m
			}
		}
	}

	if req.Epoch < m.Epoch {
		return OpReply{Result: EMapStale, Detail: "client map epoch out of date", Epoch: m.Epoch}, nil
	}

	pv := v.pools[req.Pool]
	if pv == nil {
		return OpReply{Result: ENOENT, Detail: "no such pool", Epoch: m.Epoch}, nil
	}
	pgnum := PGForObject(req.Object, pv.info.PGNum)
	acting := pv.actingFor(pgnum)
	if len(acting) == 0 {
		return OpReply{Result: EIO, Detail: "no OSDs up", Epoch: m.Epoch}, nil
	}
	if !req.Replica && acting[0] != o.cfg.ID {
		return OpReply{Result: EMapStale, Detail: "not primary for object", Epoch: m.Epoch}, nil
	}
	if !req.Replica && (o.witN.Load() > 0 || o.gateN.Load() > 0) && !o.awaitWitnesses(ctx, PGID{Pool: req.Pool, PG: pgnum}, req.Object) {
		return OpReply{Result: EIO, Detail: "interrupted awaiting a witness replay", Epoch: m.Epoch}, nil
	}

	// Duplicate-delivery check: a client resend of an operation whose ack
	// was lost must observe the recorded outcome, not re-apply it. Only
	// the epoch is refreshed — the rest of the reply is the original.
	// A read-class op, which is never recorded there, skips it.
	if req.OpID != 0 && !req.Replica && spec.class != classRead {
		if rep, ok := o.replayGet(from, req.OpID); ok {
			rep.Epoch = m.Epoch
			return rep, nil
		}
	}

	// The batched block reads span PGs and are answered here; a block
	// write's content is checked on the primary before anything is
	// stored, so one bad entry rejects the whole batch.
	if spec.readBatch != nil {
		return spec.readBatch(o, req, pv, m.Epoch), nil
	}
	if req.Op == OpBlockWrite && !req.Replica {
		if name := misnamedBlock(&req); name != "" {
			return OpReply{Result: EINVAL, Detail: "block content does not match its name: " + name, Epoch: m.Epoch}, nil
		}
	}
	p := o.getPG(PGID{Pool: req.Pool, PG: pgnum})
	if req.Replica {
		return o.replicaStep(ctx, sent, &req, p, pv, m), nil
	}
	return o.primaryStep(ctx, from, &req, p, acting, pv, m)
}

// batched reports whether r is a block batch, whose entries are r.Blocks.
func (r *OpRequest) batched() bool { return r.Op == OpBlockWrite && len(r.Blocks) > 0 }

// misnamedBlock returns the name of the first entry of a block write
// whose content does not hash to that name, or "" when none.
func misnamedBlock(req *OpRequest) string {
	if len(req.Blocks) == 0 && BlockName(req.Data) != req.Object {
		return req.Object
	}
	for _, b := range req.Blocks {
		if BlockName(b.Data) != b.Name {
			return b.Name
		}
	}
	return ""
}

// primaryStep is the primary's one step for every client op. Its
// entries are the request itself, in the PG p and acting set handleOp
// routed it by, or, for a block batch, each of req.Blocks, looked up in
// turn. Each entry this daemon leads takes applyPrimary (slot lock,
// apply, version stamp, journal record, unlock). Then, if anything
// changed, the step as a whole takes one journal commit and one
// replay-cache entry, and returns its fan-out to run after the reply
// (replicate): the client is answered as soon as this copy is committed,
// and each peer answers it once the forward is. Nothing is held across
// the fsync or the fan-out: per-object ordering travels in the version
// stamps instead of being pinned by a lock. A read ends after its apply.
// A witnessed op's outcome enters the replay cache whether it mutated or
// not, and one that did not is answered after its records are dropped
// (witness.go).
func (o *OSD) primaryStep(ctx context.Context, from wire.Addr, req *OpRequest, p *pg, acting []int, pv *poolView, m *types.OSDMap) (OpReply, *replication) {
	var (
		reply   OpReply
		mutated bool
		peers   []int        // the replica peers to forward to
		sub     []*OpRequest // for a block batch, sub[i] is peers[i]'s forward
	)
	witnessed := req.Witnessed && len(acting) > 1
	if !req.batched() {
		var prev uint64
		reply, prev, mutated = o.applyPrimary(p, req, m, witnessed)
		if mutated {
			// Every peer is sent this request, stamped.
			peers = acting[1:]
			req.Replica, req.Epoch, req.Client = true, m.Epoch, from
			req.PrevVersion, req.NewVersion = prev, reply.Version
			if witnessed {
				req.Data = reply.Data
			}
		}
	} else {
		reply = OpReply{Result: OK, Keys: make([]string, 0, len(req.Blocks)), Epoch: m.Epoch}
		entry := OpRequest{Pool: req.Pool, Op: OpBlockWrite}
		for _, b := range req.Blocks {
			p, acting := o.ledPG(pv, b.Name)
			if p == nil {
				continue
			}
			entry.Object, entry.Data = b.Name, b.Data
			rep, prev, created := o.applyPrimary(p, &entry, m, false)
			reply.Keys = append(reply.Keys, b.Name)
			if !created {
				continue
			}
			mutated = true
			b.PrevVersion, b.NewVersion = prev, rep.Version
			for _, peer := range acting[1:] {
				i := slices.Index(peers, peer)
				if i < 0 {
					i = len(peers)
					peers = append(peers, peer)
					sub = append(sub, &OpRequest{Pool: req.Pool, Object: b.Name, Epoch: m.Epoch, Op: OpBlockWrite,
						OpID: req.OpID, Replica: true, Client: from})
				}
				sub[i].Blocks = append(sub[i].Blocks, b)
			}
		}
	}
	if !mutated {
		if witnessed {
			return o.answerUnwritten(ctx, from, req, acting[1:], reply), nil
		}
		return reply, nil
	}
	if err := o.commitDurable(); err != nil {
		if witnessed {
			witnessSynced(p.entry(req.Object))
		}
		return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}, nil
	}
	reply.Forwards = uint16(len(peers))
	if req.OpID != 0 {
		o.replayPut(from, req.OpID, reply)
	}
	if len(peers) == 0 {
		return reply, nil
	}
	f := &fanout{}
	if sub == nil {
		f.req = *req
	} else {
		f.req = OpRequest{OpID: req.OpID, Client: from}
	}
	r := &replication{o: o, f: f, peers: peers, sub: sub, reply: reply}
	if witnessed {
		r.synced = p.entry(req.Object)
	}
	return reply, r
}

// replicaStep is a replica's one step for a primary's forward. Its
// entries are the request itself, in the PG p, or, for a block batch,
// each of req.Blocks; each takes applyReplicaOp, all against one wait deadline,
// set by the first entry that has to wait. Then one journal commit, if
// any entry recorded anything, the client's ack, and one reply. A
// per-object forward is answered with its entry's own result and
// version, so the primary logs a refusal and relays it. sent is the
// forward as it arrived, which the ack echoes.
func (o *OSD) replicaStep(ctx context.Context, sent, req *OpRequest, p *pg, pv *poolView, m *types.OSDMap) OpReply {
	var deadline time.Time
	reply, recorded := OpReply{Result: OK, Epoch: m.Epoch}, false
	if !req.batched() {
		reply, recorded = o.applyReplicaOp(ctx, p, req, m, &deadline)
	} else {
		entry := OpRequest{Pool: pv.name, Op: OpBlockWrite, Replica: true}
		for _, b := range req.Blocks {
			entry.Object, entry.Data = b.Name, b.Data
			entry.PrevVersion, entry.NewVersion = b.PrevVersion, b.NewVersion
			p := o.getPG(PGID{Pool: pv.name, PG: PGForObject(b.Name, pv.info.PGNum)})
			if _, rec := o.applyReplicaOp(ctx, p, &entry, m, &deadline); rec {
				recorded = true
			}
		}
	}
	if recorded {
		if err := o.commitDurable(); err != nil {
			return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
		}
	}
	if reply.Result == OK {
		// A peer that accepted the op's witness copy has answered for it.
		held := req.Witnessed && o.settleWitness(req)
		if !held && !o.ackClient(ctx, sent) {
			reply.Unacked = true
		}
	}
	return reply
}

// ackClient tells the client a forward names that this replica has
// applied and committed it; false when the ack did not reach it. A
// forward of an unstamped op has nobody waiting for it.
func (o *OSD) ackClient(ctx context.Context, fwd *OpRequest) bool {
	if fwd.OpID == 0 || fwd.Client == "" {
		return true
	}
	_, err := o.net.Call(ctx, o.addr, fwd.Client, (*replicaAck)(fwd))
	return err == nil
}

// applyPrimary applies a client op to the primary's copy under the
// object's slot lock and journals it. It returns the reply, the slot
// version before the op, and whether state changed. A class call or an
// overwrite that changed state leaves *req — the handler's own copy,
// never the sender's — rewritten as the OpTxn carrying its write-set:
// the op has run, here, once, and from this point on (journal record,
// replica forward) it is its effect as the primary stored it.
//
// A mutation that is not witnessed first waits until no witnessed one
// of the object awaits its fan-out; a class call, which is known to
// write only once it ran, is undone and run again after that wait.
// witnesses counts a witnessed mutation among those awaiting it
// (witness.go, rule 2).
func (o *OSD) applyPrimary(p *pg, req *OpRequest, m *types.OSDMap, witnesses bool) (reply OpReply, prev uint64, mutated bool) {
	spec := &opSpecs[req.Op]
	var e *objEntry
	if spec.class == classRead {
		// A read of a name with no slot answers as a tombstone's would,
		// and leaves no slot behind.
		if e = p.lookup(req.Object); e == nil {
			return OpReply{Result: ENOENT, Epoch: m.Epoch}, 0, false
		}
	} else {
		e = p.entry(req.Object)
	}
	e.mu.Lock()
	sync := !req.Witnessed && !spec.call && spec.class != classRead
	var txn []TxnOp
	for {
		if sync && e.unsynced > 0 {
			ch := e.unsyncedLocked()
			e.mu.Unlock()
			<-ch
			e.mu.Lock()
			continue
		}
		prev = e.ver
		if !spec.call {
			reply, mutated = o.applyOp(e, req, m)
			mutated = mutated && reply.Result == OK
			if mutated && spec.writeSet != nil {
				txn = spec.writeSet(e.obj, *req)
			}
			break
		}
		var blocked bool
		if reply, txn, blocked = o.applyCall(e, req, m); !blocked {
			mutated = txn != nil
			break
		}
		sync = true
	}
	if txn != nil {
		*req = OpRequest{Pool: req.Pool, Object: req.Object, Epoch: req.Epoch, Op: OpTxn, OpID: req.OpID, Txn: txn,
			Witnessed: req.Witnessed}
	}
	if mutated {
		o.recordOp(p, e, req)
		if witnesses {
			e.unsynced++
		}
	}
	e.mu.Unlock()
	reply.Epoch = m.Epoch
	return reply, prev, mutated
}

// ledPG returns the placement group holding name and its acting set
// when this daemon is the PG's primary, and a nil PG otherwise. The
// block batch handlers skip names they do not lead: the client grouped
// them with a stale map, sees them missing from the reply, and re-sends
// them to their real primary after a refresh.
func (o *OSD) ledPG(pv *poolView, name string) (*pg, []int) {
	pgnum := PGForObject(name, pv.info.PGNum)
	acting := pv.actingFor(pgnum)
	if len(acting) == 0 || acting[0] != o.cfg.ID {
		return nil, nil
	}
	return o.getPG(PGID{Pool: pv.name, PG: pgnum}), acting
}

// blockStatBatch answers which of req.Keys exist on this daemon,
// touching each found block's reclaim clock so the caller's grace
// window opens from "you told me it exists", not from the block's last
// write; the whole batch takes one clock reading, made before any block
// is reported. A name this daemon does not lead is simply not reported;
// the client writes it, and OpBlockWrite on an existing block is an ack.
// Like every read, the stat creates no slot for a name that has none.
func (o *OSD) blockStatBatch(req OpRequest, pv *poolView, epoch types.Epoch) OpReply {
	present := make([]string, 0, len(req.Keys))
	now := time.Now()
	for _, name := range req.Keys {
		p, _ := o.ledPG(pv, name)
		if p == nil {
			continue
		}
		e := p.lookup(name)
		if e == nil {
			continue
		}
		e.mu.Lock()
		if e.obj != nil {
			e.touch = now
			present = append(present, name)
		}
		e.mu.Unlock()
	}
	return OpReply{Result: OK, Keys: present, Epoch: epoch}
}

// blockReadBatch returns, in one reply, the bytes of every block of
// req.Keys this daemon leads: reply.Keys names them in request order
// and reply.Blocks[i] aliases the stored slice of reply.Keys[i], as a
// single read's Data does. A led block that does not exist fails the
// whole batch ENOENT, named in Detail — the reader cannot assemble its
// object without it.
func (o *OSD) blockReadBatch(req OpRequest, pv *poolView, epoch types.Epoch) OpReply {
	names := make([]string, 0, len(req.Keys))
	blocks := make([][]byte, 0, len(req.Keys))
	for _, name := range req.Keys {
		p, _ := o.ledPG(pv, name)
		if p == nil {
			continue
		}
		var data []byte
		found := false
		if e := p.lookup(name); e != nil {
			e.mu.Lock()
			if found = e.obj != nil; found {
				data = e.obj.Data // under the lock, as OpRead: the name need not be a block's
			}
			e.mu.Unlock()
		}
		if !found {
			return OpReply{Result: ENOENT, Detail: "block " + name, Epoch: epoch}
		}
		names = append(names, name)
		blocks = append(blocks, data)
	}
	return OpReply{Result: OK, Keys: names, Blocks: blocks, Epoch: epoch}
}

// replication is a primary's answer to a mutation with its fan-out
// still to run: a wire.Deferred, so the fabric hands the client reply
// and runs replicate after it.
type replication struct {
	o     *OSD
	f     *fanout
	peers []int
	sub   []*OpRequest
	reply any // the OpReply, boxed as the fabric carries it
	// synced is the slot of a witnessed mutation, counted out of its
	// unsynced ones once the fan-out has finished (witness.go, rule 2).
	synced *objEntry
}

// Reply is the primary's answer, sent before the fan-out runs.
func (r *replication) Reply() any { return r.reply }

// RunLater runs the fan-out.
func (r *replication) RunLater(ctx context.Context) { r.o.replicate(ctx, r) }

// replicate sends a primary step's forwards to its replica peers —
// r.sub[i] to r.peers[i] after a block batch, one shared copy of the
// request (r.f.req) to every peer otherwise — and waits for each
// replica's reply, then, if an answer was lost, settles the op's
// replay-cache entry. Each replica answers the client itself; a forward
// that fails, or whose ack did not arrive, is relayed (callReplica).
// Forwards overlap, so the
// fan-out leg costs ~1 RTT regardless of replica count (primary-copy
// replication, §4.4), and the fan-out never waits on a forward that
// nobody has started (caller-runs):
//
//   - every peer but the last is handed to the forwarders as a claim on
//     the fan-out (dispatch);
//   - the last peer's forward runs here, in line;
//   - then this goroutine takes every claim still open and runs those
//     forwards itself, and waits only for the ones forwarders took.
//
// No goroutine is started per op, and no forward waits behind a busy
// forwarder. Nothing here looks at the fabric's delay; the fabric runs
// replicate on the client's goroutine at zero delay, before the reply
// returns, and on its own goroutine otherwise (wire.Deferred). When the
// in-line forward blocks — a fabric delay, a journal fsync, a
// PrevVersion wait — the goroutine parks, the woken forwarder takes its
// claim within microseconds, and the forwards overlap. When it does not
// block, the goroutine is back before any forwarder was scheduled and
// runs the rest itself, warm, rather than parking until a cold one has:
// two goroutine switches and the request's cache lines moved between
// them, the largest single cost of an in-memory write.
//
// The forwards run under ctx, with no deadline of their own: wire.Call
// runs the replica's step on the calling goroutine, so a forward is
// bounded by its fabric delays, the replica's ReplicaWaitTimeout and its
// journal commit.
func (o *OSD) replicate(ctx context.Context, r *replication) {
	f := r.f
	f.ctx = ctx
	c := fwdClaim{f: f, peers: r.peers, sub: r.sub}
	last := len(r.peers) - 1
	f.wg.Add(last)
	for range last {
		o.dispatch(c)
	}
	if !o.callReplica(ctx, r.peers[last], c.request(last)) {
		f.unanswered.Store(true)
	}
	for i, ok := c.take(); ok; i, ok = c.take() {
		o.forward(c, i)
	}
	f.wg.Wait()
	// A client that heard from every peer never needs the cache's word
	// that the fan-out is over; one that missed an answer re-sends.
	if f.unanswered.Load() && f.req.OpID != 0 {
		o.replaySettle(f.req.Client, f.req.OpID)
	}
	if r.synced != nil {
		witnessSynced(r.synced)
	}
}

// dispatch hands one claim to the forwarders: it joins the open claims,
// and unless a forwarder already awake will pick it up, one idle
// forwarder is woken or, with none idle, a new one started. A claim is
// never left to a forwarder that is running a forward: that forward can
// block up to ReplicaWaitTimeout on its PrevVersion predecessor, which
// would cost this fan-out its overlap. Claims the handlers took back are
// dropped here, so an awake forwarder that has not been scheduled yet
// stands for the next claim instead of a new goroutine per op. While the
// daemon stops no forwarder may start, and the claim stays open for its
// handler.
func (o *OSD) dispatch(c fwdClaim) {
	o.fwdMu.Lock()
	o.fwdOpen = slices.DeleteFunc(o.fwdOpen, fwdClaim.spent)
	o.fwdOpen = append(o.fwdOpen, c)
	wake := len(o.fwdOpen) > o.fwdAwake
	if wake {
		o.fwdAwake++
	}
	o.fwdMu.Unlock()
	if !wake {
		return
	}
	select {
	case o.fwdWake <- struct{}{}:
	default:
		if !o.startForwarder() {
			o.fwdMu.Lock()
			o.fwdAwake--
			o.fwdMu.Unlock()
		}
	}
}

// pickUp takes an open claim for an awake forwarder and counts it out
// of the awake ones: with the claim and its peer index when one was
// still open, and false, to go back to waiting, when none was.
func (o *OSD) pickUp() (fwdClaim, int, bool) {
	o.fwdMu.Lock()
	defer o.fwdMu.Unlock()
	o.fwdAwake--
	for n := len(o.fwdOpen); n > 0; n-- {
		c := o.fwdOpen[n-1]
		o.fwdOpen[n-1] = fwdClaim{}
		o.fwdOpen = o.fwdOpen[:n-1]
		if i, ok := c.take(); ok {
			return c, i, true
		}
	}
	return fwdClaim{}, 0, false
}

// fanout is one replicated mutation being forwarded: the fan-out's
// context, the claims taken on its handed forwards, the count of those
// not yet finished, and — when every peer receives the same request —
// that request (after a block batch, only its Client and OpID).
type fanout struct {
	ctx        context.Context
	req        OpRequest
	wg         sync.WaitGroup
	taken      atomic.Uint32
	unanswered atomic.Bool // some peer's answer did not reach the client
}

// fwdClaim is a claim on a fan-out, as dispatch hands it to the
// forwarders. The handed forwards are those to peers[:len(peers)-1];
// the claims on them are interchangeable and taken in peer order, so
// one counter serves any number of peers. The peers and sub-batches
// travel in the claim, not the fanout, which keeps the fanout in the
// size class it had.
type fwdClaim struct {
	f     *fanout
	peers []int
	sub   []*OpRequest // nil: every peer is sent f.req
}

// take claims the next handed forward nobody has taken and returns its
// peer index; false once all are taken. A loser only reads the counter.
func (c fwdClaim) take() (int, bool) {
	for {
		n := c.f.taken.Load()
		if int(n) >= len(c.peers)-1 {
			return 0, false
		}
		if c.f.taken.CompareAndSwap(n, n+1) {
			return int(n), true
		}
	}
}

// spent reports whether every handed forward of c's fan-out is taken.
func (c fwdClaim) spent() bool { return int(c.f.taken.Load()) >= len(c.peers)-1 }

// request is the forward for peers[i].
func (c fwdClaim) request(i int) *OpRequest {
	if c.sub != nil {
		return c.sub[i]
	}
	return &c.f.req
}

// forward runs the claimed forward to peers[i] and reports it done.
func (o *OSD) forward(c fwdClaim, i int) {
	if !o.callReplica(c.f.ctx, c.peers[i], c.request(i)) {
		c.f.unanswered.Store(true)
	}
	c.f.wg.Done()
}

// callReplica delivers one forward and waits for the replica's reply. A
// replica that cannot be reached, or that answers anything but OK, now
// holds a copy that differs from the primary's: durability is degraded
// until the beacon timeout marks it down and backfill repairs, or scrub
// does. Either way the cluster log says so, and the client, which waits
// for every peer, is told (relay) — as it is when the replica applied
// the forward but could not reach it.
//
// One refusal is not final: a replica that installed epoch e+1 before
// this daemon did refuses a forward stamped e as stale, although the
// primary has applied the mutation and will ack it. restamp catches this
// daemon up and, if the forward is still its to send, the forward goes
// out once more under the new epoch. The version stamps it carries make
// the second delivery idempotent.
//
// It reports whether the client has its answer for the peer: the
// replica's ack, or the relay.
func (o *OSD) callReplica(ctx context.Context, peer int, req *OpRequest) bool {
	to := OSDAddr(peer)
	rep, err := o.callOSD(ctx, to, req)
	if err == nil && rep.Result == EMapStale && rep.Epoch > req.Epoch {
		if again := o.restamp(ctx, peer, req, rep.Epoch); again != nil {
			rep, err = o.callOSD(ctx, to, again)
		}
	}
	if err == nil && rep.Result != OK {
		err = ErrFor(rep.Result, rep.Detail)
	}
	answered := err == nil && !rep.Unacked
	if !answered {
		answered = o.relay(ctx, req, to)
	}
	if err != nil {
		lctx, lcancel := context.WithTimeout(context.Background(), time.Second)
		defer lcancel()
		o.monc.Log(lctx, "warn", "replica write to "+string(to)+" failed: "+err.Error()) //nolint:errcheck
	}
	return answered
}

// relay answers the client of a forward for peer, whose own ack will not
// come, and reports whether the answer arrived. One that did not leaves
// the client to re-send, and the replay cache answers it.
func (o *OSD) relay(ctx context.Context, fwd *OpRequest, peer wire.Addr) bool {
	if fwd.OpID == 0 || fwd.Client == "" {
		return true
	}
	_, err := o.net.Call(ctx, o.addr, fwd.Client, &relayAck{OpID: fwd.OpID, Peer: peer})
	return err == nil
}

// callOSD is one op round trip to a peer daemon.
func (o *OSD) callOSD(ctx context.Context, to wire.Addr, req *OpRequest) (OpReply, error) {
	resp, err := o.net.Call(ctx, o.addr, to, req)
	if err != nil {
		return OpReply{}, err
	}
	rep, ok := resp.(OpReply)
	if !ok {
		return OpReply{}, fmt.Errorf("osd.%d: unexpected reply %T from %s", o.cfg.ID, resp, to)
	}
	return rep, nil
}

// restamp brings this daemon to at least epoch (pulling from the
// monitors only if the flood has not delivered it already) and returns a
// copy of the forward req stamped with the map now installed — or nil
// when that map no longer makes this daemon the primary, with peer in
// the acting set, of every object the forward names: then the forward is
// not this daemon's to send, and backfill under the new map owns the
// repair. req itself is shared by the fan-out's other peers and is not
// written.
func (o *OSD) restamp(ctx context.Context, peer int, req *OpRequest, epoch types.Epoch) *OpRequest {
	if o.Epoch() < epoch {
		if m, err := o.monc.GetOSDMap(ctx); err == nil {
			o.updateMap(m, noPeer)
		}
	}
	v := o.view.Load()
	pv := v.pools[req.Pool]
	if v.m.Epoch <= req.Epoch || pv == nil {
		return nil
	}
	stillOurs := func(name string) bool {
		acting := pv.actingFor(PGForObject(name, pv.info.PGNum))
		return len(acting) > 0 && acting[0] == o.cfg.ID && slices.Contains(acting[1:], peer)
	}
	if len(req.Blocks) == 0 && !stillOurs(req.Object) {
		return nil
	}
	for i := range req.Blocks {
		if !stillOurs(req.Blocks[i].Name) {
			return nil
		}
	}
	again := *req
	again.Epoch = v.m.Epoch
	return &again
}

// startForwarder starts an awake forwarder goroutine of the current
// incarnation; false when the daemon is not running. lifeMu orders the
// wg.Add before Stop's wg.Wait.
func (o *OSD) startForwarder() bool {
	o.lifeMu.Lock()
	defer o.lifeMu.Unlock()
	if !o.running {
		return false
	}
	o.wg.Add(1)
	go o.forwarder(o.stopCh)
	return true
}

// forwarder serves replica forwards until the daemon stops. Each time
// it is woken it picks up an open claim and runs that forward; when the
// handlers have taken every claim back, it goes straight back to
// waiting. Its stack, grown once inside the replica's apply path, is
// reused by every later forward — the cost a goroutine per peer per op
// paid each time.
func (o *OSD) forwarder(stop chan struct{}) {
	defer o.wg.Done()
	for {
		if c, i, ok := o.pickUp(); ok {
			o.forward(c, i)
		}
		select {
		case <-o.fwdWake:
		case <-stop:
			return
		}
	}
}

// applyReplicaOp applies a primary forward in the primary's per-object
// version order. A forward that arrives ahead of its predecessor (the
// parallel fan-outs of two writes to one object can cross on the
// fabric) buffers on the slot's applied channel until the local version
// catches up to PrevVersion, bounded by *deadline; on expiry it applies
// anyway — the primary's stamp still lands via NewVersion and scrub
// repairs any residual divergence. A zero *deadline is set to
// ReplicaWaitTimeout from the first wait, so the common forward, which
// never waits, never reads the clock; callers share one deadline across
// a batch by passing the same one. A forward that arrives after a newer
// mutation already applied is dropped as a stale duplicate rather than
// regressing state. The bool reports that the slot's version advanced:
// the apply or the pin was journaled, and the caller must commit.
func (o *OSD) applyReplicaOp(ctx context.Context, p *pg, req *OpRequest, m *types.OSDMap, deadline *time.Time) (OpReply, bool) {
	e := p.entry(req.Object)
	e.mu.Lock()
	for e.ver < req.PrevVersion {
		if deadline.IsZero() {
			*deadline = time.Now().Add(o.cfg.ReplicaWaitTimeout)
		}
		ch := e.appliedLocked()
		e.mu.Unlock()
		ok := waitApplied(ctx, ch, *deadline)
		e.mu.Lock()
		if !ok {
			break
		}
	}
	if e.ver > req.PrevVersion {
		reply := OpReply{Result: OK, Version: e.ver, Epoch: m.Epoch}
		e.mu.Unlock()
		return reply, false
	}
	preVer := e.ver
	reply, mutated := o.applyOp(e, req, m)
	if req.NewVersion > e.ver {
		// Pin to the primary's stamp so a forced out-of-order apply
		// re-converges the version sequence. Pin even when the local
		// apply was a no-op (a remove of an object this replica never
		// held, a block write of a block it already holds): the primary
		// mutated, and leaving the local version behind would stall
		// every later forward at the PrevVersion wait until scrub
		// repairs the gap.
		e.ver = req.NewVersion
		if e.obj != nil {
			e.obj.Version = e.ver
		}
		reply.Version = e.ver
		if !mutated {
			e.signalLocked()
		}
	}
	moved := e.ver > preVer
	switch {
	case mutated:
		// Journal after the pin so the record carries the primary's
		// stamp, not the transient local one.
		o.recordOp(p, e, req)
	case moved:
		// No-op apply that still pinned the version, whatever it answered
		// (that remove is ENOENT): replaying the log must land on the same
		// stamp or later forwards stall at their PrevVersion wait.
		o.backend.Record(Mutation{Kind: RecVerPin, Pool: req.Pool, PG: p.id.PG,
			Object: req.Object, Version: e.ver})
	}
	e.mu.Unlock()
	reply.Epoch = m.Epoch
	return reply, moved
}

// waitApplied blocks until ch closes (the object advanced), the
// deadline passes, or ctx is done. Returns true only for the advance.
func waitApplied(ctx context.Context, ch <-chan struct{}, deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// applyOp executes one op against the object's slot. Caller holds e.mu.
// Returns the reply and whether object state changed (drives
// replication). Read replies alias stored slices — safe under the
// copy-on-write discipline documented on Object. req is read, never
// kept: applyPrimary rewrites *req once the apply returns.
func (o *OSD) applyOp(e *objEntry, req *OpRequest, m *types.OSDMap) (OpReply, bool) {
	switch req.Op {
	case OpStat:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		return OpReply{Result: OK, Size: int64(len(e.obj.Data)), Version: e.ver}, false

	case OpRead:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		return OpReply{Result: OK, Data: e.obj.Data, Version: e.ver}, false

	case OpCreate:
		if e.obj != nil {
			return OpReply{Result: EEXIST}, false
		}
		e.materializeLocked(req.Object)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpWriteFull:
		// Only a primary applies a WriteFull; its replicas install the
		// bytes it stored (OpTxn). The clone is the one copy of the
		// caller's buffer.
		e.materializeLocked(req.Object).Data = append([]byte(nil), req.Data...)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpAppend:
		obj := e.materializeLocked(req.Object)
		// Fresh allocation, not append-in-place: readers may hold the old
		// slice (copy-on-write).
		grown := make([]byte, 0, len(obj.Data)+len(req.Data))
		grown = append(append(grown, obj.Data...), req.Data...)
		obj.Data = grown
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpRemove:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		e.obj = nil
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpOmapGet:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		kv := make(map[string][]byte)
		for _, k := range req.Keys {
			if v, ok := e.obj.Omap[k]; ok {
				kv[k] = v
			}
		}
		return OpReply{Result: OK, KV: kv, Version: e.ver}, false

	case OpOmapSet:
		obj := e.materializeLocked(req.Object)
		for k, v := range req.KV {
			obj.Omap[k] = append([]byte(nil), v...)
		}
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpOmapDel:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		for _, k := range req.Keys {
			delete(e.obj.Omap, k)
		}
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpOmapList:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		return OpReply{Result: OK, Keys: e.obj.OmapKeysSorted(req.Key), Version: e.ver}, false

	case OpGetXattr:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		v, ok := e.obj.Xattrs[req.Key]
		if !ok {
			return OpReply{Result: ENOENT, Detail: "no such xattr"}, false
		}
		return OpReply{Result: OK, Data: v, Version: e.ver}, false

	case OpSetXattr:
		obj := e.materializeLocked(req.Object)
		obj.Xattrs[req.Key] = append([]byte(nil), req.Data...)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpTxn:
		// A class call or overwrite as its replicas see it: the final
		// values the primary stored (handleOp admits it from a primary
		// only). Nothing is read, so a forced out-of-order or repeated
		// apply still lands on those values.
		e.materializeLocked(req.Object).applyTxn(req.Txn)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpBlockWrite:
		if e.obj != nil {
			// Content-addressed: a block with this name already holds
			// exactly these bytes. Ack and refresh the grace clock —
			// never rewrite, so concurrent duplicate writers are free.
			e.touch = time.Now()
			return OpReply{Result: OK, Version: e.ver}, false
		}
		// handleOp has checked the content against the name on the
		// primary; a replica installs what the primary stored.
		obj := e.materializeLocked(req.Object)
		obj.Data = append([]byte(nil), req.Data...)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpBlockReclaim:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		// The sweeper's selection is re-made here under the slot lock: a
		// stat or write that slipped in since it cancels the reclaim.
		// Replica forwards apply unconditionally — the primary already
		// decided, and a replica's own touch clock is not authoritative.
		if !req.Replica && time.Since(e.touch) < time.Duration(req.Count) {
			return OpReply{Result: ECANCELED, Detail: "block inside the reclaim grace window"}, false
		}
		e.obj = nil
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true
	}
	return OpReply{Result: EINVAL, Detail: "unknown op"}, false
}

// recordOp journals one applied mutation to the backend. Caller
// holds e.mu and guarantees the op mutated with Result OK; the backend
// encodes synchronously (Backend contract), so passing slices and maps
// that alias the live object is safe. Records carry post-state (the
// full bytestream, a write-set's final values) rather than op deltas, which
// makes replay idempotent under the version guard. The kind is the op's
// row's: every op reaching here journals, a call or overwrite as its OpTxn.
func (o *OSD) recordOp(p *pg, e *objEntry, req *OpRequest) {
	kind := opSpecs[req.Op].journal
	if kind == 0 {
		return
	}
	mut := Mutation{Kind: kind, Pool: req.Pool, PG: p.id.PG, Object: req.Object, Version: e.ver}
	switch kind {
	case RecData:
		mut.Data = e.obj.Data // an append or a block write: the slot is live
	case RecTxn:
		// A class call or overwrite journals what it wrote — the entries
		// its replicas are sent — not the object it wrote them to; a
		// create, which writes nothing, an empty write-set.
		mut.Txn = req.Txn
	}
	o.backend.Record(mut)
}

// commitDurable group-commits the journal; a no-op for MemBackend. Call
// after releasing slot locks and before acking the client — the ack
// must imply durability.
func (o *OSD) commitDurable() error {
	return o.backend.Commit()
}

// commitBackground commits on paths with no client to fail (backfill,
// split); an error is logged and the data stays journaled-but-unsynced
// until the next op commit covers it.
func (o *OSD) commitBackground(what string) {
	if err := o.backend.Commit(); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		o.monc.Log(ctx, "warn", fmt.Sprintf("osd.%d: %s wal commit: %v", o.cfg.ID, what, err)) //nolint:errcheck
		cancel()
	}
}

// applyCall executes a class method as a transaction on the primary:
// the method — compiled-in or script — runs once, on the live object
// under its slot lock, writing through ClassCtx. An abort restores what
// it touched, in time proportional to that and not to the object's size
// (ZLog stripe objects grow without bound); success returns the
// write-set, nil when the method wrote nothing. A call that is not
// witnessed and wrote while a witnessed mutation of the object awaits
// its fan-out is undone and reported blocked (witness.go, rule 2).
// Caller holds e.mu.
func (o *OSD) applyCall(e *objEntry, req *OpRequest, m *types.OSDMap) (_ OpReply, _ []TxnOp, blocked bool) {
	def, isScript := m.Classes[req.Class]
	if !isScript && !o.rt.isNative(req.Class) {
		return OpReply{Result: ENOENT, Detail: "no such class: " + req.Class}, nil, false
	}
	existed := e.obj != nil
	ctx := &ClassCtx{Obj: e.materializeLocked(req.Object), Input: req.Input}
	out, rc, native := o.rt.callNative(req.Class, req.Method, ctx)
	if !native {
		out, rc = o.rt.callScript(def, req.Method, ctx)
	}
	if rc != OK {
		// The payload still flows back (lock.acquire reports the current
		// holder alongside EEXIST).
		ctx.rollback()
		if !existed {
			e.obj = nil
		}
		return OpReply{Result: rc, Detail: string(out), Data: out}, nil, false
	}
	if !ctx.wrote() {
		if !existed {
			// A pure read on a nonexistent object leaves no trace.
			e.obj = nil
		}
		return OpReply{Result: OK, Data: out, Version: e.ver}, nil, false
	}
	if e.unsynced > 0 && !req.Witnessed {
		ctx.rollback()
		if !existed {
			e.obj = nil
		}
		return OpReply{}, nil, true
	}
	e.bumpLocked()
	return OpReply{Result: OK, Data: out, Version: e.ver}, ctx.writeSet(), false
}
