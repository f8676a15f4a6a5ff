package rados

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// handleOp services one object operation. The epoch discipline follows
// Ceph: a request from a client with an older map is rejected ESTALE
// (forcing a resync before I/O continues — the mechanism ZLog's seal
// protocol leans on); a request carrying a newer epoch makes this daemon
// pull the latest map before proceeding.
func (o *OSD) handleOp(ctx context.Context, from wire.Addr, req OpRequest) OpReply {
	if req.Epoch > o.Epoch() {
		if m, err := o.monc.GetOSDMap(ctx); err == nil {
			o.updateMap(m, noPeer)
		}
	}
	v := o.view.Load()
	m := v.m

	// Class calls and overwrites apply on the primary alone: replicas
	// are sent what the primary stored as an OpTxn, which is nothing a
	// client may send.
	if (req.Replica && forwardsAsTxn(req.Op)) || (req.Op == OpTxn && !req.Replica) {
		return OpReply{Result: EINVAL, Detail: "calls and overwrites apply on the primary only", Epoch: m.Epoch}
	}

	// A call against a class this daemon does not know may be racing a
	// just-committed install; pull the latest map once before failing.
	if req.Op == OpCall && !o.rt.isNative(req.Class) {
		if _, ok := m.Classes[req.Class]; !ok {
			if fresh, err := o.monc.GetOSDMap(ctx); err == nil {
				o.updateMap(fresh, noPeer)
				v = o.view.Load()
				m = v.m
			}
		}
	}

	if req.Epoch < m.Epoch {
		return OpReply{Result: EMapStale, Detail: "client map epoch out of date", Epoch: m.Epoch}
	}

	pv := v.pools[req.Pool]
	if pv == nil {
		return OpReply{Result: ENOENT, Detail: "no such pool", Epoch: m.Epoch}
	}
	pgnum := PGForObject(req.Object, pv.info.PGNum)
	acting := pv.actingFor(pgnum)
	if len(acting) == 0 {
		return OpReply{Result: EIO, Detail: "no OSDs up", Epoch: m.Epoch}
	}
	if !req.Replica && acting[0] != o.cfg.ID {
		return OpReply{Result: EMapStale, Detail: "not primary for object", Epoch: m.Epoch}
	}

	// Duplicate-delivery check: a client resend of an operation whose ack
	// was lost must observe the recorded outcome, not re-apply it. Only
	// the epoch is refreshed — the rest of the reply is the original.
	if req.OpID != 0 && !req.Replica {
		if rep, ok := o.replayGet(from, req.OpID); ok {
			rep.Epoch = m.Epoch
			return rep
		}
	}

	// Block batches name many objects (and so many PGs of this daemon),
	// so they cannot ride the per-object path below. OpBlockStat's
	// single-name form (no Keys) falls through to applyOp like any read.
	switch req.Op {
	case OpBlockStat:
		if len(req.Keys) > 0 {
			return o.blockStatBatch(req, pv, m.Epoch)
		}
	case OpBlockRead:
		return o.blockReadBatch(req, pv, m.Epoch)
	case OpBlockWrite:
		return o.blockWriteBatch(ctx, from, req, pv, m)
	}

	p := o.getPG(PGID{Pool: req.Pool, PG: pgnum})
	if req.Replica {
		var deadline time.Time
		rep := o.applyReplicaOp(ctx, p, req, m, &deadline)
		if rep.Result == OK {
			if err := o.commitDurable(); err != nil {
				return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
			}
		}
		return rep
	}
	if o.cfg.Replication == ReplicateSerial {
		return o.doSerialOp(ctx, from, p, req, m, acting)
	}

	// Pipelined primary path: apply locally under the object's own lock,
	// version-stamp, journal, release the lock, then commit and
	// replicate. Nothing is held across the fsync or the replica
	// round-trips — per-object ordering travels in the version stamps
	// instead of being pinned by a lock.
	reply, prev, mutated := o.applyPrimary(p, &req, m)
	if mutated {
		if err := o.commitDurable(); err != nil {
			return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
		}
		if req.OpID != 0 {
			o.replayPut(from, req.OpID, reply)
		}
		o.replicate(ctx, req, acting[1:], m.Epoch, prev, reply.Version)
	}
	return reply
}

// applyPrimary applies a client op to the primary's copy under the
// object's slot lock and journals it. It returns the reply, the slot
// version before the op, and whether state changed. A class call or an
// overwrite that changed state leaves *req — the handler's own copy,
// never the sender's — rewritten as the OpTxn carrying its write-set:
// the op has run, here, once, and from this point on (journal record,
// replica forward) it is its effect as the primary stored it.
func (o *OSD) applyPrimary(p *pg, req *OpRequest, m *types.OSDMap) (reply OpReply, prev uint64, mutated bool) {
	e := p.entry(req.Object)
	e.mu.Lock()
	prev = e.ver
	var txn []TxnOp
	if req.Op == OpCall {
		reply, txn = o.applyCall(e, *req, m)
		mutated = txn != nil
	} else {
		reply, mutated = o.applyOp(e, *req, m)
		mutated = mutated && reply.Result == OK
		if mutated && forwardsAsTxn(req.Op) {
			txn = storedWriteSet(e.obj, req)
		}
	}
	if txn != nil {
		*req = OpRequest{Pool: req.Pool, Object: req.Object, Epoch: req.Epoch, Op: OpTxn, OpID: req.OpID, Txn: txn}
	}
	if mutated {
		o.recordOp(p, e, *req)
	}
	e.mu.Unlock()
	reply.Epoch = m.Epoch
	return reply, prev, mutated
}

// forwardsAsTxn reports whether op reaches replicas as the OpTxn of
// what the primary stored rather than as itself: class calls, whose
// method must run once, and the overwrites, whose write-set is no
// bigger than the op. OpAppend keeps its delta (its final state is the
// whole object); create and remove carry no bytes.
func forwardsAsTxn(op OpCode) bool {
	switch op {
	case OpCall, OpWriteFull, OpSetXattr, OpOmapSet, OpOmapDel:
		return true
	}
	return false
}

// storedWriteSet is an applied overwrite's write-set: for each thing req
// replaced, the value obj now stores — the primary's clone of the
// caller's buffer, shared from here on by the journal record and every
// replica. Caller holds the slot lock.
func storedWriteSet(obj *Object, req *OpRequest) []TxnOp {
	switch req.Op {
	case OpWriteFull:
		return []TxnOp{{Kind: TxnData, Val: obj.Data}}
	case OpSetXattr:
		return []TxnOp{{Kind: TxnXattrSet, Key: req.Key, Val: obj.Xattrs[req.Key]}}
	case OpOmapSet:
		txn := make([]TxnOp, 0, len(req.KV))
		for k := range req.KV {
			txn = append(txn, TxnOp{Kind: TxnOmapSet, Key: k, Val: obj.Omap[k]})
		}
		// Key order, not map order: the journal encoding stays deterministic.
		slices.SortFunc(txn, func(a, b TxnOp) int { return strings.Compare(a.Key, b.Key) })
		return txn
	case OpOmapDel:
		txn := make([]TxnOp, 0, len(req.Keys))
		for _, k := range req.Keys {
			txn = append(txn, TxnOp{Kind: TxnOmapDel, Key: k})
		}
		return txn
	}
	return nil
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
// write. A name this daemon does not lead is simply not reported; the
// client writes it, and OpBlockWrite on an existing block is an ack.
func (o *OSD) blockStatBatch(req OpRequest, pv *poolView, epoch types.Epoch) OpReply {
	var present []string
	for _, name := range req.Keys {
		p, _ := o.ledPG(pv, name)
		if p == nil {
			continue
		}
		e := p.entry(name)
		e.mu.Lock()
		if e.obj != nil {
			e.touch = time.Now()
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
		e := p.entry(name)
		e.mu.Lock()
		found := e.obj != nil
		var data []byte
		if found {
			data = e.obj.Data // under the lock, as OpRead: the name need not be a block's
		}
		e.mu.Unlock()
		if !found {
			return OpReply{Result: ENOENT, Detail: "block " + name, Epoch: epoch}
		}
		names = append(names, name)
		blocks = append(blocks, data)
	}
	return OpReply{Result: OK, Keys: names, Blocks: blocks, Epoch: epoch}
}

// blockWriteBatch is OpBlockWrite: a batch of create-if-absent block
// writes, of which a client's single-block form (Object/Data, no
// Blocks) is the batch of one. On the primary every entry's content hash is
// checked before anything is stored, so a bad entry rejects the whole
// batch EINVAL. Then each entry this daemon leads takes the ordinary
// per-object step — slot lock, apply, journal record — and the batch
// as a whole takes one journal commit, one replay-cache entry and one
// forward per replica peer, carrying the entries whose acting set holds
// that peer with their version stamps. reply.Keys names the entries
// stored or already present.
func (o *OSD) blockWriteBatch(ctx context.Context, from wire.Addr, req OpRequest, pv *poolView, m *types.OSDMap) OpReply {
	blocks := req.Blocks
	if len(blocks) == 0 {
		blocks = []BlockOp{{Name: req.Object, Data: req.Data}}
	}
	if req.Replica {
		return o.applyReplicaBlocks(ctx, blocks, pv, m)
	}
	for i := range blocks {
		if BlockName(blocks[i].Data) != blocks[i].Name {
			return OpReply{Result: EINVAL, Detail: "block content does not match its name: " + blocks[i].Name, Epoch: m.Epoch}
		}
	}

	entry := OpRequest{Pool: req.Pool, Op: OpBlockWrite}
	reply := OpReply{Result: OK, Keys: make([]string, 0, len(blocks)), Epoch: m.Epoch}
	var forwards map[int][]BlockOp // replica peer -> the entries it must apply
	mutated := false
	for i := range blocks {
		p, acting := o.ledPG(pv, blocks[i].Name)
		if p == nil {
			continue
		}
		entry.Object, entry.Data = blocks[i].Name, blocks[i].Data
		e := p.entry(entry.Object)
		e.mu.Lock()
		prev := e.ver
		rep, created := o.applyOp(e, entry, m)
		if created {
			o.recordOp(p, e, entry)
		}
		e.mu.Unlock()
		reply.Keys = append(reply.Keys, entry.Object)
		reply.Version = rep.Version // the single-block form's stamp
		if !created {
			continue
		}
		mutated = true
		for _, peer := range acting[1:] {
			if forwards == nil {
				forwards = make(map[int][]BlockOp)
			}
			forwards[peer] = append(forwards[peer], BlockOp{
				Name: entry.Object, Data: entry.Data, PrevVersion: prev, NewVersion: rep.Version,
			})
		}
	}
	if !mutated {
		return reply
	}
	if err := o.commitDurable(); err != nil {
		return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
	}
	if req.OpID != 0 {
		o.replayPut(from, req.OpID, reply)
	}
	o.replicateBlocks(ctx, req.Pool, forwards, m.Epoch)
	return reply
}

// applyReplicaBlocks applies a primary's block sub-batch: each entry
// under applyReplicaOp's ordering rule on its own slot, all against one
// wait deadline — set by the first entry that has to wait — then one
// journal commit and one ack for the batch.
func (o *OSD) applyReplicaBlocks(ctx context.Context, blocks []BlockOp, pv *poolView, m *types.OSDMap) OpReply {
	var deadline time.Time
	entry := OpRequest{Pool: pv.name, Op: OpBlockWrite, Replica: true}
	for i := range blocks {
		entry.Object, entry.Data = blocks[i].Name, blocks[i].Data
		entry.PrevVersion, entry.NewVersion = blocks[i].PrevVersion, blocks[i].NewVersion
		p := o.getPG(PGID{Pool: pv.name, PG: PGForObject(entry.Object, pv.info.PGNum)})
		o.applyReplicaOp(ctx, p, entry, m, &deadline)
	}
	if err := o.commitDurable(); err != nil {
		return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
	}
	return OpReply{Result: OK, Epoch: m.Epoch}
}

// replicate forwards a committed mutation to every replica concurrently
// and waits for all acks, so the fan-out leg costs ~1 RTT regardless of
// replica count (primary-copy replication, §4.4). No goroutine is
// started per op: every peer but the last is handed to a forwarder that
// is idle right now, or to a newly started one, and the last peer's
// forward runs here on the handler goroutine, overlapped with the
// others because they were launched first. A forward is never queued
// behind a busy forwarder: it can block up to ReplicaWaitTimeout on its
// PrevVersion predecessor, and queueing that predecessor behind it
// would turn the ~1 RTT fan-out into a timeout stall.
func (o *OSD) replicate(ctx context.Context, req OpRequest, peers []int, epoch types.Epoch, prev, next uint64) {
	if len(peers) == 0 {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	f := &fanout{ctx: rctx, req: req}
	f.req.Replica = true
	f.req.Epoch = epoch
	f.req.PrevVersion = prev
	f.req.NewVersion = next
	f.wg.Add(len(peers))
	last := len(peers) - 1
	for i, peer := range peers {
		o.dispatch(fwdJob{f: f, peer: peer, req: &f.req}, i == last)
	}
	f.wg.Wait()
}

// replicateBlocks is replicate for a block batch: every peer receives
// its own request, holding only the entries it replicates. Under
// ReplicateSerial the peers are contacted one after another, as
// doSerialOp does; the per-PG admission window does not apply, because a
// batch spans PGs and create-if-absent blocks have no order to pin.
func (o *OSD) replicateBlocks(ctx context.Context, pool string, forwards map[int][]BlockOp, epoch types.Epoch) {
	if len(forwards) == 0 {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	f := &fanout{ctx: rctx}
	f.wg.Add(len(forwards))
	left := len(forwards)
	for peer, blocks := range forwards {
		left--
		o.dispatch(fwdJob{f: f, peer: peer, req: &OpRequest{
			Pool: pool, Object: blocks[0].Name, Epoch: epoch, Op: OpBlockWrite,
			Blocks: blocks, Replica: true,
		}}, left == 0 || o.cfg.Replication == ReplicateSerial)
	}
	f.wg.Wait()
}

// dispatch starts one forward of a fan-out: in line for the last peer,
// otherwise on a forwarder that is idle right now or a newly started
// one.
func (o *OSD) dispatch(job fwdJob, last bool) {
	if last {
		o.forward(job)
		return
	}
	select {
	case o.fwdCh <- job:
	default:
		if !o.startForwarder(job) {
			// Daemon stopping: no forwarder may start, so this peer
			// is served in line.
			o.forward(job)
		}
	}
}

// fanout is one replicated mutation being forwarded: the deadline
// covering the whole fan-out, the count of forwards still outstanding,
// and — when every peer receives the same request — that request.
type fanout struct {
	ctx context.Context
	req OpRequest
	wg  sync.WaitGroup
}

// fwdJob is one peer's forward of a fanout, as handed to a forwarder.
type fwdJob struct {
	f    *fanout
	peer int
	req  *OpRequest
}

// forward sends the fan-out's request to one replica, waits for its
// ack, and reports the job done.
func (o *OSD) forward(job fwdJob) {
	defer job.f.wg.Done()
	o.callReplica(job.f.ctx, job.peer, job.req)
}

// callReplica delivers one forward and waits for the replica's ack. A
// replica that cannot be reached, or that answers anything but OK, now
// holds a copy that differs from the primary's: durability is degraded
// until the beacon timeout marks it down and backfill repairs, or scrub
// does. Either way the cluster log says so.
//
// One refusal is not final: a replica that installed epoch e+1 before
// this daemon did refuses a forward stamped e as stale, although the
// primary has applied the mutation and will ack it. restamp catches this
// daemon up and, if the forward is still its to send, the forward goes
// out once more under the new epoch. The version stamps it carries make
// the second delivery idempotent.
func (o *OSD) callReplica(ctx context.Context, peer int, req *OpRequest) {
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
	if err != nil {
		lctx, lcancel := context.WithTimeout(context.Background(), time.Second)
		defer lcancel()
		o.monc.Log(lctx, "warn", "replica write to "+string(to)+" failed: "+err.Error()) //nolint:errcheck
	}
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

// startForwarder starts a forwarder goroutine of the current incarnation
// with job as its first; false when the daemon is not running. lifeMu
// orders the wg.Add before Stop's wg.Wait.
func (o *OSD) startForwarder(job fwdJob) bool {
	o.lifeMu.Lock()
	defer o.lifeMu.Unlock()
	if !o.running {
		return false
	}
	o.wg.Add(1)
	go o.forwarder(o.stopCh, job)
	return true
}

// forwarder serves replica forwards until the daemon stops. Its stack,
// grown once inside the replica's apply path, is reused by every later
// forward — the cost a goroutine per peer per op paid each time.
func (o *OSD) forwarder(stop chan struct{}, job fwdJob) {
	defer o.wg.Done()
	for {
		o.forward(job)
		select {
		case job = <-o.fwdCh:
		case <-stop:
			return
		}
	}
}

// doSerialOp is the measured baseline (ReplicateSerial): one
// operation per PG at a time, replicas contacted sequentially inside
// the PG-wide admission window — (R-1)·RTT per mutation, reads of
// unrelated objects blocked behind it. The window is a channel token
// rather than a held mutex, so the lock-across-RPC invariant holds here
// too.
func (o *OSD) doSerialOp(ctx context.Context, from wire.Addr, p *pg, req OpRequest, m *types.OSDMap, acting []int) OpReply {
	select {
	case p.admit <- struct{}{}:
	case <-ctx.Done():
		return OpReply{Result: EIO, Detail: "canceled awaiting pg admission", Epoch: m.Epoch}
	}
	defer func() { <-p.admit }()

	reply, prev, mutated := o.applyPrimary(p, &req, m)
	if mutated {
		if err := o.commitDurable(); err != nil {
			return OpReply{Result: EIO, Detail: "wal commit: " + err.Error(), Epoch: m.Epoch}
		}
		if req.OpID != 0 {
			o.replayPut(from, req.OpID, reply)
		}
		req.Replica = true
		req.Epoch = m.Epoch
		req.PrevVersion = prev
		req.NewVersion = reply.Version
		for _, peer := range acting[1:] {
			rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			o.callReplica(rctx, peer, &req)
			cancel()
		}
	}
	return reply
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
// regressing state.
func (o *OSD) applyReplicaOp(ctx context.Context, p *pg, req OpRequest, m *types.OSDMap, deadline *time.Time) OpReply {
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
		return reply
	}
	preVer := e.ver
	reply, mutated := o.applyOp(e, req, m)
	if req.NewVersion > e.ver {
		// Pin to the primary's stamp so a forced out-of-order apply
		// re-converges the version sequence. Pin even when the local
		// apply was a no-op (a remove of an object this replica never
		// held, a ref delta its refset already supersedes): the primary
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
	if o.durable && reply.Result == OK {
		switch {
		case mutated:
			// Journal after the pin so the record carries the primary's
			// stamp, not the transient local one.
			o.recordOp(p, e, req)
		case e.ver > preVer:
			// No-op apply that still pinned the version: replaying the
			// log must land on the same stamp or later forwards stall at
			// their PrevVersion wait.
			o.backend.Record(Mutation{Kind: RecVerPin, Pool: req.Pool, PG: p.id.PG,
				Object: req.Object, Version: e.ver})
		}
	}
	e.mu.Unlock()
	reply.Epoch = m.Epoch
	return reply
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
// copy-on-write discipline documented on Object.
func (o *OSD) applyOp(e *objEntry, req OpRequest, m *types.OSDMap) (OpReply, bool) {
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
		// Manifest transition: the primary owns reference bookkeeping, so
		// overwriting (or installing, or clobbering) a manifest enqueues
		// the ref deltas of the old-vs-new block-set diff for the GC
		// sweeper, anchored to the version this apply stamps. Only a
		// primary applies a WriteFull; its replicas install the bytes it
		// stored (OpTxn). The clone is the one copy of the caller's buffer.
		oldSet := manifestBlockSet(objData(e))
		obj := e.materializeLocked(req.Object)
		obj.Data = append([]byte(nil), req.Data...)
		e.bumpLocked()
		o.queueRefDeltas(req.Pool, req.Object, e.ver, oldSet, manifestBlockSet(obj.Data))
		return OpReply{Result: OK, Version: e.ver}, true

	case OpAppend:
		// Appending to a manifest object destroys the manifest (the
		// strict decoder rejects trailing bytes), so its references are
		// released here — otherwise the old block set would leak.
		oldSet := manifestBlockSet(objData(e))
		obj := e.materializeLocked(req.Object)
		// Fresh allocation, not append-in-place: readers may hold the old
		// slice (copy-on-write).
		grown := make([]byte, 0, len(obj.Data)+len(req.Data))
		grown = append(append(grown, obj.Data...), req.Data...)
		obj.Data = grown
		e.bumpLocked()
		if !req.Replica {
			o.queueRefDeltas(req.Pool, req.Object, e.ver, oldSet, nil)
		}
		return OpReply{Result: OK, Version: e.ver}, true

	case OpRemove:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		oldSet := manifestBlockSet(objData(e))
		e.obj = nil
		e.bumpLocked()
		if !req.Replica {
			o.queueRefDeltas(req.Pool, req.Object, e.ver, oldSet, nil)
		}
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

	case OpBlockStat:
		// Single-name form (the batched probe short-circuits in
		// handleOp): existence plus a touch of the reclaim clock.
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		e.touch = time.Now()
		return OpReply{Result: OK, Size: int64(len(e.obj.Data)), Version: e.ver}, false

	case OpBlockWrite:
		if e.obj != nil {
			// Content-addressed: a block with this name already holds
			// exactly these bytes. Ack and refresh the grace clock —
			// never rewrite, so concurrent duplicate writers are free.
			e.touch = time.Now()
			return OpReply{Result: OK, Version: e.ver}, false
		}
		// blockWriteBatch, the only caller, has checked the content
		// against the name.
		obj := e.materializeLocked(req.Object)
		obj.Data = append([]byte(nil), req.Data...)
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpBlockIncref:
		if e.obj == nil {
			return OpReply{Result: ENOENT, Detail: "no such block"}, false
		}
		// req.Key names the referencing manifest, req.Count carries the
		// manifest version that created this delta. The version-anchored
		// set ignores duplicates (resends, double-enqueued diffs after a
		// primary change) and late deltas a newer transition superseded —
		// an ack without mutation, never a double count.
		if !blockRefApply(e.obj, req.Key, uint64(req.Count), true) {
			return OpReply{Result: OK, Version: e.ver}, false
		}
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpBlockDecref:
		if e.obj == nil {
			return OpReply{Result: ENOENT, Detail: "no such block"}, false
		}
		if !blockRefApply(e.obj, req.Key, uint64(req.Count), false) {
			return OpReply{Result: OK, Version: e.ver}, false
		}
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true

	case OpBlockReclaim:
		if e.obj == nil {
			return OpReply{Result: ENOENT}, false
		}
		// The sweeper's scan decision is re-made here under the slot
		// lock: a stat, write, or incref that slipped in since the scan
		// cancels the reclaim. Replica forwards apply unconditionally —
		// the primary already decided, and a replica's own touch clock
		// is not authoritative.
		if !req.Replica && (blockRefs(e.obj) > 0 || time.Since(e.touch) < time.Duration(req.Count)) {
			return OpReply{Result: ECANCELED, Detail: "block referenced or inside the reclaim grace window"}, false
		}
		e.obj = nil
		e.bumpLocked()
		return OpReply{Result: OK, Version: e.ver}, true
	}
	return OpReply{Result: EINVAL, Detail: "unknown op"}, false
}

// objData returns the slot's current bytestream (nil for a tombstone).
// Caller holds e.mu.
func objData(e *objEntry) []byte {
	if e.obj == nil {
		return nil
	}
	return e.obj.Data
}

// recordOp journals one applied mutation to the durable backend. Caller
// holds e.mu and guarantees the op mutated with Result OK; the backend
// encodes synchronously (Backend contract), so passing slices and maps
// that alias the live object is safe. Records carry post-state (the
// full bytestream, the final xattr value) rather than op deltas, which
// makes replay idempotent under the version guard.
func (o *OSD) recordOp(p *pg, e *objEntry, req OpRequest) {
	if !o.durable {
		return
	}
	mut := Mutation{Pool: req.Pool, PG: p.id.PG, Object: req.Object, Version: e.ver}
	switch req.Op {
	case OpCreate:
		mut.Kind = RecCreate
	case OpAppend, OpBlockWrite:
		mut.Kind = RecData
		mut.Data = objData(e)
	case OpRemove, OpBlockReclaim:
		mut.Kind = RecRemove
	case OpBlockIncref, OpBlockDecref:
		// The whole mutation is the refset xattr; journaling the block's
		// (potentially large) bytes again would bloat the log.
		mut.Kind = RecXattrSet
		mut.Key = xattrBlockRefs
		mut.Data = e.obj.Xattrs[xattrBlockRefs]
	case OpTxn:
		// A class call or overwrite journals what it wrote — the entries
		// its replicas are sent — not the object it wrote them to.
		mut.Kind = RecTxn
		mut.Txn = req.Txn
	default:
		// An op with no record kind of its own: snapshot the object.
		if e.obj == nil {
			mut.Kind = RecRemove
		} else {
			mut.Kind = RecSnapshot
			mut.Obj = e.obj
		}
	}
	o.backend.Record(mut)
}

// commitDurable group-commits the journal; a no-op for MemBackend. Call
// after releasing slot locks and before acking the client — the ack
// must imply durability.
func (o *OSD) commitDurable() error {
	if !o.durable {
		return nil
	}
	return o.backend.Commit()
}

// commitBackground commits on paths with no client to fail (backfill,
// split); an error is logged and the data stays journaled-but-unsynced
// until the next op commit covers it.
func (o *OSD) commitBackground(what string) {
	if !o.durable {
		return
	}
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
// write-set, nil when the method wrote nothing. Caller holds e.mu.
func (o *OSD) applyCall(e *objEntry, req OpRequest, m *types.OSDMap) (OpReply, []TxnOp) {
	def, isScript := m.Classes[req.Class]
	if !isScript && !o.rt.isNative(req.Class) {
		return OpReply{Result: ENOENT, Detail: "no such class: " + req.Class}, nil
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
		return OpReply{Result: rc, Detail: string(out), Data: out}, nil
	}
	if !ctx.wrote() {
		if !existed {
			// A pure read on a nonexistent object leaves no trace.
			e.obj = nil
		}
		return OpReply{Result: OK, Data: out, Version: e.ver}, nil
	}
	e.bumpLocked()
	return OpReply{Result: OK, Data: out, Version: e.ver}, ctx.writeSet()
}
