package rados

import (
	"context"
	"slices"
	"time"

	"repro/internal/stopctx"
	"repro/internal/wire"
)

// Witnessed mutations are CURP's fast path (Park & Ousterhout, NSDI '19)
// on the pipeline of acks.go. A client marks an op that commutes with
// concurrent ops on the object's other keys (Client.CallWitnessed); it
// sends the op to the primary and, beside it, a witness copy to every
// replica of the acting set at its epoch. A replica holding no record on
// that object keeps the copy as a record and accepts it. The client
// returns once the primary has answered and every replica has accepted
// or acknowledged the primary's forward, so a call whose copies are all
// accepted answers in one round trip instead of one and a half.
//
// A record clears when the primary's forward carrying its OpID installs
// (settleWitness). Five rules keep every acknowledged op exactly as the
// primary reported it:
//
//  1. A witnessed op that does not mutate at the primary is answered only
//     after the primary has dropped every replica's record
//     (answerUnwritten): a replica that took over would otherwise apply
//     what its client was told failed.
//  2. A mutation that is not witnessed waits, at the primary, until no
//     witnessed mutation of the object awaits its fan-out
//     (applyPrimary), so no replica installs it, and no takeover
//     replays a record, on a history missing a write already answered.
//  3. A replica promoted to primary replays its records before it serves
//     their objects (replayWitness), as primary ops under the recorded
//     client and OpID, so a client's re-send finds their outcome in the
//     replay cache. It replays its peers' records on those placement
//     groups too (recoverPGs): an op whose forward to a peer failed was
//     answered for that peer by a relay, and lives on only in the
//     primary it lost and in the other peers' records. A replica that
//     leaves the acting set drops its records (rewitness).
//  4. A record no forward or drop has cleared within ackWait is resolved
//     with the primary (resolveWitness), which applies it at most once:
//     a re-send of an op already applied is a replay-cache hit.
//  5. On a durable backend a record is journaled before it is accepted.

// witnessCopy is a witnessed op as its client sends it to a replica.
type witnessCopy OpRequest

// witnessResolve is a record a replica sends its primary to settle
// (rule 4): the op its client sent, with Client naming that client.
type witnessResolve OpRequest

// witnessDrop tells a replica to drop its record of one witnessed op
// (rule 1).
type witnessDrop struct {
	Pool, Object string
	Client       wire.Addr
	OpID         uint64
}

// witnessCollect asks a peer for its records on placement groups the
// sender has just come to lead (rule 3); the answer is their ops.
type witnessCollect struct{ PGs []PGID }

// witKey names the object a record is on: a replica holds at most one
// record per object.
type witKey struct{ pool, object string }

// pgOf is the placement group k's object maps to in v; PG -1 when v has
// no such pool.
func (v *mapView) pgOf(k witKey) PGID {
	pv := v.pools[k.pool]
	if pv == nil {
		return PGID{Pool: k.pool, PG: -1}
	}
	return PGID{Pool: k.pool, PG: PGForObject(k.object, pv.info.PGNum)}
}

// witnessRecord is one accepted witness copy.
type witnessRecord struct {
	op OpRequest // the copy, its Client set to the client that sent it
	pg int
	at time.Time // accepted, or restored from the journal
	// replaying is closed once this daemon, now the object's primary,
	// has replayed the record; nil until the replay starts.
	replaying chan struct{}
}

// mutation is the record's journal entry (rule 5).
func (r *witnessRecord) mutation(kind MutKind) Mutation {
	return Mutation{Kind: kind, Pool: r.op.Pool, PG: r.pg, Object: r.op.Object, Op: &r.op}
}

// acceptWitness keeps the copy w from client as a record and accepts it,
// when this daemon is a replica of w's object at w's epoch and holds no
// other record on the object. A copy whose op is installed here already,
// or that this daemon holds already, is accepted as it stands.
func (o *OSD) acceptWitness(ctx context.Context, client wire.Addr, w *witnessCopy) bool {
	if w.Epoch > o.Epoch() {
		if m, err := o.monc.GetOSDMap(ctx); err == nil {
			o.updateMap(m, noPeer)
		}
	}
	v := o.view.Load()
	pv := v.pools[w.Pool]
	if w.OpID == 0 || w.Epoch != v.m.Epoch || pv == nil {
		return false
	}
	pgnum := PGForObject(w.Object, pv.info.PGNum)
	if acting := pv.actingFor(pgnum); len(acting) < 2 || !slices.Contains(acting[1:], o.cfg.ID) {
		return false
	}
	k := witKey{w.Pool, w.Object}
	o.witMu.Lock()
	if held := o.wits[k]; held != nil {
		o.witMu.Unlock()
		return held.op.Client == client && held.op.OpID == w.OpID
	}
	if _, installed := o.replayGet(client, w.OpID); installed {
		o.witMu.Unlock()
		return true
	}
	rec := &witnessRecord{op: OpRequest(*w), pg: pgnum, at: time.Now()}
	rec.op.Client = client
	o.wits[k] = rec
	o.witN.Add(1)
	if o.durable {
		o.backend.Record(rec.mutation(RecWitness))
	}
	o.witMu.Unlock()
	if err := o.commitDurable(); err != nil {
		o.witMu.Lock()
		o.clearWitnessLocked(k, client, w.OpID)
		o.witMu.Unlock()
		return false
	}
	return true
}

// clearWitnessLocked drops the record on k if it is op id of client and
// no replay of it is under way; true when it was held. Caller holds
// o.witMu.
func (o *OSD) clearWitnessLocked(k witKey, client wire.Addr, id uint64) bool {
	rec := o.wits[k]
	if rec == nil || rec.op.Client != client || rec.op.OpID != id || rec.replaying != nil {
		return false
	}
	o.deleteWitnessLocked(k, rec)
	return true
}

// deleteWitnessLocked drops rec, the record on k, and journals the drop.
// Caller holds o.witMu.
func (o *OSD) deleteWitnessLocked(k witKey, rec *witnessRecord) {
	delete(o.wits, k)
	o.witN.Add(-1)
	if o.durable {
		o.backend.Record(rec.mutation(RecWitnessDrop))
	}
}

// settleWitness notes that the witnessed forward fwd has installed here:
// its record, if this daemon holds it, clears, and its outcome enters
// the replay cache, so a copy arriving late, or a re-send reaching this
// daemon once it leads the object, finds the op applied. True when the
// record was held: its acceptance answered the client for this peer.
func (o *OSD) settleWitness(fwd *OpRequest) bool {
	o.witMu.Lock()
	defer o.witMu.Unlock()
	held := o.clearWitnessLocked(witKey{fwd.Pool, fwd.Object}, fwd.Client, fwd.OpID)
	o.replayPut(fwd.Client, fwd.OpID, OpReply{Result: OK, Data: fwd.Data, Version: fwd.NewVersion})
	return held
}

// dropWitness clears the record a primary's drop names, durably.
func (o *OSD) dropWitness(d *witnessDrop) {
	o.witMu.Lock()
	o.clearWitnessLocked(witKey{d.Pool, d.Object}, d.Client, d.OpID)
	o.witMu.Unlock()
	o.commitBackground("witness drop")
}

// answerUnwritten is a primary's answer to a witnessed op of client that
// did not mutate (rule 1): every peer drops its record first. The
// outcome enters the replay cache either way, so a record that a peer
// kept resolves to it (rule 4); the client, whose op a takeover could
// still replay, is told EIO.
func (o *OSD) answerUnwritten(ctx context.Context, client wire.Addr, req *OpRequest, peers []int, reply OpReply) OpReply {
	o.replayPut(client, req.OpID, reply)
	msg := &witnessDrop{Pool: req.Pool, Object: req.Object, Client: client, OpID: req.OpID}
	done := make(chan bool, len(peers))
	for _, peer := range peers {
		go func(to wire.Addr) {
			_, err := o.net.Call(ctx, o.addr, to, msg)
			done <- err == nil
		}(OSDAddr(peer))
	}
	dropped := true
	for range peers {
		dropped = <-done && dropped
	}
	if !dropped {
		return OpReply{Result: EIO, Detail: "witness record not dropped", Epoch: reply.Epoch}
	}
	return reply
}

// unsyncedLocked returns the channel closed once no witnessed mutation
// of the object awaits its fan-out (rule 2). Caller holds e.mu.
func (e *objEntry) unsyncedLocked() <-chan struct{} {
	if e.synced == nil {
		e.synced = make(chan struct{})
	}
	return e.synced
}

// witnessSynced counts one witnessed mutation of e's object out of the
// unsynced ones: its fan-out has finished.
func witnessSynced(e *objEntry) {
	e.mu.Lock()
	e.unsynced--
	if e.unsynced == 0 && e.synced != nil {
		close(e.synced)
		e.synced = nil
	}
	e.mu.Unlock()
}

// leads reports whether this daemon is the primary of pool/object in v.
func (o *OSD) leads(v *mapView, pool, object string) bool {
	acting := v.actingOf(pool, object)
	return len(acting) > 0 && acting[0] == o.cfg.ID
}

// HoldsWitness reports whether this daemon holds a witness record on
// pool/object (fault-injection harnesses time a crash by it).
func (o *OSD) HoldsWitness(pool, object string) bool {
	o.witMu.Lock()
	defer o.witMu.Unlock()
	return o.wits[witKey{pool, object}] != nil
}

// awaitWitnesses holds an op on object, in placement group id, until
// what this daemon owes the object as its new primary is done (rule 3):
// the replay of the group's records, if it has just come to lead it,
// and of its own record on the object. False when ctx ended first: the
// op must not be served ahead of the replay.
func (o *OSD) awaitWitnesses(ctx context.Context, id PGID, object string) bool {
	o.witMu.Lock()
	gate := o.gates[id]
	o.witMu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return false
		}
	}
	return o.replayWitness(ctx, id.Pool, object)
}

// gatePromotions opens a gate on each placement group with replicas
// that this daemon leads in v but another daemon led in old, and
// returns them: the group's ops wait until recoverPGs has replayed its
// records.
func (o *OSD) gatePromotions(old, v *mapView) []PGID {
	var led []PGID
	for name, pv := range v.pools {
		opv := old.pools[name]
		if opv == nil {
			continue
		}
		for pg := 0; pg < pv.info.PGNum && pg < opv.info.PGNum; pg++ {
			acting, was := pv.actingFor(pg), opv.actingFor(pg)
			if len(acting) > 1 && acting[0] == o.cfg.ID && len(was) > 0 && was[0] != o.cfg.ID {
				led = append(led, PGID{Pool: name, PG: pg})
			}
		}
	}
	if len(led) == 0 {
		return nil
	}
	o.witMu.Lock()
	for _, id := range led {
		if o.gates[id] == nil {
			o.gates[id] = make(chan struct{})
			o.gateN.Add(1)
		}
	}
	o.witMu.Unlock()
	return led
}

// recoverPGs replays the records on placement groups pgs, which this
// daemon has just come to lead in v: its own, and those its peers hold,
// each once (the replay cache dedups an op two peers witnessed). Then it
// opens their gates. A peer that cannot be reached contributes nothing.
func (o *OSD) recoverPGs(ctx context.Context, v *mapView, pgs []PGID) {
	peers := make(map[int]bool)
	for _, id := range pgs {
		for _, peer := range v.actingFor(id)[1:] {
			peers[peer] = true
		}
	}
	collected := make(chan []OpRequest, len(peers))
	for peer := range peers {
		go func(to wire.Addr) {
			var ops []OpRequest
			if resp, err := o.net.Call(ctx, o.addr, to, &witnessCollect{PGs: pgs}); err == nil {
				ops, _ = resp.([]OpRequest)
			}
			collected <- ops
		}(OSDAddr(peer))
	}
	var own []witKey
	o.witMu.Lock()
	for k := range o.wits {
		if slices.Contains(pgs, v.pgOf(k)) {
			own = append(own, k)
		}
	}
	o.witMu.Unlock()
	for _, k := range own {
		o.replayWitness(ctx, k.pool, k.object)
	}
	for range peers {
		for _, op := range <-collected {
			o.replayOp(ctx, v, op)
		}
	}
	o.openGates(pgs)
}

// collectWitnesses answers a new primary's witnessCollect with the ops
// of the records held on its placement groups.
func (o *OSD) collectWitnesses(c *witnessCollect) []OpRequest {
	v := o.view.Load()
	o.witMu.Lock()
	defer o.witMu.Unlock()
	var ops []OpRequest
	for k, rec := range o.wits {
		if slices.Contains(c.PGs, v.pgOf(k)) {
			ops = append(ops, rec.op)
		}
	}
	return ops
}

// replayOp runs a witnessed op as its client sent it, as a primary op
// under the client's address and OpID, when this daemon leads its object
// in v and the replay cache does not show it applied here already.
func (o *OSD) replayOp(ctx context.Context, v *mapView, op OpRequest) {
	pv := v.pools[op.Pool]
	if pv == nil {
		return
	}
	if _, applied := o.replayGet(op.Client, op.OpID); applied {
		return
	}
	pgnum := PGForObject(op.Object, pv.info.PGNum)
	acting := pv.actingFor(pgnum)
	if len(acting) == 0 || acting[0] != o.cfg.ID {
		return
	}
	op.Epoch, op.Replica = v.m.Epoch, false
	if _, later := o.primaryStep(ctx, op.Client, &op, o.getPG(PGID{Pool: op.Pool, PG: pgnum}), acting, pv, v.m); later != nil {
		later.RunLater(ctx)
	}
}

// replayWitness replays the record on pool/object when this daemon holds
// one and leads the object (rule 3), and waits for a replay already
// under way; false when ctx ended before that one did. The replay is the
// op its client sent, run as a primary op under the client's address and
// OpID — unless the replay cache shows the op applied here already.
func (o *OSD) replayWitness(ctx context.Context, pool, object string) bool {
	k := witKey{pool, object}
	o.witMu.Lock()
	rec := o.wits[k]
	if rec == nil {
		o.witMu.Unlock()
		return true
	}
	if ch := rec.replaying; ch != nil {
		o.witMu.Unlock()
		select {
		case <-ch:
			return true
		case <-ctx.Done():
			return false
		}
	}
	v := o.view.Load()
	if !o.leads(v, pool, object) {
		o.witMu.Unlock()
		return true
	}
	done := make(chan struct{})
	rec.replaying = done
	o.witMu.Unlock()

	o.replayOp(ctx, v, rec.op)
	o.witMu.Lock()
	rec.replaying = nil
	o.deleteWitnessLocked(k, rec)
	o.witMu.Unlock()
	close(done)
	return true
}

// rewitness applies a newly installed map to the records: a record whose
// object no longer has this daemon in its acting set is dropped, and the
// placement groups promoted (gatePromotions) are recovered. A record on
// another object this daemon now leads is replayed when an op reaches
// the object or when it falls due (witnessLoop).
func (o *OSD) rewitness(v *mapView, promoted []PGID) {
	if o.witN.Load() > 0 {
		o.witMu.Lock()
		for k, rec := range o.wits {
			if rec.replaying == nil && !slices.Contains(v.actingOf(k.pool, k.object), o.cfg.ID) {
				o.deleteWitnessLocked(k, rec)
			}
		}
		o.witMu.Unlock()
	}
	if len(promoted) == 0 {
		return
	}
	if !o.track() {
		o.openGates(promoted)
		return
	}
	o.lifeMu.Lock()
	stop := o.stopCh
	o.lifeMu.Unlock()
	go func() {
		defer o.wg.Done()
		ctx, cancel := stopctx.WithTimeout(stop, 10*time.Second)
		defer cancel()
		o.recoverPGs(ctx, v, promoted)
	}()
}

// openGates lets the ops on placement groups pgs through.
func (o *OSD) openGates(pgs []PGID) {
	o.witMu.Lock()
	defer o.witMu.Unlock()
	for _, id := range pgs {
		if gate := o.gates[id]; gate != nil {
			close(gate)
			delete(o.gates, id)
			o.gateN.Add(-1)
		}
	}
}

// witnessLoop settles, every half ackWait, the records that no forward
// or drop has cleared within ackWait: each is replayed if this daemon
// now leads its object, and resolved with the primary otherwise.
func (o *OSD) witnessLoop(stop chan struct{}) {
	defer o.wg.Done()
	ticker := time.NewTicker(ackWait / 2)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if o.witN.Load() == 0 {
			continue
		}
		o.witMu.Lock()
		var due []*witnessRecord
		for _, rec := range o.wits {
			if rec.replaying == nil && time.Since(rec.at) >= ackWait {
				due = append(due, rec)
			}
		}
		o.witMu.Unlock()
		for _, rec := range due {
			ctx, cancel := stopctx.WithTimeout(stop, time.Second)
			o.resolveWitness(ctx, rec)
			cancel()
		}
	}
}

// resolveWitness settles one overdue record (rule 4). The primary serves
// it as the op its client sent: a replay-cache hit when the op reached
// it, and its one application otherwise, whose forward reaches this
// daemon too. Any answer but a stale map clears the record.
func (o *OSD) resolveWitness(ctx context.Context, rec *witnessRecord) {
	v := o.view.Load()
	if o.leads(v, rec.op.Pool, rec.op.Object) {
		o.replayWitness(ctx, rec.op.Pool, rec.op.Object)
		return
	}
	acting := v.actingOf(rec.op.Pool, rec.op.Object)
	if len(acting) == 0 {
		return
	}
	res := witnessResolve(rec.op)
	res.Epoch = v.m.Epoch
	resp, err := o.net.Call(ctx, o.addr, OSDAddr(acting[0]), &res)
	if rep, ok := resp.(OpReply); err != nil || !ok || rep.Result == EMapStale {
		return
	}
	o.witMu.Lock()
	o.clearWitnessLocked(witKey{rec.op.Pool, rec.op.Object}, rec.op.Client, rec.op.OpID)
	o.witMu.Unlock()
	o.commitBackground("witness resolve")
}

// restoreWitness replays one journaled record event (rule 5).
func (o *OSD) restoreWitness(mut Mutation) {
	k := witKey{mut.Pool, mut.Object}
	o.witMu.Lock()
	defer o.witMu.Unlock()
	held := o.wits[k]
	switch {
	case mut.Kind == RecWitness && held == nil:
		o.wits[k] = &witnessRecord{op: *mut.Op, pg: mut.PG, at: time.Now()}
		o.witN.Add(1)
	case mut.Kind == RecWitnessDrop && held != nil && held.op.Client == mut.Op.Client && held.op.OpID == mut.Op.OpID:
		delete(o.wits, k)
		o.witN.Add(-1)
	}
}

// witnessMutations is every record held, as a checkpoint carries them.
func (o *OSD) witnessMutations() []Mutation {
	o.witMu.Lock()
	defer o.witMu.Unlock()
	muts := make([]Mutation, 0, len(o.wits))
	for _, rec := range o.wits {
		op := rec.op
		muts = append(muts, Mutation{Kind: RecWitness, Pool: op.Pool, PG: rec.pg, Object: op.Object, Op: &op})
	}
	return muts
}
