package rados

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/retry"
)

// Deferred dedup GC. The manifest's primary is the only party that
// mutates block references: applying a manifest write or remove (see
// applyOp) enqueues ref deltas for the symmetric difference of the old
// and new block sets, and this sweeper delivers them to the blocks'
// primaries later, outside every lock. Each delta names its manifest
// and the manifest version that produced it, so application is
// idempotent at the block itself (see blockRefApply) — resends, the
// same diff enqueued by two primaries across a failover, and late
// deltas superseded by a newer transition all collapse. A delta that
// cannot be delivered this sweep stays queued for the next; the OpID
// (stamped once at enqueue) additionally short-circuits resends through
// the receiver's replay cache. The sweep then reclaims blocks this
// daemon leads whose reference count is zero and whose last touch is
// older than the grace window; the reclaim travels through the ordinary
// op path, so the removal replicates and scrub stays convergent.

// refDelta is one queued reference adjustment.
type refDelta struct {
	pool     string
	block    string
	manifest string // referencing manifest object
	ver      uint64 // manifest version whose transition produced this delta
	present  bool   // true: reference added; false: reference dropped
	opID     uint64 // stamped at enqueue; constant across delivery retries
}

// queueRefDeltas diffs a manifest object's old and new unique block
// sets and enqueues the resulting adds/drops, anchored to the manifest
// version the transition stamped. Either set may be nil (flat data,
// create, remove). Called from applyOp under the manifest's slot lock —
// the queue append is the only work done here; no RPC leaves this
// function.
func (o *OSD) queueRefDeltas(pool, manifest string, ver uint64, oldSet, newSet map[string]bool) {
	if len(oldSet) == 0 && len(newSet) == 0 {
		return
	}
	var deltas []refDelta
	for name := range newSet {
		if !oldSet[name] {
			deltas = append(deltas, refDelta{
				pool: pool, block: name, manifest: manifest, ver: ver,
				present: true, opID: o.gcSeq.Add(1),
			})
		}
	}
	for name := range oldSet {
		if !newSet[name] {
			deltas = append(deltas, refDelta{
				pool: pool, block: name, manifest: manifest, ver: ver,
				present: false, opID: o.gcSeq.Add(1),
			})
		}
	}
	if len(deltas) == 0 {
		return
	}
	o.gcMu.Lock()
	o.refQ = append(o.refQ, deltas...)
	o.gcMu.Unlock()
}

// QueuedRefDeltas reports the backlog (for quiescence checks in tests
// and the chaos harness).
func (o *OSD) QueuedRefDeltas() int {
	o.gcMu.Lock()
	defer o.gcMu.Unlock()
	return len(o.refQ)
}

func (o *OSD) gcLoop(stop chan struct{}) {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.GCInterval)
	defer ticker.Stop()
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		o.SweepBlocks(o.cfg.GCGrace)
		// Periodically run the dedup scrub too, so references orphaned
		// by an abandoned history (failover double-applies the sweep's
		// anchors cannot expire) heal without operator action.
		if tick%8 == 7 {
			for pool := range o.view.Load().pools {
				o.RefScrub(pool)
			}
		}
	}
}

// SweepBlocks runs one GC pass: deliver every queued ref delta, then
// reclaim unreferenced blocks older than grace in the PGs this daemon
// leads. Returns the deltas delivered and blocks reclaimed; harnesses
// loop until both are zero (with the queue also drained) to reach
// dedup quiescence. A grace of zero reclaims every unreferenced block
// immediately — only safe on a quiesced cluster, since grace is what
// protects the stat-then-manifest window of an in-flight WriteDeduped.
func (o *OSD) SweepBlocks(grace time.Duration) (delivered, reclaimed int) {
	o.gcMu.Lock()
	pending := o.refQ
	o.refQ = nil
	o.gcMu.Unlock()

	var requeue []refDelta
	for _, d := range pending {
		op := OpBlockIncref
		if !d.present {
			op = OpBlockDecref
		}
		rep, err := o.sendBlockOp(OpRequest{
			Pool: d.pool, Object: d.block, Op: op,
			Key: d.manifest, Count: int64(d.ver), OpID: d.opID,
		})
		if err != nil {
			// Undeliverable this sweep (primary down, map churn): the
			// delta — OpID and all — waits for the next one. Delivery
			// order is irrelevant: the version anchor decides.
			requeue = append(requeue, d)
			continue
		}
		if rep.Result != OK && rep.Result != ENOENT {
			requeue = append(requeue, d)
			continue
		}
		// ENOENT means the block is gone: a decref against a reclaimed
		// block is a no-op, and an incref against one can only follow a
		// manifest that outlived its blocks — scrub-visible corruption
		// the audit reports; retrying would not repair it.
		delivered++
	}
	if len(requeue) > 0 {
		o.gcMu.Lock()
		o.refQ = append(requeue, o.refQ...)
		o.gcMu.Unlock()
	}

	for _, cand := range o.reclaimCandidates(grace) {
		rep, err := o.sendBlockOp(OpRequest{
			Pool: cand.pool, Object: cand.block, Op: OpBlockReclaim,
			Count: int64(grace), OpID: o.gcSeq.Add(1),
		})
		// ECANCELED is the guard winning a race (a stat or incref
		// touched the block between scan and reclaim) — correct, not
		// an error. ENOENT means someone else already reclaimed it.
		if err == nil && rep.Result == OK {
			reclaimed++
		}
	}
	return delivered, reclaimed
}

// reclaimCand is a block that looked reclaimable during the scan; the
// decision is re-made under the slot lock by OpBlockReclaim.
type reclaimCand struct {
	pool  string
	block string
}

// reclaimCandidates scans the PGs this daemon leads for blocks with
// zero references whose last touch is older than grace. The touch
// clock is primary-local (deliberately unreplicated), so after a
// failover the new primary's clock may predate a client's OpBlockStat
// on the old one; a nonzero-grace reclaim therefore also requires that
// *this* primary already saw the block unreferenced on an earlier
// sweep at the current map epoch — the first qualifying observation
// only marks the slot, opening a fresh grace period of at least one
// sweep interval after any primary change. A zero grace skips the
// two-sweep rule: it is the quiesced-cluster mode harnesses drive
// explicitly, where no write can be in flight.
func (o *OSD) reclaimCandidates(grace time.Duration) []reclaimCand {
	v := o.view.Load()
	epoch := v.m.Epoch
	sweep := o.gcSweepN.Add(1)

	var out []reclaimCand
	for _, id := range o.heldPGs() {
		acting := v.actingFor(id)
		if len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		for _, e := range o.getPG(id).entries() {
			e.mu.Lock()
			if e.obj != nil && IsBlockName(e.obj.Name) {
				switch {
				case blockRefs(e.obj) != 0 || time.Since(e.touch) < grace:
					e.gcSweep = 0 // disqualified; any future reclaim starts over
				case grace == 0 || (e.gcEpoch == epoch && e.gcSweep > 0 && e.gcSweep < sweep):
					out = append(out, reclaimCand{pool: id.Pool, block: e.obj.Name})
				default:
					e.gcSweep, e.gcEpoch = sweep, epoch
				}
			}
			e.mu.Unlock()
		}
	}
	return out
}

// RefScrub reconciles the reference sets of the blocks this daemon
// leads against the manifests they cite — the dedup arm of scrub.
// Version anchors make delta delivery idempotent, but they cannot kill
// an entry from an abandoned history: a primary that applied a manifest
// write at version v, queued its diff, and then lost that version to a
// failover re-apply of a *different* write leaves a reference the
// surviving history never supersedes. RefScrub reads each cited
// manifest, and where the manifest's current version is newer than the
// entry's anchor and disagrees with it, issues a corrective delta
// anchored at the manifest's version — through the ordinary op path, so
// the repair replicates. In-flight deltas stay safe: whichever of the
// repair and the delta carries the newer anchor wins at the block.
// Returns the number of corrective deltas applied.
func (o *OSD) RefScrub(pool string) (repaired int) {
	type cited struct {
		block    string
		manifest string
		ver      uint64
		present  bool
	}
	var work []cited
	v := o.view.Load()
	for _, id := range o.heldPGs() {
		if id.Pool != pool {
			continue
		}
		acting := v.actingFor(id)
		if len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		for _, e := range o.getPG(id).entries() {
			e.mu.Lock()
			if e.obj != nil && IsBlockName(e.obj.Name) {
				for name, ent := range parseRefset(e.obj) {
					work = append(work, cited{
						block: e.obj.Name, manifest: name,
						ver: ent.ver, present: ent.present,
					})
				}
			}
			e.mu.Unlock()
		}
	}

	for _, w := range work {
		rep, err := o.sendBlockOp(OpRequest{Pool: pool, Object: w.manifest, Op: OpRead})
		if err != nil {
			continue // unverifiable this pass; the next scrub retries
		}
		var want bool
		var mver uint64
		switch rep.Result {
		case OK:
			mver = rep.Version
			want = manifestBlockSet(rep.Data)[w.block]
		case ENOENT:
			// Tombstoned (or never-written) manifest: no reply version to
			// anchor on, so anchor one past the entry — a genuinely newer
			// in-flight delta still outranks the repair.
			mver = w.ver + 1
		default:
			continue
		}
		if mver <= w.ver || want == w.present {
			continue
		}
		op := OpBlockDecref
		if want {
			op = OpBlockIncref
		}
		r2, err := o.sendBlockOp(OpRequest{
			Pool: pool, Object: w.block, Op: op,
			Key: w.manifest, Count: int64(mver), OpID: o.gcSeq.Add(1),
		})
		if err == nil && r2.Result == OK {
			repaired++
		}
	}
	return repaired
}

// sendBlockOp routes one block op to the block's primary with the same
// stale-map retry discipline as the client library — except the request
// arrives pre-stamped (the OpID must survive requeues across sweeps,
// not just resends within one call) — and, for a mutation, waits for
// its replicas as a client does (acks.go). A self-addressed op
// short-circuits into handleOp directly rather than crossing the fabric.
// Stop ends its wait for the replicas: a stopped daemon's endpoint hears
// no acks, and an op it abandons stays queued with its OpID for the next
// incarnation.
func (o *OSD) sendBlockOp(req OpRequest) (_ OpReply, err error) {
	const maxRetries = 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	o.lifeMu.Lock()
	stop := o.stopCh
	o.lifeMu.Unlock()
	if req.OpID != 0 {
		o.acks.expect(req.OpID)
		defer func() {
			if err != nil {
				o.acks.forget(req.OpID)
			}
		}()
	}
	var last OpReply
	for attempt := 0; attempt < maxRetries; attempt++ {
		if attempt > 1 {
			if !retry.Backoff(ctx, attempt-2, 2*time.Millisecond, 40*time.Millisecond) {
				return last, ctx.Err()
			}
		}
		v := o.view.Load()
		_, acting, err := v.locate(req.Pool, req.Object)
		if err != nil {
			return OpReply{}, err
		}
		req.Epoch = v.m.Epoch
		primary := acting[0]
		rep, err := o.blockOpAt(ctx, primary, &req)
		if errors.Is(err, errNotOpReply) {
			return OpReply{}, err
		}
		if err != nil {
			// Peer unreachable: refresh the map and retry routing.
			if fresh, merr := o.monc.GetOSDMap(ctx); merr == nil {
				o.updateMap(fresh, noPeer)
			}
			continue
		}
		if rep.Result == EMapStale {
			last = rep
			if fresh, merr := o.monc.GetOSDMap(ctx); merr == nil {
				o.updateMap(fresh, noPeer)
			}
			continue
		}
		if req.OpID == 0 {
			return rep, nil
		}
		return rep, o.acks.settle(ctx, stop, req.OpID, rep, func() (OpReply, error) {
			return o.blockOpAt(ctx, primary, &req)
		})
	}
	return last, fmt.Errorf("osd.%d: block op %s on %s: %w", o.cfg.ID, req.Op, req.Object, ErrRetriesExhausted)
}

// blockOpAt is one delivery of a block op to the OSD id, handled here
// when that is this daemon; a fan-out it returns runs before the reply.
func (o *OSD) blockOpAt(ctx context.Context, id int, req *OpRequest) (OpReply, error) {
	if id == o.cfg.ID {
		rep, later := o.handleOp(ctx, o.Addr(), req)
		if later != nil {
			later.RunLater(ctx)
		}
		return rep, nil
	}
	resp, err := o.net.Call(ctx, o.Addr(), OSDAddr(id), req)
	if err != nil {
		return OpReply{}, err
	}
	rep, ok := resp.(OpReply)
	if !ok {
		return OpReply{}, fmt.Errorf("osd.%d: %w %T", o.cfg.ID, errNotOpReply, resp)
	}
	return rep, nil
}

// DedupBlockCount reports how many block objects this daemon leads in
// pool, and how many of them are unreferenced (tests and benches use it
// to watch reclamation make progress).
func (o *OSD) DedupBlockCount(pool string) (blocks, unreferenced int) {
	_, bl := o.dedupCensus(pool)
	for _, refs := range bl {
		blocks++
		if refs == 0 {
			unreferenced++
		}
	}
	return blocks, unreferenced
}
