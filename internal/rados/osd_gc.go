package rados

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/retry"
	"repro/internal/types"
)

// Deferred dedup GC. Block liveness has one authority, the manifests:
// no reference state is stored on a block. A sweep on a block primary
// selects the blocks it leads that sat untouched for the grace window,
// asks every primary of the pool which of them a live manifest cites
// (the census, one message per primary), refreshes the touch of the
// cited ones, so a referenced block is censused at most once per grace
// window, and reclaims the rest through the ordinary op path, so the
// removal replicates and scrub stays convergent. OpBlockReclaim re-makes
// the touch decision under the slot lock: a stat or a write since the
// selection cancels it.
//
// The census is safe by ordering. A candidate sat untouched for grace
// before the census began, and WriteDeduped stats or writes every block
// before it writes the manifest, within a window shorter than grace
// (OSDConfig.GCGrace). So any manifest citing a candidate was applied at
// its primary before the census asked. A census trusts a placement
// group's primary as a client read does; a group whose primary does not
// answer, answers at another epoch, or is still replaying its witness
// records after a promotion (gates) leaves the sweep reclaiming nothing.

// censusReq asks a primary which of Names a live manifest cites in the
// placement groups of Pool it leads at Epoch. The answer is the cited
// names; a daemon at another epoch, or gating one of the pool's groups,
// answers an error.
type censusReq struct {
	Pool  string
	Epoch types.Epoch
	Names []string
}

// QueuedRefDeltas reports 0. Block references are no longer queued (the
// census reads them off the manifests); the method stays because the
// benchmark's GC drain loop adds it to its work count.
func (o *OSD) QueuedRefDeltas() int { return 0 }

func (o *OSD) gcLoop(stop chan struct{}) {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		o.SweepBlocks(o.cfg.GCGrace)
	}
}

// SweepBlocks runs one GC pass over the blocks this daemon leads and
// returns the blocks it reclaimed; delivered is always 0 (nothing is
// queued to deliver) and stays in the signature for the benchmark's
// drain loop. Harnesses sweep until nothing more is reclaimed. A grace
// of zero reclaims every uncited block at once: only safe on a quiesced
// cluster, since grace is what covers the stat-then-manifest window of
// an in-flight WriteDeduped.
func (o *OSD) SweepBlocks(grace time.Duration) (delivered, reclaimed int) {
	v := o.view.Load()
	for pool, cands := range o.reclaimCandidates(v, grace) {
		names := make([]string, len(cands))
		for i, c := range cands {
			names[i] = c.name
		}
		cited, ok := o.census(v, pool, names)
		if !ok {
			continue
		}
		for _, c := range cands {
			if cited[c.name] {
				c.e.mu.Lock()
				c.e.touch = time.Now()
				c.e.mu.Unlock()
				continue
			}
			rep, err := o.sendBlockOp(OpRequest{
				Pool: pool, Object: c.name, Op: OpBlockReclaim,
				Count: int64(grace), OpID: o.gcSeq.Add(1),
			})
			// ECANCELED is the guard winning a race (a stat or write
			// touched the block since the selection): correct, not an
			// error. ENOENT means someone else already reclaimed it.
			if err == nil && rep.Result == OK {
				reclaimed++
			}
		}
	}
	return 0, reclaimed
}

// reclaimCand is a block that qualified at selection; the census and
// then OpBlockReclaim, under the slot lock, make the decision.
type reclaimCand struct {
	e    *objEntry
	name string
}

// reclaimCandidates selects, per pool, the blocks this daemon leads in v
// whose last touch is older than grace. The touch clock is primary-local
// (deliberately unreplicated), so after a failover the new primary's
// clock may predate a client's OpBlockStat on the old one; a
// nonzero-grace selection therefore also requires that *this* primary
// already saw the block grace-expired on an earlier sweep at the current
// map epoch — the first qualifying observation only marks the slot,
// opening a fresh grace period of at least one sweep interval after any
// primary change. A zero grace skips the two-sweep rule: it is the
// quiesced-cluster mode harnesses drive explicitly, where no write can
// be in flight.
func (o *OSD) reclaimCandidates(v *mapView, grace time.Duration) map[string][]reclaimCand {
	epoch := v.m.Epoch
	sweep := o.gcSweepN.Add(1)
	out := make(map[string][]reclaimCand)
	for _, id := range o.heldPGs() {
		if acting := v.actingFor(id); len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		for _, e := range o.getPG(id).entries() {
			e.mu.Lock()
			switch {
			case e.obj == nil || !IsBlockName(e.obj.Name):
			case time.Since(e.touch) < grace:
				e.gcSweep = 0 // disqualified; any future reclaim starts over
			case grace == 0 || (e.gcEpoch == epoch && e.gcSweep > 0 && e.gcSweep < sweep):
				out[id.Pool] = append(out[id.Pool], reclaimCand{e: e, name: e.obj.Name})
			default:
				e.gcSweep, e.gcEpoch = sweep, epoch
			}
			e.mu.Unlock()
		}
	}
	return out
}

// census asks every primary of pool's placement groups in v which of
// names a live manifest cites, answering for its own groups in-process,
// and returns the cited names. ok is false when some group has no
// primary or its primary gave no answer at v's epoch: then nothing may
// be reclaimed.
func (o *OSD) census(v *mapView, pool string, names []string) (cited map[string]bool, ok bool) {
	pv := v.pools[pool]
	if pv == nil {
		return nil, false
	}
	primaries := make(map[int]bool)
	for pg := 0; pg < pv.info.PGNum; pg++ {
		acting := pv.actingFor(pg)
		if len(acting) == 0 {
			return nil, false
		}
		primaries[acting[0]] = true
	}
	req := &censusReq{Pool: pool, Epoch: v.m.Epoch, Names: names}
	cited = make(map[string]bool)
	for id := range primaries {
		var got []string
		var err error
		if id == o.cfg.ID {
			got, err = o.answerCensus(req)
		} else {
			got, err = o.askCensus(id, req)
		}
		if err != nil {
			return nil, false
		}
		for _, name := range got {
			cited[name] = true
		}
	}
	return cited, true
}

// askCensus sends req to the OSD id and returns its answer.
func (o *OSD) askCensus(id int, req *censusReq) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := o.net.Call(ctx, o.addr, OSDAddr(id), req)
	if err != nil {
		return nil, err
	}
	cited, ok := resp.([]string)
	if !ok {
		return nil, fmt.Errorf("osd.%d: census answer %T", o.cfg.ID, resp)
	}
	return cited, nil
}

// answerCensus returns the names of req a live manifest cites in the
// placement groups of req.Pool this daemon leads at req.Epoch.
func (o *OSD) answerCensus(req *censusReq) ([]string, error) {
	v := o.view.Load()
	if v.m.Epoch != req.Epoch {
		return nil, fmt.Errorf("osd.%d: census at epoch %d, this daemon is at %d", o.cfg.ID, req.Epoch, v.m.Epoch)
	}
	if o.gating(req.Pool) {
		return nil, fmt.Errorf("osd.%d: census of %s while a promoted group replays", o.cfg.ID, req.Pool)
	}
	want := make(map[string]bool, len(req.Names))
	for _, name := range req.Names {
		want[name] = true
	}
	var cited []string
	o.scanLed(v, req.Pool, func(obj *Object) {
		if m, isManifest, err := DecodeManifest(obj.Data); isManifest && err == nil {
			for name := range m.blockNames() {
				if want[name] {
					cited = append(cited, name)
					delete(want, name)
				}
			}
		}
	})
	return cited, nil
}

// gating reports whether this daemon is still replaying the witness
// records of a placement group of pool it was just promoted to lead.
func (o *OSD) gating(pool string) bool {
	if o.gateN.Load() == 0 {
		return false
	}
	o.witMu.Lock()
	defer o.witMu.Unlock()
	for id := range o.gates {
		if id.Pool == pool {
			return true
		}
	}
	return false
}

// scanLed calls fn, under the slot lock, on every live object of the
// placement groups of pool this daemon leads in v.
func (o *OSD) scanLed(v *mapView, pool string, fn func(obj *Object)) {
	for _, id := range o.heldPGs() {
		if acting := v.actingFor(id); id.Pool != pool || len(acting) == 0 || acting[0] != o.cfg.ID {
			continue
		}
		for _, e := range o.getPG(id).entries() {
			e.mu.Lock()
			if e.obj != nil {
				fn(e.obj)
			}
			e.mu.Unlock()
		}
	}
}

// ledBlocks returns the names of the blocks of pool this daemon leads in v.
func (o *OSD) ledBlocks(v *mapView, pool string) []string {
	var names []string
	o.scanLed(v, pool, func(obj *Object) {
		if IsBlockName(obj.Name) {
			names = append(names, obj.Name)
		}
	})
	return names
}

// sendBlockOp routes one block op to the block's primary with the same
// stale-map retry discipline as the client library — except the request
// arrives stamped with its OpID — and waits for its replicas as a client
// does (acks.go). A self-addressed op short-circuits into
// handleOp directly rather than crossing the fabric. Stop ends its wait
// for the replicas: a stopped daemon's endpoint hears no acks, and a
// block whose reclaim it abandons is selected again by a later sweep.
func (o *OSD) sendBlockOp(req OpRequest) (_ OpReply, err error) {
	const maxRetries = 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	o.lifeMu.Lock()
	stop := o.stopCh
	o.lifeMu.Unlock()
	o.acks.expect(req.OpID)
	defer func() {
		if err != nil {
			o.acks.forget(req.OpID)
		}
	}()
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
		if err != nil || rep.Result == EMapStale {
			// Peer unreachable or placement moved: refresh the map and
			// retry routing.
			last = rep
			if fresh, merr := o.monc.GetOSDMap(ctx); merr == nil {
				o.updateMap(fresh, noPeer)
			}
			continue
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
// pool, and how many of them no live manifest cites, as a census (one
// that refreshes no touch) reads them; tests and benches use it to watch
// reclamation make progress. A census some primary does not answer
// counts every block as cited.
func (o *OSD) DedupBlockCount(pool string) (blocks, unreferenced int) {
	v := o.view.Load()
	names := o.ledBlocks(v, pool)
	if len(names) == 0 {
		return 0, 0
	}
	cited, ok := o.census(v, pool, names)
	if !ok {
		return len(names), 0
	}
	return len(names), len(names) - len(cited)
}
