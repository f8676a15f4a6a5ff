package rados

import (
	"context"
	"fmt"
	"time"
)

// This file is the recovery half of the durable backend (backend.go):
// startup replay of the journal into the in-memory index, the
// reconciliation pass that re-derives state the crash destroyed, and
// the checkpoint writer that bounds replay time.

// ReplayReport summarizes one startup replay plus reconciliation.
type ReplayReport struct {
	// CheckpointRecords/Records/Skipped/TornBytes mirror
	// Backend.ReplayStats: snapshot mutations restored, journal
	// mutations replayed past the checkpoint, undecodable records
	// dropped, and torn-tail bytes truncated.
	CheckpointRecords int
	Records           int
	Skipped           int
	TornBytes         int64
	// ManifestsRequeued counts live dedup manifests whose block
	// references were re-derived by reconciliation (the crash lost the
	// in-memory ref-delta queue).
	ManifestsRequeued int
	// RefDeltasQueued counts the individual increfs those manifests
	// re-enqueued.
	RefDeltasQueued int
	// OrphanBlocks counts replayed blocks holding no reference-set
	// entries at all — reclaim candidates the GC sweep will confirm.
	OrphanBlocks int
}

// ReplayReport returns the report of this daemon's last startup replay
// (zero for a memory-backed or never-crashed daemon).
func (o *OSD) ReplayReport() ReplayReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.replayReport
}

// Crash hard-kills the daemon: the fabric endpoint goes away like Stop,
// but the backend is abandoned mid-write — buffered journal appends are
// dropped and the log tail is torn, exactly what kill -9 leaves on
// disk. The process-local state (ref-delta queue, replay cache) dies
// with it. Recover by building a fresh OSD over the same backend
// directory (core.Cluster.RebuildOSD), not by restarting this object.
func (o *OSD) Crash() {
	o.Stop()
	o.backend.Abandon()
}

// restore rebuilds the in-memory index from the durable backend and
// runs reconciliation. Called from Start before the daemon listens, so
// no op or backfill can interleave with replay.
func (o *OSD) restore() error {
	stats, err := o.backend.Replay(o.applyMutation)
	if err != nil {
		return err
	}
	report := ReplayReport{
		CheckpointRecords: stats.CheckpointRecords,
		Records:           stats.Records,
		Skipped:           stats.Skipped,
		TornBytes:         stats.TornBytes,
	}
	if !o.cfg.SkipReconcileOnReplay {
		o.reconcile(&report)
	}
	o.mu.Lock()
	o.replayReport = report
	o.mu.Unlock()
	return nil
}

// applyMutation replays one journaled mutation into the index. Replay
// is version-guarded: a mutation at or behind the slot's rebuilt
// version is a duplicate (checkpoint overlap, a record superseded by a
// later snapshot) and is dropped, which is what makes replay idempotent
// and order-tolerant across the checkpoint boundary. Force snapshots
// (scrub's authoritative backfill) apply unconditionally, mirroring the
// live path. The decoder copied every value out of its frame, so the
// object adopts them as they are.
func (o *OSD) applyMutation(mut Mutation) {
	if mut.Kind == RecWitness || mut.Kind == RecWitnessDrop {
		o.restoreWitness(mut)
		return
	}
	p := o.getPG(PGID{Pool: mut.Pool, PG: mut.PG})
	e := p.entry(mut.Object)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !(mut.Kind == RecSnapshot && mut.Force) && mut.Version <= e.ver {
		return
	}
	switch mut.Kind {
	case RecCreate:
		e.materializeLocked(mut.Object)
	case RecData:
		e.materializeLocked(mut.Object).Data = mut.Data
	case RecRemove, RecPurge:
		// A purge replays as a tombstone, not a slot delete: dropping
		// the slot here would need p.mu under e.mu (inverting entry()'s
		// order), and a tombstone at the purge version is just as final.
		e.obj = nil
	case RecOmapSet:
		obj := e.materializeLocked(mut.Object)
		for k, v := range mut.KV {
			obj.Omap[k] = v
		}
	case RecOmapDel:
		if e.obj != nil {
			for _, k := range mut.Keys {
				delete(e.obj.Omap, k)
			}
		}
	case RecXattrSet:
		e.materializeLocked(mut.Object).Xattrs[mut.Key] = mut.Data
	case RecSnapshot:
		e.obj = mut.Obj
	case RecTxn:
		// Final values, like every other record: replaying one over a
		// state that already holds them changes nothing.
		e.materializeLocked(mut.Object).applyTxn(mut.Txn)
	case RecVerPin:
		// Version-only advance; state untouched.
	}
	e.ver = mut.Version
	if e.obj != nil {
		e.obj.Version = e.ver
	}
	// A freshly replayed slot gets a fresh grace clock: the journal does
	// not persist touch times, and an immediate zero-grace reclaim of a
	// block some in-flight manifest references would repeat exactly the
	// race the clock exists to close.
	e.touch = time.Now()
	e.signalLocked()
}

// reconcile runs after replay and re-derives the state a crash
// destroys but the journal does not carry: the in-memory ref-delta
// queue. Every live manifest's block references are re-enqueued as
// increfs anchored at the manifest's replayed version — duplicates of
// deltas that were already delivered collapse in the version-anchored
// refsets, stale extras are healed by the RefScrub fixed point, and
// lost ones are restored. Blocks with an empty refset are counted as
// orphans (the GC sweep confirms and reclaims them after grace).
func (o *OSD) reconcile(report *ReplayReport) {
	for id, p := range *o.pgs.Load() {
		for name, e := range p.slots() {
			e.mu.Lock()
			if e.obj == nil {
				e.mu.Unlock()
				continue
			}
			if IsBlockName(name) {
				if blockRefs(e.obj) == 0 {
					report.OrphanBlocks++
				}
				e.mu.Unlock()
				continue
			}
			blocks := manifestBlockSet(e.obj.Data)
			ver := e.obj.Version
			e.mu.Unlock()
			if len(blocks) == 0 {
				continue
			}
			o.queueRefDeltas(id.Pool, name, ver, nil, blocks)
			report.ManifestsRequeued++
			report.RefDeltasQueued += len(blocks)
		}
	}
}

// CheckpointNow snapshots the daemon's full object state into the
// backend and truncates the journal behind it. Safe to run against
// live traffic: each slot is snapshotted under its own lock, and
// records racing the collection stay in the journal, replaying
// idempotently over the snapshot (version guard).
func (o *OSD) CheckpointNow() error {
	if !o.durable {
		return nil
	}
	return o.backend.Checkpoint(func() []Mutation {
		var muts []Mutation
		for id, p := range *o.pgs.Load() {
			for name, e := range p.slots() {
				e.mu.Lock()
				switch {
				case e.obj != nil:
					// Clone: the snapshot is encoded after e.mu drops.
					muts = append(muts, Mutation{Kind: RecSnapshot, Pool: id.Pool, PG: id.PG,
						Object: name, Version: e.ver, Obj: e.obj.clone()})
				case e.ver > 0:
					muts = append(muts, Mutation{Kind: RecRemove, Pool: id.Pool, PG: id.PG,
						Object: name, Version: e.ver})
				}
				e.mu.Unlock()
			}
		}
		return append(muts, o.witnessMutations()...)
	})
}

// checkpointLoop compacts the journal whenever it outgrows the
// backend's threshold.
func (o *OSD) checkpointLoop(stop chan struct{}) {
	defer o.wg.Done()
	ticker := time.NewTicker(o.cfg.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if !o.backend.NeedCheckpoint() {
			continue
		}
		if err := o.CheckpointNow(); err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			o.monc.Log(ctx, "warn", fmt.Sprintf("osd.%d: checkpoint: %v", o.cfg.ID, err)) //nolint:errcheck
			cancel()
		}
	}
}
