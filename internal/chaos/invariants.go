package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/zlog"
)

// The invariant checkers run after the scenario's faults heal. Each
// records a "check: ok" event or a violation; the set of checks a
// scenario runs is part of its deterministic plan.

// checkEpochsConverge waits until every OSD has caught up to the
// monitor's current map epoch — the "restarted daemon rejoins gossip
// and picks up the current map" acceptance, and the precondition for a
// safe scrub pass (a daemon scrubbing under a stale map could push
// stale authoritative copies).
func (r *run) checkEpochsConverge(ctx context.Context, monc *mon.Client) bool {
	const check = "epochs-converge"
	mctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	m, err := monc.GetOSDMap(mctx)
	cancel()
	if err != nil {
		r.fail(check, fmt.Sprintf("cannot fetch monitor map: %v", err))
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		behind := ""
		for _, o := range r.liveOSDs() {
			if o.Epoch() < m.Epoch {
				behind = fmt.Sprintf("%s at epoch %d < monitor epoch %d", o.Addr(), o.Epoch(), m.Epoch)
				break
			}
		}
		if behind == "" {
			r.pass(check)
			return true
		}
		if time.Now().After(deadline) {
			r.fail(check, behind)
			return false
		}
		pause(ctx, 10*time.Millisecond)
	}
}

// checkReplicasConverge drives synchronous scrub passes until two
// consecutive passes repair nothing: after heal and backfill, every
// replica of every placement group must hold identical data.
func (r *run) checkReplicasConverge(ctx context.Context) {
	const check = "replicas-converge"
	clean, last := 0, 0
	for round := 0; round < 80; round++ {
		repairs := 0
		for _, o := range r.liveOSDs() {
			repairs += o.ScrubNow()
		}
		last = repairs
		if repairs == 0 {
			clean++
			if clean >= 2 {
				r.pass(check)
				return
			}
		} else {
			clean = 0
		}
		pause(ctx, 20*time.Millisecond)
		if ctx.Err() != nil {
			break
		}
	}
	r.fail(check, fmt.Sprintf("scrub never reached quiescence; last pass repaired %d replicas", last))
}

// checkRadosDurable verifies every acknowledged object write: the final
// object state must be the last acked payload, or one of the payloads
// attempted after it (an attempt whose ack was lost may have landed —
// what is forbidden is regressing to anything older than the last ack).
func (r *run) checkRadosDurable(ctx context.Context, writers ...*radosWriter) {
	const check = "writes-durable"
	bad := ""
	total := 0
	for _, w := range writers {
		w.mu.Lock()
		acked := make(map[string]string, len(w.acked))
		pending := make(map[string][]string, len(w.pending))
		for k, v := range w.acked {
			acked[k] = v
		}
		for k, v := range w.pending {
			pending[k] = append([]string(nil), v...)
		}
		w.mu.Unlock()

		for _, obj := range sortedKeys(acked) {
			total++
			cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			got, err := w.rc.Read(cctx, w.pool, obj)
			cancel()
			if err != nil {
				bad = fmt.Sprintf("%s/%s: acked write unreadable: %v", w.pool, obj, err)
				break
			}
			ok := string(got) == acked[obj]
			for _, p := range pending[obj] {
				if string(got) == p {
					ok = true
				}
			}
			if !ok {
				bad = fmt.Sprintf("%s/%s = %q, want last ack %q (or a later attempt)", w.pool, obj, got, acked[obj])
				break
			}
		}
		if bad != "" {
			break
		}
	}
	if bad != "" {
		r.fail(check, bad)
		return
	}
	if total == 0 {
		r.fail(check, "workload acked no writes; scenario cannot vouch for durability")
		return
	}
	r.pass(check)
}

// checkDedupDurable verifies every acknowledged deduped write: reading
// the object back through the manifest path must reassemble the last
// acked payload, or one of the payloads attempted after it (an attempt
// whose ack was lost may have landed). A block that was wrongly
// reclaimed while a live manifest still referenced it fails here as a
// read error.
func (r *run) checkDedupDurable(ctx context.Context, writers ...*dedupWriter) {
	const check = "dedup-writes-durable"
	bad := ""
	total := 0
	for _, w := range writers {
		w.mu.Lock()
		acked := make(map[string]string, len(w.acked))
		pending := make(map[string][]string, len(w.pending))
		for k, v := range w.acked {
			acked[k] = v
		}
		for k, v := range w.pending {
			pending[k] = append([]string(nil), v...)
		}
		w.mu.Unlock()

		for _, obj := range sortedKeys(acked) {
			total++
			cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			got, err := w.rc.ReadDeduped(cctx, w.pool, obj)
			cancel()
			if err != nil {
				bad = fmt.Sprintf("%s/%s: acked deduped write unreadable: %v", w.pool, obj, err)
				break
			}
			ok := string(got) == acked[obj]
			for _, p := range pending[obj] {
				if string(got) == p {
					ok = true
				}
			}
			if !ok {
				bad = fmt.Sprintf("%s/%s reassembled %d bytes that match neither the last ack nor a later attempt", w.pool, obj, len(got))
				break
			}
		}
		if bad != "" {
			break
		}
	}
	if bad != "" {
		r.fail(check, bad)
		return
	}
	if total == 0 {
		r.fail(check, "workload acked no deduped writes; scenario cannot vouch for the manifest path")
		return
	}
	r.pass(check)
}

// checkDedupGC sweeps with zero grace until two rounds in a row reclaim
// nothing, at which point every block no manifest cites must be gone,
// and then audits the pool cluster-wide: AuditDedup must find no
// leaked, no dangling and no corrupt block.
func (r *run) checkDedupGC(ctx context.Context, pool string) {
	const check = "dedup-refs-clean"
	for round, clean := 0, 0; clean < 2; round++ {
		if round > 400 || ctx.Err() != nil {
			r.fail(check, "block reclaim never quiesced")
			return
		}
		reclaimed := 0
		for _, o := range r.cl.OSDs {
			_, rc := o.SweepBlocks(0)
			reclaimed += rc
		}
		if reclaimed == 0 {
			clean++
		} else {
			clean = 0
		}
		pause(ctx, 5*time.Millisecond)
	}
	audit := rados.AuditDedup(r.cl.OSDs, pool)
	if len(audit.Leaked)+len(audit.Dangling)+len(audit.Corrupt) > 0 {
		r.fail(check, fmt.Sprintf("audit after quiescence: %d leaked %v, %d dangling %v, %d corrupt %v",
			len(audit.Leaked), audit.Leaked, len(audit.Dangling), audit.Dangling, len(audit.Corrupt), audit.Corrupt))
		return
	}
	if audit.Manifests == 0 {
		r.fail(check, "no manifests survived; scenario cannot vouch for block liveness")
		return
	}
	r.pass(check)
}

// checkWALReplay audits the rebuilt daemon's startup report: the kill
// must have actually exercised the recovery path, or the scenario's
// pass would be vacuous. No restored records means the daemon came back
// empty-handed; no torn bytes means the abandon was not mid-write; a
// skipped record means the journal held an undecodable entry — silent
// data loss the frame CRCs exist to surface, never acceptable on a
// journal this process wrote itself.
func (r *run) checkWALReplay(rep rados.ReplayReport) {
	const check = "wal-replayed"
	switch {
	case rep.Records == 0 && rep.CheckpointRecords == 0:
		r.fail(check, "replay restored no records; the crash never exercised the journal")
	case rep.TornBytes == 0:
		r.fail(check, "no torn tail truncated; the kill was not mid-write")
	case rep.Skipped > 0:
		r.fail(check, fmt.Sprintf("%d journal records undecodable", rep.Skipped))
	default:
		r.pass(check)
	}
}

// checkZlogHistory checks the appenders' histories against the ZLog
// model: a position is write-once, and a write acknowledged at a
// position is the one every later read of it sees.
//   - No position is acknowledged twice, across all appenders.
//   - Every read issued after a position's ack returned the acked
//     payload. A read that failed in transit (a fault window) answered
//     nothing; one that found the position unwritten, filled or trimmed
//     answered wrongly.
//   - After heal, a scan of [0, Tail) finds each acked payload at its
//     acked position, and no payload at two positions; every payload it
//     finds is one an appender attempted, acked or failed. Tail is the
//     sequencer's, or past the highest acked position.
//
// Position order is not compared against ack order: CORFU's sequencer is
// an optimization, and after a recovery it may legally hand out earlier
// unwritten holes — write-once storage is what keeps acked entries
// immovable.
func (r *run) checkZlogHistory(ctx context.Context, l *zlog.Log, appenders ...*zlogAppender) {
	const check = "zlog-history"
	var (
		acked []appendRec
		reads []readRec
	)
	attempted := make(map[string]bool)
	for _, a := range appenders {
		a.mu.Lock()
		acked = append(acked, a.acked...)
		reads = append(reads, a.reads...)
		for _, rec := range a.acked {
			attempted[rec.payload] = true
		}
		for _, payload := range a.failed {
			attempted[payload] = true
		}
		a.mu.Unlock()
	}
	if len(acked) == 0 {
		r.fail(check, "workload acked no appends; scenario cannot vouch for the log")
		return
	}
	ackedAt := make(map[uint64]string, len(acked))
	for _, rec := range acked {
		if prev, dup := ackedAt[rec.pos]; dup {
			r.fail(check, fmt.Sprintf("position %d acked twice (%q and %q)", rec.pos, prev, rec.payload))
			return
		}
		ackedAt[rec.pos] = rec.payload
	}
	for _, rd := range reads {
		if answered := rd.err == nil || entryState(rd.err); answered && (rd.err != nil || rd.got != rd.payload) {
			r.fail(check, fmt.Sprintf("read of position %d after its ack returned %q (%v), want acked %q",
				rd.pos, rd.got, rd.err, rd.payload))
			return
		}
	}
	tail, err := l.Tail(ctx)
	if err != nil {
		r.fail(check, fmt.Sprintf("cannot read the log tail: %v", err))
		return
	}
	// A cacheable sequencer's holders hand out values the MDS has not
	// seen, so the scan runs past the highest acked position too.
	for _, rec := range acked {
		tail = max(tail, rec.pos+1)
	}
	heldAt := make(map[string]uint64) // payload -> the position holding it
	for pos := uint64(0); pos < tail; pos++ {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		got, err := l.Read(cctx, pos)
		cancel()
		switch {
		case err == nil:
		case entryState(err):
			continue
		default:
			r.fail(check, fmt.Sprintf("scan: position %d unreadable: %v", pos, err))
			return
		}
		if !attempted[string(got)] {
			r.fail(check, fmt.Sprintf("position %d holds %q, which no appender wrote", pos, got))
			return
		}
		if prev, twice := heldAt[string(got)]; twice {
			r.fail(check, fmt.Sprintf("payload %q at positions %d and %d", got, prev, pos))
			return
		}
		heldAt[string(got)] = pos
	}
	for _, rec := range acked {
		if pos, ok := heldAt[rec.payload]; !ok || pos != rec.pos {
			r.fail(check, fmt.Sprintf("scan of [0, %d): acked %q not at its position %d", tail, rec.payload, rec.pos))
			return
		}
	}
	r.pass(check)
}

// entryState reports whether a read's error is the position's state —
// unwritten, filled or trimmed — rather than a failure to read it.
func entryState(err error) bool {
	return errors.Is(err, zlog.ErrNotWritten) || errors.Is(err, zlog.ErrFilled) || errors.Is(err, zlog.ErrTrimmed)
}

// checkServiceMetaDurable verifies every acknowledged service-metadata
// commit is present in the final cluster map (retrying briefly so
// followers catch up after heal).
func (r *run) checkServiceMetaDurable(ctx context.Context, monc *mon.Client, w *metaWriter) {
	const check = "service-meta-durable"
	w.mu.Lock()
	acked := make(map[string]string, len(w.acked))
	for k, v := range w.acked {
		acked[k] = v
	}
	w.mu.Unlock()
	if len(acked) == 0 {
		r.fail(check, "workload acked no commits; scenario cannot vouch for the quorum")
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		m, err := monc.GetOSDMap(cctx)
		cancel()
		missing := ""
		if err != nil {
			missing = fmt.Sprintf("cannot fetch map: %v", err)
		} else {
			for _, k := range sortedKeys(acked) {
				if got, ok := m.Service[k]; !ok || got != acked[k] {
					missing = fmt.Sprintf("acked key %s=%s missing from final map (got %q)", k, acked[k], got)
					break
				}
			}
		}
		if missing == "" {
			r.pass(check)
			return
		}
		if time.Now().After(deadline) {
			r.fail(check, missing)
			return
		}
		pause(ctx, 20*time.Millisecond)
	}
}

// publishedEpoch reads the log's epoch from the service metadata — the
// cluster-wide truth recovery publishes, independent of any client's
// cache.
func publishedEpoch(ctx context.Context, monc *mon.Client, name string) (uint64, error) {
	m, err := monc.GetOSDMap(ctx)
	if err != nil {
		return 0, err
	}
	v, ok := m.Service[zlog.EpochKey(name)]
	if !ok {
		return 0, fmt.Errorf("no epoch key for log %s", name)
	}
	return strconv.ParseUint(v, 10, 64)
}

// checkSealedEpochRejects probes the seal discipline directly: after a
// recovery published epoch E, a write tagged E-1 (a stale client that
// missed the recovery) must be rejected ESTALE by the storage class. If
// recovery skipped sealing, the stale write lands — the lost-update bug
// CORFU's seal exists to prevent.
func (r *run) checkSealedEpochRejects(ctx context.Context, rc *rados.Client, monc *mon.Client, l *zlog.Log, pool, name string, width int) {
	const check = "sealed-epoch-rejects"
	ep, err := publishedEpoch(ctx, monc, name)
	if err != nil {
		r.fail(check, fmt.Sprintf("cannot read published epoch: %v", err))
		return
	}
	if ep < 2 {
		r.fail(check, fmt.Sprintf("published epoch %d: no recovery happened before the probe", ep))
		return
	}
	tail, err := l.Tail(ctx)
	if err != nil {
		tail = 0 // probe far beyond any plausible tail instead
	}
	// A stripe-0-aligned position far past the tail: guaranteed unwritten,
	// so only the epoch guard can reject it.
	probe := (tail/uint64(width) + 1024) * uint64(width)
	input := fmt.Sprintf("%d:%d:stale-probe", ep-1, probe)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	_, err = rc.Call(cctx, pool, name+".0", zlog.ClassName, "write", []byte(input))
	cancel()
	switch {
	case errors.Is(err, rados.ErrStale):
		r.pass(check)
	case err == nil:
		r.fail(check, fmt.Sprintf("stale-epoch write (epoch %d, sealed epoch %d) was ACCEPTED at position %d", ep-1, ep, probe))
	default:
		r.fail(check, fmt.Sprintf("stale-epoch probe failed with %v, want ErrStale", err))
	}
}

// ValidateCapHistory replays one MDS rank's capability transition log
// and reports the first point where two clients would have held the
// same inode's exclusive capability concurrently (or a release came
// from a non-holder). A nil error means the history is a legal
// alternation per inode.
func ValidateCapHistory(events []mds.CapEvent) error {
	holder := make(map[string]string)
	for i, ev := range events {
		switch ev.Kind {
		case "grant":
			if h := holder[ev.Path]; h != "" {
				return fmt.Errorf("event %d: cap on %s granted to %s while %s still holds it", i, ev.Path, ev.Client, h)
			}
			holder[ev.Path] = string(ev.Client)
		case "release":
			if holder[ev.Path] != string(ev.Client) {
				return fmt.Errorf("event %d: cap on %s released by %s, holder is %q", i, ev.Path, ev.Client, holder[ev.Path])
			}
			holder[ev.Path] = ""
		default:
			return fmt.Errorf("event %d: unknown cap event kind %q", i, ev.Kind)
		}
	}
	return nil
}

// checkCapHistories audits every MDS rank's grant/release log: the
// lease system must never have two concurrent sequencer holders on one
// rank's authority.
func (r *run) checkCapHistories() {
	const check = "single-cap-holder"
	for _, s := range r.cl.MDSs {
		if err := ValidateCapHistory(s.CapHistory()); err != nil {
			r.fail(check, fmt.Sprintf("mds rank %d: %v", s.Rank(), err))
			return
		}
	}
	r.pass(check)
}

// mapWatcher polls cluster-map epochs during the run and records any
// regression: each daemon's epoch, and each individual monitor's
// serving epoch, must be non-decreasing.
type mapWatcher struct {
	r *run
	// osds pins the boot-time daemon set: RebuildOSD swaps a fresh
	// daemon into the cluster slice on the scenario goroutine while this
	// watcher polls, so the watcher reads its own stable snapshot. A
	// crashed daemon's epoch simply freezes (monotone), and the rebuilt
	// daemon is audited by the post-heal checkers.
	osds      []*rados.OSD
	lastMon   []types.Epoch
	lastMDS   []types.Epoch
	lastOSD   []types.Epoch
	stop      chan struct{}
	done      chan struct{}
	regressed []string
}

// watchMaps starts the watcher; call finish() after the scenario's
// workloads stop to fold its verdict into the run.
func (r *run) watchMaps() *mapWatcher {
	w := &mapWatcher{
		r:       r,
		osds:    append([]*rados.OSD(nil), r.cl.OSDs...),
		lastMon: make([]types.Epoch, len(r.cl.Mons)),
		lastMDS: make([]types.Epoch, len(r.cl.Mons)),
		lastOSD: make([]types.Epoch, len(r.cl.OSDs)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *mapWatcher) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-w.r.ctx.Done():
			return
		default:
		}
		for i, o := range w.osds {
			e := o.Epoch()
			if e < w.lastOSD[i] {
				w.regressed = append(w.regressed, fmt.Sprintf("%s map epoch regressed %d -> %d", o.Addr(), w.lastOSD[i], e))
			}
			w.lastOSD[i] = e
		}
		// Each monitor's locally applied epochs are read in-process (a
		// client query would be forwarded to the leader, conflating views).
		for i, m := range w.r.cl.Mons {
			osdE, mdsE := m.MapEpochs()
			if osdE < w.lastMon[i] {
				w.regressed = append(w.regressed, fmt.Sprintf("mon.%d OSD map epoch regressed %d -> %d", i, w.lastMon[i], osdE))
			}
			if mdsE < w.lastMDS[i] {
				w.regressed = append(w.regressed, fmt.Sprintf("mon.%d MDS map epoch regressed %d -> %d", i, w.lastMDS[i], mdsE))
			}
			w.lastMon[i] = osdE
			w.lastMDS[i] = mdsE
		}
		pause(w.r.ctx, 10*time.Millisecond)
	}
}

// finish stops the watcher and records the maps-monotone verdict.
func (w *mapWatcher) finish() {
	const check = "maps-monotone"
	close(w.stop)
	<-w.done
	if len(w.regressed) > 0 {
		w.r.fail(check, w.regressed[0])
		return
	}
	w.r.pass(check)
}
