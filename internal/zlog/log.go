package zlog

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/rados"
	"repro/internal/types"
	"repro/internal/wire"
)

// Entry-state errors.
var (
	ErrNotWritten = errors.New("zlog: position not written")
	ErrFilled     = errors.New("zlog: position filled (junk)")
	ErrTrimmed    = errors.New("zlog: position trimmed")
	ErrStale      = errors.New("zlog: stale epoch")
	// ErrRetriesExhausted reports that an append gave up after repeated
	// position collisions (e.g. racing a recovery that keeps filling the
	// tail).
	ErrRetriesExhausted = errors.New("zlog: append retries exhausted")
)

// appendAttempts bounds the position-collision retry loop.
const appendAttempts = 8

// Options configures a log handle.
type Options struct {
	Name string // log name (namespaces objects, sequencer, epoch key)
	Pool string // RADOS pool holding log entry objects
	// Width stripes log entries across this many objects (CORFU's
	// cluster striping); default 4.
	Width int
	// SeqPolicy is the capability policy on the sequencer inode. The
	// zero value forces round-trips (the centralized-sequencer mode of
	// §6.2); Cacheable with Delay/Quota enables the batching modes of
	// Figures 5-7.
	SeqPolicy mds.CapPolicy
}

// Log is a client handle to one shared log.
type Log struct {
	opts Options
	rc   *rados.Client
	mc   *mds.Client
	monc *mon.Client
	// objNames holds the precomputed stripe object names so the append
	// hot path never formats strings per operation.
	objNames []string

	mu    sync.Mutex
	epoch uint64
}

// SeqPath returns the sequencer inode path for log name.
func SeqPath(name string) string { return "/zlog/" + name + "/seq" }

// Open creates or attaches to a log. Two branches run at once: one reads
// the OSD map and, in one update, installs the storage class and
// initializes the epoch, whichever of the two is absent; the other
// starts the sequencer client and opens (creating if need be) the
// sequencer inode, which depends on neither. Attaching to an existing
// log costs two round trips.
func Open(ctx context.Context, net *wire.Network, self wire.Addr, mons []int, opts Options) (*Log, error) {
	if opts.Name == "" || opts.Pool == "" {
		return nil, fmt.Errorf("zlog: name and pool are required")
	}
	if opts.Width <= 0 {
		opts.Width = 4
	}
	l := &Log{
		opts: opts,
		rc:   rados.NewClient(net, self+".rados", mons),
		mc:   mds.NewClient(net, self, mons),
		monc: mon.NewClient(net, self+".mon", mons),
	}
	l.objNames = make([]string, opts.Width)
	for i := range l.objNames {
		l.objNames[i] = opts.Name + "." + strconv.Itoa(i)
	}
	var ep uint64
	prepared := make(chan error, 1)
	go func() {
		err := l.rc.RefreshMap(ctx)
		if err == nil {
			ep, err = prepare(ctx, l.rc, opts.Name)
		}
		prepared <- err
	}()
	seqErr := l.startSequencer(ctx)
	if err := <-prepared; err != nil {
		if seqErr == nil {
			l.mc.Stop()
		}
		l.rc.Close()
		return nil, err
	}
	if seqErr != nil {
		l.rc.Close()
		return nil, seqErr
	}
	l.mu.Lock()
	l.epoch = ep
	l.mu.Unlock()
	return l, nil
}

// startSequencer starts the sequencer client and opens the log's
// sequencer inode; on failure the client is left stopped.
func (l *Log) startSequencer(ctx context.Context) error {
	if err := l.mc.Start(ctx); err != nil {
		return err
	}
	if err := l.mc.Open(ctx, SeqPath(l.opts.Name), mds.TypeSequencer, &l.opts.SeqPolicy); err != nil {
		l.mc.Stop()
		return fmt.Errorf("zlog: create sequencer: %w", err)
	}
	return nil
}

// Close releases client resources: the sequencer session and the
// storage client's endpoint.
func (l *Log) Close() {
	l.mc.Stop()
	l.rc.Close()
}

// Epoch returns the client's cached log epoch.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

func (l *Log) fetchEpoch(ctx context.Context) (uint64, error) {
	m, err := l.monc.GetOSDMap(ctx)
	if err != nil {
		return 0, err
	}
	return epochIn(m, l.opts.Name)
}

func (l *Log) refreshEpoch(ctx context.Context) error {
	ep, err := l.fetchEpoch(ctx)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if ep > l.epoch {
		l.epoch = ep
	}
	l.mu.Unlock()
	return nil
}

// objectFor maps a log position to its precomputed stripe object.
func (l *Log) objectFor(pos uint64) string {
	return l.objNames[pos%uint64(l.opts.Width)]
}

// posArg renders pos as a class argument without fmt overhead.
func posArg(pos uint64) []byte {
	return strconv.AppendUint(make([]byte, 0, 20), pos, 10)
}

// writeArgs renders "<pos>:<data>" for the write method.
func writeArgs(pos uint64, data []byte) []byte {
	buf := make([]byte, 0, 21+len(data))
	buf = strconv.AppendUint(buf, pos, 10)
	buf = append(buf, ':')
	return append(buf, data...)
}

// writevArgs renders the multi-entry payload for the writev method:
// "<n>:" then one "<pos>:<len>:<data>" per entry, length-prefixed so
// entry bytes never need escaping.
func writevArgs(idxs []int, entries [][]byte, positions []uint64) []byte {
	size := 21
	for _, i := range idxs {
		size += len(entries[i]) + 42
	}
	buf := make([]byte, 0, size)
	buf = strconv.AppendInt(buf, int64(len(idxs)), 10)
	buf = append(buf, ':')
	for _, i := range idxs {
		buf = strconv.AppendUint(buf, positions[i], 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(len(entries[i])), 10)
		buf = append(buf, ':')
		buf = append(buf, entries[i]...)
	}
	return buf
}

// entryKey is the omap key the class keeps position pos's entry under.
func entryKey(pos uint64) string { return "e." + strconv.FormatUint(pos, 10) }

// call invokes a storage-class method on pos's stripe object.
func (l *Log) call(ctx context.Context, pos uint64, method string, args []byte) ([]byte, error) {
	return l.callObj(ctx, l.objectFor(pos), method, args, nil)
}

// callObj invokes a storage-class method with the epoch prefix,
// refreshing the epoch and retrying when sealed mid-flight. The
// write-once writes pass the entry keys they write and are witnessed
// calls on those keys: each position comes from one sequencer value, so
// a write commutes with every other write in flight — their keys are
// disjoint, and the maxpos they share is a max — and one that succeeds
// on the primary succeeds on any prefix of the primary's history. So
// the call answers in one round trip, even beside another client's
// write to the stripe (rados.Client.CallWitnessed). Seal, fill and
// trim, which conflict with writes, and the reads take the ordinary path.
func (l *Log) callObj(ctx context.Context, obj, method string, args []byte, keys []string) ([]byte, error) {
	for attempt := 0; attempt < 3; attempt++ {
		input := make([]byte, 0, 21+len(args))
		input = strconv.AppendUint(input, l.Epoch(), 10)
		input = append(input, ':')
		input = append(input, args...)
		var out []byte
		var err error
		if keys != nil {
			out, err = l.rc.CallWitnessed(ctx, l.opts.Pool, obj, ClassName, method, input, keys)
		} else {
			out, err = l.rc.Call(ctx, l.opts.Pool, obj, ClassName, method, input)
		}
		if err != nil && errors.Is(err, rados.ErrStale) {
			// Sealed: a recovery bumped the epoch. Resync and retry.
			if rerr := l.refreshEpoch(ctx); rerr != nil {
				return nil, rerr
			}
			continue
		}
		return out, err
	}
	return nil, ErrStale
}

// writeAt writes data at pos; rados.ErrExists reports a collision.
func (l *Log) writeAt(ctx context.Context, pos uint64, data []byte) error {
	_, err := l.callObj(ctx, l.objectFor(pos), "write", writeArgs(pos, data), []string{entryKey(pos)})
	return err
}

// fillAbandoned best-effort junk-fills a position that was allocated
// but will never be written, so readers do not stall on the hole.
func (l *Log) fillAbandoned(pos uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	//lint:ignore errdrop fill is best effort: the next recovery's seal pass bounds any hole that survives it
	_ = l.Fill(ctx, pos)
}

// fillRange junk-fills the positions of idxs, typically the unwritten
// remainder of a failed batch.
func (l *Log) fillRange(idxs []int, positions []uint64) {
	for _, i := range idxs {
		l.fillAbandoned(positions[i])
	}
}

// Append assigns the next position from the sequencer and writes data
// there. On a sealed-epoch race it resynchronizes and retries with a
// fresh position, as CORFU clients do; positions it allocates but
// cannot write are junk-filled so readers never stall on them.
func (l *Log) Append(ctx context.Context, data []byte) (uint64, error) {
	for attempt := 0; attempt < appendAttempts; attempt++ {
		v, err := l.mc.Next(ctx, SeqPath(l.opts.Name))
		if err != nil {
			return 0, fmt.Errorf("zlog: sequencer: %w", err)
		}
		pos := v - 1 // sequencer counts from 1; log positions from 0
		err = l.writeAt(ctx, pos, data)
		switch {
		case err == nil:
			return pos, nil
		case errors.Is(err, rados.ErrExists):
			// Someone (e.g. recovery fill) took the position; get a new one.
			continue
		default:
			l.fillAbandoned(pos)
			return 0, err
		}
	}
	return 0, ErrRetriesExhausted
}

// AppendBatch appends entries as one batch: a single NextN range
// allocation covers every entry and same-stripe entries coalesce into
// one writev class call, so n entries cost one sequencer message plus
// at most Width object calls instead of the serial path's 2n. The
// returned positions parallel entries; on error, allocated-but-unwritten
// positions are junk-filled.
func (l *Log) AppendBatch(ctx context.Context, entries [][]byte) ([]uint64, error) {
	n := len(entries)
	if n == 0 {
		return nil, nil
	}
	first, err := l.mc.NextN(ctx, SeqPath(l.opts.Name), n)
	if err != nil {
		return nil, fmt.Errorf("zlog: sequencer: %w", err)
	}
	positions := make([]uint64, n)
	for i := range positions {
		positions[i] = first - 1 + uint64(i)
	}

	width := l.opts.Width
	groups := make([][]int, width)
	for i := range positions {
		s := int(positions[i] % uint64(width))
		groups[s] = append(groups[s], i)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, width)
	for s := 0; s < width; s++ {
		idxs := groups[s]
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(obj string, idxs []int) {
			defer wg.Done()
			errCh <- l.writeStripe(ctx, obj, idxs, entries, positions)
		}(l.objNames[s], idxs)
	}
	wg.Wait()
	close(errCh)
	for werr := range errCh {
		if werr != nil {
			return nil, werr
		}
	}
	return positions, nil
}

// writeStripe lands idxs' entries on one stripe object with a single
// writev call. The class executes all-or-nothing, so one collision
// aborts the whole vector; it then degrades to per-entry writes where
// only the contested entries reassign positions via the serial path.
func (l *Log) writeStripe(ctx context.Context, obj string, idxs []int, entries [][]byte, positions []uint64) error {
	keys := make([]string, len(idxs))
	for k, i := range idxs {
		keys[k] = entryKey(positions[i])
	}
	_, err := l.callObj(ctx, obj, "writev", writevArgs(idxs, entries, positions), keys)
	if err == nil {
		return nil
	}
	if !errors.Is(err, rados.ErrExists) {
		l.fillRange(idxs, positions)
		return err
	}
	for k, i := range idxs {
		werr := l.writeAt(ctx, positions[i], entries[i])
		if errors.Is(werr, rados.ErrExists) {
			pos, aerr := l.Append(ctx, entries[i])
			if aerr != nil {
				l.fillRange(idxs[k+1:], positions)
				return aerr
			}
			positions[i] = pos
			continue
		}
		if werr != nil {
			l.fillRange(idxs[k:], positions)
			return werr
		}
	}
	return nil
}

// Read returns the entry at pos. Reads never block on the sequencer, so
// they proceed even during sequencer failure (§5.2.2).
func (l *Log) Read(ctx context.Context, pos uint64) ([]byte, error) {
	out, err := l.call(ctx, pos, "read", posArg(pos))
	if err != nil {
		if errors.Is(err, rados.ErrNotFound) {
			return nil, ErrNotWritten
		}
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrNotWritten
	}
	switch out[0] {
	case 'D':
		return out[1:], nil
	case 'F':
		return nil, ErrFilled
	case 'T':
		return nil, ErrTrimmed
	}
	return nil, fmt.Errorf("zlog: corrupt entry state %q", out[0])
}

// Fill marks pos as junk so readers skip it.
func (l *Log) Fill(ctx context.Context, pos uint64) error {
	_, err := l.call(ctx, pos, "fill", posArg(pos))
	if errors.Is(err, rados.ErrExists) {
		return fmt.Errorf("zlog: fill %d: %w", pos, rados.ErrExists)
	}
	return err
}

// Trim releases the storage at pos.
func (l *Log) Trim(ctx context.Context, pos uint64) error {
	_, err := l.call(ctx, pos, "trim", posArg(pos))
	return err
}

// Tail returns the next position the sequencer will assign (i.e. the
// current length of the log).
func (l *Log) Tail(ctx context.Context) (uint64, error) {
	return l.mc.Read(ctx, SeqPath(l.opts.Name))
}

// Recover runs the CORFU sequencer-recovery protocol (§5.2.2): bump the
// epoch in the service metadata (invalidating stale clients), seal every
// stripe object in parallel (collecting the maximum written position),
// and install the recomputed tail into the sequencer inode.
func (l *Log) Recover(ctx context.Context) error {
	cur, err := l.fetchEpoch(ctx)
	if err != nil {
		return err
	}
	newEpoch := cur + 1
	if err := l.monc.SetService(ctx, types.MapOSD, EpochKey(l.opts.Name), strconv.FormatUint(newEpoch, 10)); err != nil {
		return fmt.Errorf("zlog: publish epoch: %w", err)
	}

	// Seal all stripe objects concurrently; sealing is what guarantees no
	// in-flight stale append can land after we compute the tail, and the
	// stripes are independent so the fan-out costs one round-trip total.
	epochArg := []byte(strconv.FormatUint(newEpoch, 10))
	type sealResult struct {
		obj string
		max int64
		err error
	}
	results := make(chan sealResult, l.opts.Width)
	for i := 0; i < l.opts.Width; i++ {
		go func(obj string) {
			out, err := l.rc.Call(ctx, l.opts.Pool, obj, ClassName, "seal", epochArg)
			if err != nil && errors.Is(err, rados.ErrStale) {
				// A racing recovery may have sealed this stripe at our
				// exact epoch first. Equal-epoch recoveries converge on the
				// same tail, so read the max position under our epoch
				// instead of losing; only a genuinely higher epoch still
				// rejects us here.
				out, err = l.rc.Call(ctx, l.opts.Pool, obj, ClassName, "maxpos", epochArg)
			}
			if err != nil {
				results <- sealResult{obj: obj, err: err}
				return
			}
			mp, perr := strconv.ParseInt(string(out), 10, 64)
			if perr != nil {
				results <- sealResult{obj: obj, err: fmt.Errorf("returned %q", out)}
				return
			}
			results <- sealResult{obj: obj, max: mp}
		}(l.objNames[i])
	}
	maxPos := int64(-1)
	var sealErr error
	stale := false
	for i := 0; i < l.opts.Width; i++ {
		r := <-results
		switch {
		case r.err == nil:
			if r.max > maxPos {
				maxPos = r.max
			}
		case errors.Is(r.err, rados.ErrStale):
			stale = true
		default:
			if sealErr == nil {
				sealErr = fmt.Errorf("zlog: seal %s: %w", r.obj, r.err)
			}
		}
	}
	if stale {
		// Another recovery with a higher epoch is in flight; defer to it.
		return fmt.Errorf("zlog: concurrent recovery: %w", ErrStale)
	}
	if sealErr != nil {
		return sealErr
	}

	// Install the recomputed tail: the sequencer resumes at maxPos+1
	// (counter value maxPos+1 means next assigned position is maxPos+1).
	if err := l.mc.SetValue(ctx, SeqPath(l.opts.Name), uint64(maxPos+1)); err != nil {
		return fmt.Errorf("zlog: install tail: %w", err)
	}
	l.mu.Lock()
	if newEpoch > l.epoch {
		l.epoch = newEpoch
	}
	l.mu.Unlock()
	return nil
}

// MDS exposes the sequencer's metadata client (for policy tuning in
// benchmarks).
func (l *Log) MDS() *mds.Client { return l.mc }
