package mds

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/mon"
	"repro/internal/retry"
	"repro/internal/types"
	"repro/internal/wire"
)

// Client errors.
var (
	ErrNotFound = errors.New("mds: no such inode")
	ErrUnavail  = errors.New("mds: service unavailable")
	ErrBadRoute = errors.New("mds: routing loop")
	ErrBadRange = errors.New("mds: range size must be positive")
)

// capState is a held capability: the client's exclusive cached copy of
// the inode's counter.
type capState struct {
	value    uint64
	used     int
	quota    int
	deadline time.Time
	revoked  bool
}

func (cs *capState) expired(now time.Time) bool {
	if cs.quota > 0 && cs.used >= cs.quota {
		return true
	}
	if !cs.deadline.IsZero() && now.After(cs.deadline) {
		return true
	}
	return false
}

// Client is a metadata-service session. It routes requests to the
// authoritative rank, follows redirects, transparently acquires and
// yields capabilities, and answers recalls pushed by the servers.
type Client struct {
	net  *wire.Network
	self wire.Addr
	monc *mon.Client
	mons []int

	mu        sync.Mutex
	auth      map[string]int       // guarded by mu; path -> authoritative rank
	caps      map[string]*capState // guarded by mu
	roundtrip map[string]bool      // guarded by mu; paths whose policy denies caching
	// earlyRecall records recalls that raced ahead of their grant's
	// response (the server recalls immediately when other clients wait,
	// and the push can beat the grant reply over the fabric).
	earlyRecall map[string]bool // guarded by mu
	mdsMap      *types.MDSMap   // guarded by mu

	// localOps counts operations served from a held capability,
	// remoteOps those a round trip served itself — a plain Next, or the
	// acquire that fetched the capability; benchmark instrumentation
	// for Figures 5-7.
	localOps  int64 // guarded by mu
	remoteOps int64 // guarded by mu
}

// NewClient builds a session identified as self.
func NewClient(net *wire.Network, self wire.Addr, mons []int) *Client {
	return &Client{
		net:         net,
		self:        self,
		monc:        mon.NewClient(net, self, mons),
		mons:        mons,
		auth:        make(map[string]int),
		caps:        make(map[string]*capState),
		roundtrip:   make(map[string]bool),
		earlyRecall: make(map[string]bool),
		mdsMap:      types.NewMDSMap(),
	}
}

// Start registers the client's push endpoint (for capability recalls and
// map notifications) and subscribes it to the MDS map, starting on the
// map the subscription is answered with. On failure the endpoint is
// removed again.
func (c *Client) Start(ctx context.Context) error {
	c.net.Listen(c.self, c.handlePush)
	maps, err := c.monc.Subscribe(ctx, c.self, types.MapMDS)
	if err != nil {
		c.net.Unlisten(c.self)
		return err
	}
	c.noteMap(maps.MDS)
	return nil
}

// noteMap installs m as the client's MDS map if it is newer.
func (c *Client) noteMap(m *types.MDSMap) {
	if m == nil {
		return
	}
	c.mu.Lock()
	if m.Epoch > c.mdsMap.Epoch {
		c.mdsMap = m
	}
	c.mu.Unlock()
}

// Stop releases all held capabilities and removes the push endpoint.
func (c *Client) Stop() {
	c.mu.Lock()
	paths := make([]string, 0, len(c.caps))
	for p := range c.caps {
		paths = append(paths, p)
	}
	c.mu.Unlock()
	for _, p := range paths {
		c.releaseCap(p)
	}
	c.net.Unlisten(c.self)
}

// Stats reports (local, remote) operation counts.
func (c *Client) Stats() (local, remote int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localOps, c.remoteOps
}

func (c *Client) handlePush(_ context.Context, _ wire.Addr, req any) (any, error) {
	switch r := req.(type) {
	case RecallMsg:
		c.onRecall(r.Path)
		return nil, nil
	case mon.MapNotify:
		c.noteMap(r.MDS)
		return nil, nil
	}
	return nil, nil
}

// onRecall reacts to a server recall per the holder's view of the
// grant: best-effort grants yield immediately; delay/quota grants are
// marked and yield at their natural boundary (deadline or quota).
func (c *Client) onRecall(path string) {
	c.mu.Lock()
	cs, ok := c.caps[path]
	if !ok {
		// The recall outran the grant reply; remember it so the grant is
		// treated as revoked the moment it lands.
		c.earlyRecall[path] = true
		c.mu.Unlock()
		return
	}
	cs.revoked = true
	bestEffort := cs.quota == 0 && cs.deadline.IsZero()
	c.mu.Unlock()
	if bestEffort {
		// Best-effort yields at the holder's next operation (localNextN
		// checks revoked); the timer covers holders that have gone idle.
		time.AfterFunc(2*time.Millisecond, func() { c.releaseIfRevoked(path) })
	}
}

// releaseIfRevoked returns a best-effort cap that is still held after a
// recall (the holder stopped operating).
func (c *Client) releaseIfRevoked(path string) {
	c.mu.Lock()
	cs, ok := c.caps[path]
	revoked := ok && cs.revoked
	c.mu.Unlock()
	if revoked {
		c.releaseCap(path)
	}
}

// releaseCap returns the capability (with its final value) to the
// authority.
func (c *Client) releaseCap(path string) {
	c.mu.Lock()
	cs, ok := c.caps[path]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.caps, path)
	value := cs.value
	c.mu.Unlock()
	c.sendRelease(path, value)
}

// sendRelease hands path's capability back to the authority with the
// counter's final value; the one place a release leaves the client.
func (c *Client) sendRelease(path string, value uint64) {
	c.mu.Lock()
	rank := c.rankForLocked(path)
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	//lint:ignore errdrop release is best effort: an unreachable MDS reclaims the cap by lease timeout anyway
	_, _ = c.net.Call(ctx, c.self, MDSAddr(rank), ReleaseReq{Path: path, Client: c.self, Value: value})
}

// rankForLocked resolves the authoritative rank for path: explicit
// redirect cache, then published auth keys, then the lowest up rank.
func (c *Client) rankForLocked(path string) int {
	if r, ok := c.auth[path]; ok {
		return r
	}
	if v, ok := c.mdsMap.Service[AuthKey(path)]; ok {
		var r int
		if _, err := fmt.Sscanf(v, "%d", &r); err == nil {
			return r
		}
	}
	up := c.mdsMap.UpRanks()
	if len(up) > 0 {
		return up[0]
	}
	return 0
}

// call routes a request for path, following redirects and failing over
// to surviving ranks. When no rank can be reached it fails with
// ErrUnavail wrapping the last fabric error; ErrBadRoute means the
// redirects ran out.
func (c *Client) call(ctx context.Context, path string, mk func() any) (any, error) {
	redirects, failures, busy := 0, 0, 0
	var lastErr error
	for redirects < 8 && failures < 8 {
		c.mu.Lock()
		rank := c.rankForLocked(path)
		c.mu.Unlock()

		resp, err := c.net.Call(ctx, c.self, MDSAddr(rank), mk())
		if err != nil {
			// Rank unreachable: refresh the map, drop any stale auth
			// entry, and retry (a surviving rank may have taken over).
			failures++
			lastErr = err
			c.mu.Lock()
			delete(c.auth, path)
			c.mu.Unlock()
			if m, merr := c.monc.GetMDSMap(ctx); merr == nil {
				c.noteMap(m)
			}
			if !retry.Backoff(ctx, failures-1, 10*time.Millisecond, 160*time.Millisecond) {
				return nil, ctx.Err()
			}
			continue
		}
		redirect, again := redirectOf(resp)
		if redirect >= 0 {
			redirects++
			c.mu.Lock()
			c.auth[path] = redirect
			c.mu.Unlock()
			continue
		}
		if again {
			// Transient busy (e.g. an outstanding capability being
			// chased): back off and retry until the context gives up.
			if !retry.Backoff(ctx, busy, 5*time.Millisecond, 80*time.Millisecond) {
				return nil, ctx.Err()
			}
			busy++
			continue
		}
		return resp, nil
	}
	if failures >= 8 {
		return nil, fmt.Errorf("%w: %w", ErrUnavail, lastErr)
	}
	return nil, ErrBadRoute
}

// redirectOf extracts routing signals from any reply type.
func redirectOf(resp any) (redirect int, again bool) {
	switch r := resp.(type) {
	case OpenResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
	case ReadResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
		if r.Status == StAgain {
			return -1, true
		}
	case NextNResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
		if r.Status == StAgain {
			return -1, true
		}
	case AcquireResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
		if r.Status == StAgain {
			return -1, true
		}
	case StatResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
	case SetValueResp:
		if r.Status == StRedirect {
			return r.Redirect, false
		}
		if r.Status == StAgain {
			return -1, true
		}
	}
	return -1, false
}

// SetValue raises a sequencer counter to at least v (monotonic).
func (c *Client) SetValue(ctx context.Context, path string, v uint64) error {
	c.releaseCap(path) // the authority must see the new floor
	resp, err := c.call(ctx, path, func() any { return SetValueReq{Path: path, Value: v} })
	if err != nil {
		return err
	}
	r := resp.(SetValueResp)
	if r.Status == StNotFound {
		return ErrNotFound
	}
	if r.Status != StOK {
		return fmt.Errorf("mds: setvalue %s: %s", path, r.Status)
	}
	return nil
}

// Open creates (if needed) and opens an inode of the given type.
func (c *Client) Open(ctx context.Context, path string, typ InodeType, policy *CapPolicy) error {
	resp, err := c.call(ctx, path, func() any { return OpenReq{Path: path, Type: typ, Policy: policy} })
	if err != nil {
		return err
	}
	r := resp.(OpenResp)
	if r.Status != StOK {
		return fmt.Errorf("mds: open %s: %s", path, r.Status)
	}
	return nil
}

// Stat fetches inode metadata.
func (c *Client) Stat(ctx context.Context, path string) (Inode, error) {
	resp, err := c.call(ctx, path, func() any { return StatReq{Path: path} })
	if err != nil {
		return Inode{}, err
	}
	r := resp.(StatResp)
	if r.Status == StNotFound {
		return Inode{}, ErrNotFound
	}
	return r.Inode, nil
}

// SetPolicy changes the capability policy on an inode. Any held cap is
// released first so the new policy governs the next grant.
func (c *Client) SetPolicy(ctx context.Context, path string, p CapPolicy) error {
	c.releaseCap(path)
	c.mu.Lock()
	delete(c.roundtrip, path)
	c.mu.Unlock()
	resp, err := c.call(ctx, path, func() any { return SetPolicyReq{Path: path, Policy: p} })
	if err != nil {
		return err
	}
	r := resp.(SetPolicyResp)
	if r.Status == StNotFound {
		return ErrNotFound
	}
	return nil
}

// Next returns the next sequencer value for path: a range of one.
// When the inode's policy allows caching, the client acquires the
// exclusive capability and serves increments locally until its grant is
// exhausted or recalled; otherwise every call is a round-trip (the
// Shared Resource path).
func (c *Client) Next(ctx context.Context, path string) (uint64, error) {
	return c.NextN(ctx, path, 1)
}

// NextN returns the first value of a contiguous sequencer range
// [first, first+n) for path, never splitting the range. A held cached
// capability serves the range locally when its remaining quota covers
// all n values; otherwise the cap is yielded and the range comes from
// a fresh grant or a single NextN round-trip — one message for n
// values, the amortization behind the batched append path.
func (c *Client) NextN(ctx context.Context, path string, n int) (uint64, error) {
	if n <= 0 {
		return 0, ErrBadRange
	}
	if first, done := c.localNextN(path, n); done {
		return first, nil
	}
	c.mu.Lock()
	rt := c.roundtrip[path]
	c.mu.Unlock()
	if !rt {
		first, retry, err := c.acquireAndNextN(ctx, path, n)
		if err == nil {
			return first, nil
		}
		if !retry {
			return 0, err
		}
		// Policy denies caching (or the grant quota cannot cover a whole
		// range): fall through to the round-trip range allocation.
	}
	return c.remoteNextN(ctx, path, n)
}

// localNextN serves a whole range from the held cap; done=false when no
// cap is held or the remaining quota cannot cover n contiguous values
// (the cap is released so the authority can serve the range instead).
func (c *Client) localNextN(path string, n int) (uint64, bool) {
	c.mu.Lock()
	cs, ok := c.caps[path]
	if !ok {
		c.mu.Unlock()
		return 0, false
	}
	now := time.Now()
	if cs.expired(now) || (cs.revoked && cs.quota == 0 && cs.deadline.IsZero()) {
		c.mu.Unlock()
		c.releaseCap(path)
		return 0, false
	}
	if cs.quota > 0 && cs.quota-cs.used < n {
		// Ranges are never split across a quota boundary; return the
		// remainder to the authority and allocate there.
		c.mu.Unlock()
		c.releaseCap(path)
		return 0, false
	}
	first := cs.value + 1
	cs.value += uint64(n)
	cs.used += n
	c.localOps += int64(n)
	mustRelease := cs.expired(now)
	c.mu.Unlock()
	if mustRelease {
		c.releaseCap(path)
	}
	return first, true
}

// acquireAndNextN obtains the capability and serves the first range
// from it. retry=true means the caller should fall back to round-trip
// range allocation (policy denies caching, or the grant's quota is too
// small to ever hold a range of n).
func (c *Client) acquireAndNextN(ctx context.Context, path string, n int) (first uint64, retry bool, err error) {
	resp, err := c.call(ctx, path, func() any { return AcquireReq{Path: path, Client: c.self} })
	if err != nil {
		return 0, false, err
	}
	r := resp.(AcquireResp)
	switch r.Status {
	case StDenied:
		c.mu.Lock()
		c.roundtrip[path] = true
		c.mu.Unlock()
		return 0, true, fmt.Errorf("mds: caps denied on %s", path)
	case StNotFound:
		return 0, false, ErrNotFound
	case StOK:
	default:
		return 0, false, fmt.Errorf("mds: acquire %s: %s", path, r.Status)
	}
	if r.Quota > 0 && r.Quota < n {
		// The quota can never cover a contiguous range of n; hand the cap
		// straight back and let the authority allocate server-side.
		c.sendRelease(path, r.Value)
		return 0, true, fmt.Errorf("mds: quota %d below range %d on %s", r.Quota, n, path)
	}
	cs := &capState{value: r.Value, quota: r.Quota}
	if r.Lease > 0 {
		cs.deadline = time.Now().Add(r.Lease)
		// Yield at the deadline even if the application stops calling
		// Next, so waiters are not stuck until the force-reclaim.
		time.AfterFunc(r.Lease+time.Millisecond, func() { c.releaseIfExpired(path) })
	}
	c.mu.Lock()
	c.caps[path] = cs
	if c.earlyRecall[path] {
		delete(c.earlyRecall, path)
		cs.revoked = true
	}
	first = cs.value + 1
	cs.value += uint64(n)
	cs.used += n
	// The acquire round trip served this range: one remote op, like the
	// range of remoteNextN.
	c.remoteOps++
	// A best-effort grant that was already recalled yields after this
	// one operation; delay/quota grants run to their boundary.
	mustRelease := cs.expired(time.Now()) ||
		(cs.revoked && cs.quota == 0 && cs.deadline.IsZero())
	c.mu.Unlock()
	if mustRelease {
		c.releaseCap(path)
	}
	return first, false, nil
}

func (c *Client) releaseIfExpired(path string) {
	c.mu.Lock()
	cs, ok := c.caps[path]
	expired := ok && cs.expired(time.Now())
	c.mu.Unlock()
	if expired {
		c.releaseCap(path)
	}
}

// remoteNextN is the round-trip range path: one message buys n values.
func (c *Client) remoteNextN(ctx context.Context, path string, n int) (uint64, error) {
	resp, err := c.call(ctx, path, func() any { return NextNReq{Path: path, N: n} })
	if err != nil {
		return 0, err
	}
	r := resp.(NextNResp)
	switch r.Status {
	case StNotFound:
		return 0, ErrNotFound
	case StInval:
		return 0, ErrBadRange
	case StOK:
	default:
		return 0, fmt.Errorf("mds: nextn %s: %s", path, r.Status)
	}
	c.mu.Lock()
	c.remoteOps++
	c.mu.Unlock()
	return r.First, nil
}

// List enumerates inodes whose path starts with prefix, merged across
// every up rank (the namespace is partitioned by migration).
func (c *Client) List(ctx context.Context, prefix string) ([]string, error) {
	c.mu.Lock()
	ranks := c.mdsMap.UpRanks()
	c.mu.Unlock()
	if len(ranks) == 0 {
		if m, err := c.monc.GetMDSMap(ctx); err == nil {
			c.mu.Lock()
			if m.Epoch >= c.mdsMap.Epoch {
				c.mdsMap = m
			}
			ranks = c.mdsMap.UpRanks()
			c.mu.Unlock()
		}
	}
	seen := make(map[string]bool)
	var out []string
	for _, r := range ranks {
		resp, err := c.net.Call(ctx, c.self, MDSAddr(r), ListReq{Prefix: prefix})
		if err != nil {
			continue // a down rank contributes nothing
		}
		lr, ok := resp.(ListResp)
		if !ok {
			continue
		}
		for _, p := range lr.Paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Read returns the current sequencer value without advancing it.
func (c *Client) Read(ctx context.Context, path string) (uint64, error) {
	c.mu.Lock()
	if cs, ok := c.caps[path]; ok {
		v := cs.value
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	resp, err := c.call(ctx, path, func() any { return ReadReq{Path: path} })
	if err != nil {
		return 0, err
	}
	r := resp.(ReadResp)
	if r.Status == StNotFound {
		return 0, ErrNotFound
	}
	if r.Status != StOK {
		return 0, fmt.Errorf("mds: read %s: %s", path, r.Status)
	}
	return r.Value, nil
}
