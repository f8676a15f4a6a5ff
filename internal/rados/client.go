package rados

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mon"
	"repro/internal/retry"
	"repro/internal/types"
	"repro/internal/wire"
)

// Client is the librados-style handle applications use: it caches the
// OSD map, routes each operation to the primary OSD of the object's
// placement group, and transparently resynchronizes on ESTALE (the
// out-of-date-client protocol of Section 4.1).
type Client struct {
	net  *wire.Network
	self wire.Addr
	monc *mon.Client

	// opSeq numbers logical operations for the primaries' replay caches;
	// with the client's own address it forms the duplicate-detection key.
	opSeq atomic.Uint64

	// view is the cached OSD map with its placement table (mapView),
	// read without a lock; RefreshMap swaps in a newer one under mu.
	view atomic.Pointer[mapView]

	// acks tallies the replica answers of this client's mutations
	// (acks.go); they arrive at its endpoint, which listens from the
	// first mutation until Close. listening and closed change
	// under mu, which orders a first listen against Close.
	acks      ackTable
	listening atomic.Bool
	closed    atomic.Bool

	mu sync.Mutex
}

// clientIncarnation separates the OpID streams of successive Client
// instances that reuse one wire address: without it a recreated client
// would restart numbering at 1 and its fresh ops would hit a
// predecessor's entries in the primaries' replay caches.
var clientIncarnation atomic.Uint64

// NewClient builds a client identified as self on the fabric.
func NewClient(net *wire.Network, self wire.Addr, mons []int) *Client {
	c := &Client{
		net:  net,
		self: self,
		monc: mon.NewClient(net, self, mons),
	}
	c.view.Store(newMapView(types.NewOSDMap()))
	c.opSeq.Store(clientIncarnation.Add(1) << 40)
	return c
}

// Mon exposes the underlying monitor client (for service metadata and
// class installation).
func (c *Client) Mon() *mon.Client { return c.monc }

// RefreshMap fetches the newest OSD map from the monitors.
func (c *Client) RefreshMap(ctx context.Context) error {
	m, err := c.monc.GetOSDMap(ctx)
	if err != nil {
		return err
	}
	c.NoteMap(m)
	return nil
}

// NoteMap caches m if it is newer than the cached map: a map a monitor
// answered a commit or subscription with saves a RefreshMap. m is
// shared; it is never written.
func (c *Client) NoteMap(m *types.OSDMap) {
	if m == nil {
		return
	}
	c.mu.Lock()
	if m.Epoch > c.view.Load().m.Epoch {
		c.view.Store(newMapView(m))
	}
	c.mu.Unlock()
}

// MapEpoch returns the client's cached map epoch.
func (c *Client) MapEpoch() types.Epoch { return c.view.Load().m.Epoch }

// CachedMap returns the client's cached OSD map (shared; treat as
// read-only).
func (c *Client) CachedMap() *types.OSDMap { return c.view.Load().m }

// listen registers the client's endpoint, where replica acks and relays
// arrive; false once the client is closed.
func (c *Client) listen() bool {
	if c.listening.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return false
	}
	if !c.listening.Load() {
		c.net.Listen(c.self, c.handle)
		c.listening.Store(true)
	}
	return true
}

// Close removes the client's endpoint from the fabric and fails every op
// still waiting for its replicas, and every later op, with ErrClosed.
// Idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	wasOpen := !c.closed.Swap(true)
	c.mu.Unlock()
	if !wasOpen {
		return
	}
	c.acks.close()
	if c.listening.Load() {
		c.net.Unlisten(c.self)
	}
}

// handle is the client's fabric endpoint: the answers for its
// mutations' replicas.
func (c *Client) handle(_ context.Context, from wire.Addr, req any) (any, error) {
	switch m := req.(type) {
	case *replicaAck:
		c.acks.note(m.OpID, from)
		return nil, nil
	case *relayAck:
		c.acks.note(m.OpID, m.Peer)
		return nil, nil
	}
	return nil, fmt.Errorf("rados: client %s: unexpected %T", c.self, req)
}

// maxOpRetries is how often a client op is (re)sent through map
// refreshes before it fails with ErrRetriesExhausted, and how many ack
// waits a mutation sits through before its primary's reply stands alone.
const maxOpRetries = 5

// do routes req to the primary OSD, retrying through map refreshes on
// staleness or placement movement, and for a mutation then waits for its
// replicas (acks.go). The first retry is immediate — the common case is
// a single EMapStale resync — and later ones back off with jitter so a
// cluster mid-reconfiguration is not hammered.
func (c *Client) do(ctx context.Context, req OpRequest) (_ OpReply, err error) {
	// One OpID for every resend of this logical operation: a retry after
	// a lost ack becomes a replay-cache hit on the primary, not a second
	// application of a non-idempotent op (append, class call).
	req.OpID = c.opSeq.Add(1)
	spec, known := req.Op.spec()
	mutation := !known || spec.class != classRead
	if !mutation {
		if c.closed.Load() {
			return OpReply{}, ErrClosed
		}
	} else if !c.listen() || !c.acks.expect(req.OpID) {
		return OpReply{}, ErrClosed
	} else {
		defer func() {
			if err != nil {
				c.acks.forget(req.OpID)
			}
		}()
	}
	var last OpReply
	for attempt := 0; attempt < maxOpRetries; attempt++ {
		if attempt > 1 {
			if !retry.Backoff(ctx, attempt-2, 5*time.Millisecond, 80*time.Millisecond) {
				return last, ctx.Err()
			}
		}
		v := c.view.Load()
		_, acting, err := v.locate(req.Pool, req.Object)
		if err != nil {
			// Unknown pool or empty cluster: refresh once and retry.
			if rerr := c.RefreshMap(ctx); rerr != nil {
				return OpReply{}, rerr
			}
			v = c.view.Load()
			_, acting, err = v.locate(req.Pool, req.Object)
			if err != nil {
				return OpReply{}, err
			}
		}
		req.Epoch = v.m.Epoch
		primary := OSDAddr(acting[0])
		if req.Witnessed && len(acting) > 1 {
			c.sendWitnesses(ctx, req, acting[1:])
		}
		rep, err := c.call(ctx, primary, &req)
		if errors.Is(err, errNotOpReply) {
			return OpReply{}, err
		}
		if err != nil {
			// Primary unreachable: refresh the map (it may be down) and
			// retry against the new acting set.
			if rerr := c.RefreshMap(ctx); rerr != nil {
				return OpReply{}, fmt.Errorf("rados: primary failed (%v) and map refresh failed: %w", err, rerr)
			}
			continue
		}
		if rep.Result == EMapStale {
			last = rep
			if err := c.RefreshMap(ctx); err != nil {
				return OpReply{}, err
			}
			continue
		}
		if !mutation {
			return rep, nil
		}
		return rep, c.acks.settle(ctx, nil, req.OpID, rep, func() (OpReply, error) {
			return c.call(ctx, primary, &req)
		})
	}
	return last, fmt.Errorf("%w (%s)", ErrRetriesExhausted, last.Detail)
}

// sendWitnesses sends each peer a witness copy of req (witness.go), each
// on its own goroutine so the copies travel beside the primary's call. A
// peer that accepts its copy has answered for req, as its ack would.
func (c *Client) sendWitnesses(ctx context.Context, req OpRequest, peers []int) {
	w := (*witnessCopy)(&req)
	for _, peer := range peers {
		go c.witness(ctx, OSDAddr(peer), w)
	}
}

// witness delivers one witness copy and counts the peer's acceptance.
func (c *Client) witness(ctx context.Context, to wire.Addr, w *witnessCopy) {
	if resp, err := c.net.Call(ctx, c.self, to, w); err == nil && resp == any(true) {
		c.acks.note(w.OpID, to)
	}
}

// errNotOpReply is an OSD answering an op with something other than an
// OpReply: a bug, not a routing fault, so it is not retried.
var errNotOpReply = errors.New("rados: unexpected reply")

// call is one op round trip to an OSD.
func (c *Client) call(ctx context.Context, to wire.Addr, req *OpRequest) (OpReply, error) {
	resp, err := c.net.Call(ctx, c.self, to, req)
	if err != nil {
		return OpReply{}, err
	}
	rep, ok := resp.(OpReply)
	if !ok {
		return OpReply{}, fmt.Errorf("%w %T", errNotOpReply, resp)
	}
	return rep, nil
}

// Create makes an empty object, failing with ErrExists if present.
func (c *Client) Create(ctx context.Context, pool, object string) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpCreate})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// WriteFull replaces the object's bytestream.
func (c *Client) WriteFull(ctx context.Context, pool, object string, data []byte) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpWriteFull, Data: data})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// Append extends the object's bytestream.
func (c *Client) Append(ctx context.Context, pool, object string, data []byte) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpAppend, Data: data})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// Read returns the full bytestream.
func (c *Client) Read(ctx context.Context, pool, object string) ([]byte, error) {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpRead})
	if err != nil {
		return nil, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return nil, err
	}
	return rep.Data, nil
}

// Stat returns size and version.
func (c *Client) Stat(ctx context.Context, pool, object string) (size int64, version uint64, err error) {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpStat})
	if err != nil {
		return 0, 0, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return 0, 0, err
	}
	return rep.Size, rep.Version, nil
}

// Remove deletes the object.
func (c *Client) Remove(ctx context.Context, pool, object string) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpRemove})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// OmapSet stores key-value pairs in the object's sorted database.
func (c *Client) OmapSet(ctx context.Context, pool, object string, kv map[string][]byte) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpOmapSet, KV: kv})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// OmapGet fetches the named keys (absent keys are omitted).
func (c *Client) OmapGet(ctx context.Context, pool, object string, keys ...string) (map[string][]byte, error) {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpOmapGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return nil, err
	}
	return rep.KV, nil
}

// OmapDel removes keys.
func (c *Client) OmapDel(ctx context.Context, pool, object string, keys ...string) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpOmapDel, Keys: keys})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// OmapList lists keys with the given prefix, sorted.
func (c *Client) OmapList(ctx context.Context, pool, object, prefix string) ([]string, error) {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpOmapList, Key: prefix})
	if err != nil {
		return nil, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return nil, err
	}
	return rep.Keys, nil
}

// GetXattr reads one extended attribute.
func (c *Client) GetXattr(ctx context.Context, pool, object, name string) ([]byte, error) {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpGetXattr, Key: name})
	if err != nil {
		return nil, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return nil, err
	}
	return rep.Data, nil
}

// SetXattr writes one extended attribute.
func (c *Client) SetXattr(ctx context.Context, pool, object, name string, value []byte) error {
	rep, err := c.do(ctx, OpRequest{Pool: pool, Object: object, Op: OpSetXattr, Key: name, Data: value})
	if err != nil {
		return err
	}
	return ErrFor(rep.Result, rep.Detail)
}

// Call invokes a class method on the object — the Data I/O interface of
// Section 4.2. Native classes resolve first; otherwise the script class
// installed in the cluster map runs, atomically, next to the data.
func (c *Client) Call(ctx context.Context, pool, object, class, method string, input []byte) ([]byte, error) {
	return c.callClass(ctx, OpRequest{
		Pool: pool, Object: object, Op: OpCall,
		Class: class, Method: method, Input: input,
	})
}

// CallWitnessed is Call for a method that commutes with every concurrent
// op on the object's other keys, as a write-once write of one position
// does: each replica is sent a witness copy beside the primary's call,
// and the call returns once the primary has answered and every replica
// has accepted its copy or installed the primary's forward — one round
// trip when every copy is accepted (witness.go). The method must also
// answer alike on any prefix of the primary's history, since a replica
// that takes over replays the copy it holds.
func (c *Client) CallWitnessed(ctx context.Context, pool, object, class, method string, input []byte) ([]byte, error) {
	return c.callClass(ctx, OpRequest{
		Pool: pool, Object: object, Op: OpCall,
		Class: class, Method: method, Input: input, Witnessed: true,
	})
}

func (c *Client) callClass(ctx context.Context, req OpRequest) ([]byte, error) {
	rep, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := ErrFor(rep.Result, rep.Detail); err != nil {
		return rep.Data, err
	}
	return rep.Data, nil
}
