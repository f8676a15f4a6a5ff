package mon

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/types"
	"repro/internal/wire"
)

// ErrNoMonitor is returned when no monitor in the quorum answers.
var ErrNoMonitor = errors.New("mon: no monitor reachable")

// Client is the daemon/client-side handle to the monitor quorum. It
// retries across monitors and follows leader hints, so callers see one
// logical, strongly consistent service.
type Client struct {
	net  *wire.Network
	self wire.Addr
	mons []int
}

// NewClient binds a client at address self to the monitors with the
// given ranks.
func NewClient(net *wire.Network, self wire.Addr, mons []int) *Client {
	return &Client{net: net, self: self, mons: mons}
}

// Submit commits an update through Paxos, blocking until it is applied
// (or ctx expires). Any monitor may be contacted; non-leaders forward.
// It returns the map of each kind the update changed, as published by
// the commit (nil if the commit was answered before it applied).
func (c *Client) Submit(ctx context.Context, u types.Update) (Maps, error) {
	if u.Source == "" {
		u.Source = string(c.self)
	}
	var lastErr error = ErrNoMonitor
	for attempt := 0; attempt < 2; attempt++ {
		for _, id := range c.mons {
			resp, err := c.net.Call(ctx, c.self, Addr(id), SubmitReq{Update: u})
			if err != nil {
				lastErr = err
				continue
			}
			r := resp.(SubmitResp)
			if r.OK {
				return r.Maps, nil
			}
			lastErr = fmt.Errorf("mon: submit rejected: %s", r.Err)
			if r.Err != "not leader" {
				return Maps{}, lastErr
			}
		}
		if ctx.Err() != nil {
			return Maps{}, ctx.Err()
		}
	}
	return Maps{}, lastErr
}

// submit commits ops as one update, for callers that need no map back.
func (c *Client) submit(ctx context.Context, ops ...types.Op) error {
	_, err := c.Submit(ctx, types.Update{Ops: ops})
	return err
}

// GetOSDMap fetches the newest OSD map from any monitor.
func (c *Client) GetOSDMap(ctx context.Context) (*types.OSDMap, error) {
	resp, err := c.getMap(ctx, types.MapOSD)
	if err != nil {
		return nil, err
	}
	return resp.OSD, nil
}

// GetMDSMap fetches the newest MDS map from any monitor.
func (c *Client) GetMDSMap(ctx context.Context) (*types.MDSMap, error) {
	resp, err := c.getMap(ctx, types.MapMDS)
	if err != nil {
		return nil, err
	}
	return resp.MDS, nil
}

func (c *Client) getMap(ctx context.Context, kind string) (GetMapResp, error) {
	for _, id := range c.mons {
		resp, err := c.net.Call(ctx, c.self, Addr(id), GetMapReq{Kind: kind})
		if err != nil {
			continue
		}
		return resp.(GetMapResp), nil
	}
	return GetMapResp{}, ErrNoMonitor
}

// Subscribe registers addr for pushes of the named map kinds. The
// subscription is installed on every monitor so pushes survive leader
// failover; the monitors are asked in parallel, so the call costs one
// round trip however large the quorum. It succeeds if any monitor
// accepted, and returns once every monitor has answered, with the
// newest map of each kind any of them answered: together with the
// pushes that follow, no epoch is missed.
func (c *Client) Subscribe(ctx context.Context, addr wire.Addr, kinds ...string) (Maps, error) {
	req := SubscribeReq{Addr: addr, Kinds: kinds}
	type answer struct {
		maps Maps
		err  error
	}
	answers := make(chan answer, len(c.mons)) // one send per monitor: no sender blocks
	for _, id := range c.mons {
		go func(id int) {
			resp, err := c.net.Call(ctx, c.self, Addr(id), req)
			if err != nil {
				answers <- answer{err: err}
				return
			}
			answers <- answer{maps: resp.(Maps)}
		}(id)
	}
	var newest Maps
	ok := false
	for range c.mons {
		if a := <-answers; a.err == nil {
			ok = true
			newest = newest.newer(a.maps)
		}
	}
	if !ok {
		return Maps{}, ErrNoMonitor
	}
	return newest, nil
}

// Join is a daemon's way into the cluster: it submits boot, the op that
// marks the daemon up, and while the op waits for its proposal the
// client's own address is subscribed to pushes of kind. Join returns
// once both are answered, with the newer of the map the commit and the
// map the subscription were answered with: the daemon starts on the
// epoch that marked it up or a later one, and every epoch after the
// subscription was installed is pushed to it.
func (c *Client) Join(ctx context.Context, kind string, boot types.Op) (Maps, error) {
	var current Maps
	subscribed := make(chan error, 1)
	go func() {
		var err error
		current, err = c.Subscribe(ctx, c.self, kind)
		subscribed <- err
	}()
	committed, bootErr := c.Submit(ctx, types.Update{Ops: []types.Op{boot}})
	subErr := <-subscribed
	switch {
	case bootErr != nil:
		return Maps{}, fmt.Errorf("boot: %w", bootErr)
	case subErr != nil:
		return Maps{}, fmt.Errorf("subscribe: %w", subErr)
	}
	return committed.newer(current), nil
}

// newer returns, kind by kind, the newer of a's and b's maps; a nil map
// is older than any.
func (a Maps) newer(b Maps) Maps {
	if b.OSD != nil && (a.OSD == nil || b.OSD.Epoch > a.OSD.Epoch) {
		a.OSD = b.OSD
	}
	if b.MDS != nil && (a.MDS == nil || b.MDS.Epoch > a.MDS.Epoch) {
		a.MDS = b.MDS
	}
	return a
}

// Beacon reports daemon liveness to every reachable monitor (so the
// next leader still has recent observations after failover). Best
// effort: a missed beacon is indistinguishable from a slow network.
func (c *Client) Beacon(ctx context.Context, kind string, id int) {
	for _, m := range c.mons {
		//lint:ignore errdrop beacons are fire-and-forget liveness hints; the monitor's timeout, not this call, decides up/down
		_, _ = c.net.Call(ctx, c.self, Addr(m), BeaconReq{Kind: kind, ID: id})
	}
}

// Log appends to the centralized cluster log (Section 5.1.3); failures
// are reported but the log is advisory, so callers may ignore them.
func (c *Client) Log(ctx context.Context, level, msg string) error {
	for _, id := range c.mons {
		if _, err := c.net.Call(ctx, c.self, Addr(id), LogReq{Level: level, Source: string(c.self), Msg: msg}); err == nil {
			return nil
		}
	}
	return ErrNoMonitor
}

// GetLog returns cluster-log entries with Seq greater than last, oldest
// first. A monitor keeps only its newest logCap entries, so when last is
// older than those the entries start later than last+1: the caller sees
// the entries it missed as a jump in Seq.
func (c *Client) GetLog(ctx context.Context, last int) ([]LogEntry, error) {
	for _, id := range c.mons {
		resp, err := c.net.Call(ctx, c.self, Addr(id), GetLogReq{Last: last})
		if err != nil {
			continue
		}
		return resp.(GetLogResp).Entries, nil
	}
	return nil, ErrNoMonitor
}

// ---- Convenience wrappers over Submit: the Malacology write API ----

// SetService writes a service-metadata key on the given map kind.
func (c *Client) SetService(ctx context.Context, mapKind, key, value string) error {
	return c.submit(ctx, types.Op{Code: types.OpServiceSet, Map: mapKind, Key: key, Value: value})
}

// DelService removes a service-metadata key.
func (c *Client) DelService(ctx context.Context, mapKind, key string) error {
	return c.submit(ctx, types.Op{Code: types.OpServiceDel, Map: mapKind, Key: key})
}

// InstallClass installs (or upgrades) a dynamic object-interface class.
// The script body is embedded in the OSDMap and propagated to every
// object storage daemon (Section 4.2).
func (c *Client) InstallClass(ctx context.Context, name, script, category string) error {
	return c.submit(ctx, types.Op{Code: types.OpClassInstall, Key: name, Value: script, Aux: category})
}

// RemoveClass uninstalls a dynamic class.
func (c *Client) RemoveClass(ctx context.Context, name string) error {
	return c.submit(ctx, types.Op{Code: types.OpClassRemove, Key: name})
}

// SetBalancerVersion points the MDS cluster at a new Mantle policy
// object (Section 5.1.1); this is the versioning CLI command the paper
// adds.
func (c *Client) SetBalancerVersion(ctx context.Context, version string) error {
	return c.submit(ctx, types.Op{Code: types.OpBalancerSet, Value: version})
}

// OSDBootOp is the op that records an OSD as up (a daemon's Join op).
func OSDBootOp(id int, addr wire.Addr) types.Op {
	return types.Op{Code: types.OpOSDBoot, Key: strconv.Itoa(id), Value: string(addr)}
}

// MarkOSDDown records an OSD as down.
func (c *Client) MarkOSDDown(ctx context.Context, id int) error {
	return c.submit(ctx, types.Op{Code: types.OpOSDDown, Key: strconv.Itoa(id)})
}

// MDSBootOp is the op that records a metadata server rank as up (a
// rank's Join op).
func MDSBootOp(rank int, addr wire.Addr) types.Op {
	return types.Op{Code: types.OpMDSBoot, Key: strconv.Itoa(rank), Value: string(addr)}
}

// MarkMDSDown records a metadata server rank as down.
func (c *Client) MarkMDSDown(ctx context.Context, rank int) error {
	return c.submit(ctx, types.Op{Code: types.OpMDSDown, Key: strconv.Itoa(rank)})
}

// ResizePool grows a pool's placement-group count, triggering
// background PG splitting on the object storage daemons (§4.4).
func (c *Client) ResizePool(ctx context.Context, name string, pgNum int) error {
	return c.submit(ctx, types.Op{Code: types.OpPoolResize, Key: name, Value: strconv.Itoa(pgNum)})
}

// CreatePool creates a RADOS pool.
func (c *Client) CreatePool(ctx context.Context, name string, pgNum, replicas int) error {
	return c.submit(ctx, PoolCreateOp(name, pgNum, replicas))
}

// PoolCreateOp is the op that creates a RADOS pool, for callers that
// commit several pools (or other ops) as one update.
func PoolCreateOp(name string, pgNum, replicas int) types.Op {
	return types.Op{
		Code: types.OpPoolCreate, Key: name,
		Value: strconv.Itoa(pgNum), Aux: strconv.Itoa(replicas),
	}
}
