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
func (c *Client) Submit(ctx context.Context, u types.Update) error {
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
				return nil
			}
			lastErr = fmt.Errorf("mon: submit rejected: %s", r.Err)
			if r.Err != "not leader" {
				return lastErr
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return lastErr
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
// accepted, and returns once every monitor has answered.
func (c *Client) Subscribe(ctx context.Context, addr wire.Addr, kinds ...string) error {
	req := SubscribeReq{Addr: addr, Kinds: kinds}
	errs := make(chan error, len(c.mons)) // one send per monitor: no sender blocks
	for _, id := range c.mons {
		go func(id int) {
			_, err := c.net.Call(ctx, c.self, Addr(id), req)
			errs <- err
		}(id)
	}
	ok := false
	for range c.mons {
		if <-errs == nil {
			ok = true
		}
	}
	if !ok {
		return ErrNoMonitor
	}
	return nil
}

// Join is a daemon's way into the cluster: boot submits the update that
// marks the daemon up, and while it waits for its proposal the client's
// own address is subscribed to pushes of kind. The push of the epoch
// that marks the daemon up then already has it as a target, and one map
// read after Join covers whatever was committed before. Join returns
// once both are done.
func (c *Client) Join(ctx context.Context, kind string, boot func() error) error {
	subscribed := make(chan error, 1)
	go func() { subscribed <- c.Subscribe(ctx, c.self, kind) }()
	bootErr := boot()
	subErr := <-subscribed
	switch {
	case bootErr != nil:
		return fmt.Errorf("boot: %w", bootErr)
	case subErr != nil:
		return fmt.Errorf("subscribe: %w", subErr)
	}
	return nil
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

// GetLog returns cluster-log entries with Seq greater than last.
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
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpServiceSet, Map: mapKind, Key: key, Value: value,
	}}})
}

// DelService removes a service-metadata key.
func (c *Client) DelService(ctx context.Context, mapKind, key string) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpServiceDel, Map: mapKind, Key: key,
	}}})
}

// InstallClass installs (or upgrades) a dynamic object-interface class.
// The script body is embedded in the OSDMap and propagated to every
// object storage daemon (Section 4.2).
func (c *Client) InstallClass(ctx context.Context, name, script, category string) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpClassInstall, Key: name, Value: script, Aux: category,
	}}})
}

// RemoveClass uninstalls a dynamic class.
func (c *Client) RemoveClass(ctx context.Context, name string) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpClassRemove, Key: name,
	}}})
}

// SetBalancerVersion points the MDS cluster at a new Mantle policy
// object (Section 5.1.1); this is the versioning CLI command the paper
// adds.
func (c *Client) SetBalancerVersion(ctx context.Context, version string) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpBalancerSet, Value: version,
	}}})
}

// BootOSD records an OSD as up.
func (c *Client) BootOSD(ctx context.Context, id int, addr wire.Addr) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpOSDBoot, Key: strconv.Itoa(id), Value: string(addr),
	}}})
}

// MarkOSDDown records an OSD as down.
func (c *Client) MarkOSDDown(ctx context.Context, id int) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpOSDDown, Key: strconv.Itoa(id),
	}}})
}

// BootMDS records a metadata server rank as up.
func (c *Client) BootMDS(ctx context.Context, rank int, addr wire.Addr) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpMDSBoot, Key: strconv.Itoa(rank), Value: string(addr),
	}}})
}

// MarkMDSDown records a metadata server rank as down.
func (c *Client) MarkMDSDown(ctx context.Context, rank int) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpMDSDown, Key: strconv.Itoa(rank),
	}}})
}

// ResizePool grows a pool's placement-group count, triggering
// background PG splitting on the object storage daemons (§4.4).
func (c *Client) ResizePool(ctx context.Context, name string, pgNum int) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{{
		Code: types.OpPoolResize, Key: name, Value: strconv.Itoa(pgNum),
	}}})
}

// CreatePool creates a RADOS pool.
func (c *Client) CreatePool(ctx context.Context, name string, pgNum, replicas int) error {
	return c.Submit(ctx, types.Update{Ops: []types.Op{PoolCreateOp(name, pgNum, replicas)}})
}

// PoolCreateOp is the op that creates a RADOS pool, for callers that
// commit several pools (or other ops) as one update.
func PoolCreateOp(name string, pgNum, replicas int) types.Op {
	return types.Op{
		Code: types.OpPoolCreate, Key: name,
		Value: strconv.Itoa(pgNum), Aux: strconv.Itoa(replicas),
	}
}
