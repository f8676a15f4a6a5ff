package rados

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// Watch/notify: clients register interest in an object and receive
// every notification sent to it — the RADOS primitive Ceph services use
// to coordinate around shared objects (and a natural companion to the
// class-based interfaces: a class mutates, a notify announces).
//
// Watches live in the primary OSD's memory. If the primary changes
// (failure, map change) the watch is lost, exactly as a Ceph watch
// times out; watchers detect this with WatchCheck and re-register.

// watchReq registers/unregisters a watcher on an object.
type watchReq struct {
	Pool    string
	Object  string
	Watcher wire.Addr // push endpoint
	ID      uint64    // client-chosen watch id
	Cancel  bool
}

// watchCheckReq asks the primary whether a watch is still registered.
type watchCheckReq struct {
	Pool    string
	Object  string
	ID      uint64
	Watcher wire.Addr
}

// notifyReq broadcasts a payload to an object's watchers.
type notifyReq struct {
	Pool    string
	Object  string
	Payload []byte
}

// notifyResp reports how many watchers acknowledged.
type notifyResp struct {
	Acked int
}

// NotifyEvent is delivered to watchers.
type NotifyEvent struct {
	Pool    string
	Object  string
	Payload []byte
}

// notifyPush is the wire form of an event push (includes the watch id
// so the client can route it).
type notifyPush struct {
	ID    uint64
	Event NotifyEvent
}

// watcherID identifies one registration: watch IDs are client-local, so
// the registry keys by (endpoint, id).
type watcherID struct {
	Addr wire.Addr
	ID   uint64
}

// watcherTable is the OSD-side registry.
type watcherTable struct {
	mu       sync.Mutex
	watchers map[string]map[watcherID]bool // keyed by pool/object
}

func newWatcherTable() *watcherTable {
	return &watcherTable{watchers: make(map[string]map[watcherID]bool)}
}

func watchKey(pool, object string) string { return pool + "/" + object }

func (w *watcherTable) add(pool, object string, id uint64, addr wire.Addr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := watchKey(pool, object)
	if w.watchers[k] == nil {
		w.watchers[k] = make(map[watcherID]bool)
	}
	w.watchers[k][watcherID{addr, id}] = true
}

func (w *watcherTable) remove(pool, object string, id uint64, addr wire.Addr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := watchKey(pool, object)
	delete(w.watchers[k], watcherID{addr, id})
	if len(w.watchers[k]) == 0 {
		delete(w.watchers, k)
	}
}

func (w *watcherTable) has(pool, object string, id uint64, addr wire.Addr) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.watchers[watchKey(pool, object)][watcherID{addr, id}]
}

func (w *watcherTable) snapshot(pool, object string) []watcherID {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []watcherID
	for wid := range w.watchers[watchKey(pool, object)] {
		out = append(out, wid)
	}
	return out
}

// handleWatch processes watch registration on the OSD.
func (o *OSD) handleWatch(r watchReq) OpReply {
	if r.Cancel {
		o.watchers.remove(r.Pool, r.Object, r.ID, r.Watcher)
		return OpReply{Result: OK}
	}
	o.watchers.add(r.Pool, r.Object, r.ID, r.Watcher)
	return OpReply{Result: OK}
}

// handleNotify pushes the payload to every watcher and counts acks.
func (o *OSD) handleNotify(ctx context.Context, r notifyReq) notifyResp {
	targets := o.watchers.snapshot(r.Pool, r.Object)
	acked := 0
	for _, wid := range targets {
		nctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := o.net.Call(nctx, o.Addr(), wid.Addr, notifyPush{
			ID:    wid.ID,
			Event: NotifyEvent{Pool: r.Pool, Object: r.Object, Payload: append([]byte(nil), r.Payload...)},
		})
		cancel()
		if err == nil {
			acked++
		} else {
			// Dead watcher: drop the registration (Ceph's watch timeout).
			o.watchers.remove(r.Pool, r.Object, wid.ID, wid.Addr)
		}
	}
	return notifyResp{Acked: acked}
}

// ---- client side ----

// WatchHandle is a registered watch.
type WatchHandle struct {
	c      *Client
	pool   string
	object string
	id     uint64
	events chan NotifyEvent
}

// Events returns the stream of notifications for this watch.
func (h *WatchHandle) Events() <-chan NotifyEvent { return h.events }

// Cancel unregisters the watch.
func (h *WatchHandle) Cancel(ctx context.Context) error {
	h.c.mu.Lock()
	delete(h.c.watches, h.id)
	h.c.mu.Unlock()
	_, err := h.c.doWatch(ctx, watchReq{
		Pool: h.pool, Object: h.object, ID: h.id, Watcher: h.c.self, Cancel: true,
	})
	return err
}

// Check reports whether the primary still holds this watch; false means
// the watch was lost (primary change) and should be re-registered.
func (h *WatchHandle) Check(ctx context.Context) (bool, error) {
	c := h.c
	_, acting, err := c.view.Load().locate(h.pool, h.object)
	if err != nil {
		return false, err
	}
	resp, err := c.net.Call(ctx, c.self, OSDAddr(acting[0]), watchCheckReq{
		Pool: h.pool, Object: h.object, ID: h.id, Watcher: c.self,
	})
	if err != nil {
		return false, err
	}
	return resp.(bool), nil
}

// Watch registers for notifications on an object, which arrive at the
// client's own endpoint.
func (c *Client) Watch(ctx context.Context, pool, object string) (*WatchHandle, error) {
	if !c.listen() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	if c.watches == nil {
		c.watches = make(map[uint64]*WatchHandle)
	}
	c.watchSeq++
	h := &WatchHandle{
		c: c, pool: pool, object: object, id: c.watchSeq,
		events: make(chan NotifyEvent, 16),
	}
	c.watches[h.id] = h
	c.mu.Unlock()

	if _, err := c.doWatch(ctx, watchReq{
		Pool: pool, Object: object, Watcher: c.self, ID: h.id,
	}); err != nil {
		c.mu.Lock()
		delete(c.watches, h.id)
		c.mu.Unlock()
		return nil, err
	}
	return h, nil
}

// doWatch routes a watch registration to the object's primary.
func (c *Client) doWatch(ctx context.Context, r watchReq) (OpReply, error) {
	_, acting, err := c.view.Load().locate(r.Pool, r.Object)
	if err != nil {
		if rerr := c.RefreshMap(ctx); rerr != nil {
			return OpReply{}, rerr
		}
		_, acting, err = c.view.Load().locate(r.Pool, r.Object)
		if err != nil {
			return OpReply{}, err
		}
	}
	resp, err := c.net.Call(ctx, c.self, OSDAddr(acting[0]), r)
	if err != nil {
		return OpReply{}, err
	}
	rep, ok := resp.(OpReply)
	if !ok {
		return OpReply{}, fmt.Errorf("rados: unexpected watch reply %T", resp)
	}
	return rep, ErrFor(rep.Result, rep.Detail)
}

// Notify sends payload to every watcher of the object, returning the
// number that acknowledged.
func (c *Client) Notify(ctx context.Context, pool, object string, payload []byte) (int, error) {
	_, acting, err := c.view.Load().locate(pool, object)
	if err != nil {
		return 0, err
	}
	resp, err := c.net.Call(ctx, c.self, OSDAddr(acting[0]), notifyReq{
		Pool: pool, Object: object, Payload: payload,
	})
	if err != nil {
		return 0, err
	}
	return resp.(notifyResp).Acked, nil
}

// handlePush receives a notification push on the client endpoint.
func (c *Client) handlePush(p notifyPush) (any, error) {
	c.mu.Lock()
	h := c.watches[p.ID]
	c.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("rados: no such watch %d", p.ID)
	}
	select {
	case h.events <- p.Event:
	default:
		// Slow consumer: drop rather than block the OSD's notify.
	}
	return true, nil
}
