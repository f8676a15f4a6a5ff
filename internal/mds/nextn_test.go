package mds_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mds"
)

func TestNextNRejectsBadRange(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	cl := newClient(t, c, "client.1")
	ctx := ctxT(t, 10*time.Second)
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &roundTrip); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, -100} {
		if _, err := cl.NextN(ctx, "/seq", n); !errors.Is(err, mds.ErrBadRange) {
			t.Fatalf("NextN(%d) err = %v, want ErrBadRange", n, err)
		}
	}
	// The server rejects bad ranges too: a buggy client cannot move the
	// counter with a zero or negative N.
	resp, err := c.Net.Call(ctx, "client.rogue", mds.MDSAddr(0), mds.NextNReq{Path: "/seq", N: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.(mds.NextNResp); r.Status != mds.StInval {
		t.Fatalf("server status = %v, want EINVAL", r.Status)
	}
	// The counter did not move.
	v, err := cl.Next(ctx, "/seq")
	if err != nil || v != 1 {
		t.Fatalf("Next after rejected ranges = %d, %v; want 1", v, err)
	}
}

func TestNextNAmortizedAllocation(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	cl := newClient(t, c, "client.1")
	ctx := ctxT(t, 10*time.Second)
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &roundTrip); err != nil {
		t.Fatal(err)
	}
	before := calls(c, "client.1")
	first, err := cl.NextN(ctx, "/seq", 5)
	if err != nil || first != 1 {
		t.Fatalf("NextN(5) = %d, %v; want 1", first, err)
	}
	v, err := cl.Next(ctx, "/seq")
	if err != nil || v != 6 {
		t.Fatalf("Next after range = %d, %v; want 6 (range [1,6) consumed)", v, err)
	}
	first, err = cl.NextN(ctx, "/seq", 3)
	if err != nil || first != 7 {
		t.Fatalf("NextN(3) = %d, %v; want 7", first, err)
	}
	// Each range costs one round-trip regardless of its size; Open's
	// reply said the policy denies caching, so no acquire is asked.
	if got := calls(c, "client.1") - before; got != 3 {
		t.Fatalf("calls = %d, want 3 (two ranges + one single, no denied acquire)", got)
	}
}

func TestNextNQuotaBoundaryNeverSplits(t *testing.T) {
	// A cached grant whose remaining quota cannot cover the whole range
	// must yield the cap rather than split the range: ranges stay
	// contiguous across the quota boundary.
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	cl := newClient(t, c, "client.1")
	ctx := ctxT(t, 10*time.Second)
	pol := mds.CapPolicy{Cacheable: true, Quota: 10, Delay: 5 * time.Second}
	if err := cl.Open(ctx, "/seq", mds.TypeSequencer, &pol); err != nil {
		t.Fatal(err)
	}
	// First range fits the fresh grant: [1, 9), 8 of 10 quota used.
	first, err := cl.NextN(ctx, "/seq", 8)
	if err != nil || first != 1 {
		t.Fatalf("NextN(8) = %d, %v; want 1", first, err)
	}
	// Remaining quota (2) < 5: the cap is handed back and a fresh grant
	// serves [9, 14) — contiguous, no values skipped or reused.
	first, err = cl.NextN(ctx, "/seq", 5)
	if err != nil || first != 9 {
		t.Fatalf("NextN(5) across quota boundary = %d, %v; want 9", first, err)
	}
	// A range larger than the whole quota can never be served from a
	// grant; it falls through to the server-side allocation.
	first, err = cl.NextN(ctx, "/seq", 25)
	if err != nil || first != 14 {
		t.Fatalf("NextN(25) over quota = %d, %v; want 14", first, err)
	}
	// And the sequence keeps going where the big range ended.
	v, err := cl.Next(ctx, "/seq")
	if err != nil || v != 39 {
		t.Fatalf("Next after over-quota range = %d, %v; want 39", v, err)
	}
}

func TestNextNConcurrentClientsNeverOverlap(t *testing.T) {
	c := boot(t, core.Options{MDSs: 1, OSDs: 2})
	ctx := ctxT(t, 30*time.Second)
	pol := mds.CapPolicy{Cacheable: true, Quota: 20, Delay: 300 * time.Millisecond}
	setup := newClient(t, c, "client.setup")
	if err := setup.Open(ctx, "/seq", mds.TypeSequencer, &pol); err != nil {
		t.Fatal(err)
	}

	const clients, rangesEach, rangeLen = 3, 12, 7
	var mu sync.Mutex
	owner := map[uint64]string{}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := newClient(t, c, fmt.Sprintf("client.%d", i))
		name := fmt.Sprintf("c%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rangesEach; j++ {
				first, err := cl.NextN(ctx, "/seq", rangeLen)
				if err != nil {
					t.Errorf("%s NextN: %v", name, err)
					return
				}
				mu.Lock()
				for v := first; v < first+rangeLen; v++ {
					if prev, dup := owner[v]; dup {
						t.Errorf("value %d granted to both %s and %s", v, prev, name)
					}
					owner[v] = name
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := clients * rangesEach * rangeLen; len(owner) != want {
		t.Fatalf("distinct values = %d, want %d", len(owner), want)
	}
}
