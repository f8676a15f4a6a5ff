//go:build linux

package wire

import (
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The doorbell wakes Go's netpoller when a fabric delivery falls due.
// An idle runtime waits for its next timer in epoll_wait, which counts
// in whole milliseconds: a wait under 1 ms is rounded up to 1 ms and a
// longer one truncated, so while several deliveries are in flight each
// can land up to 1 ms after its delay. The doorbell is one timerfd,
// registered in the netpoller and armed for the earliest pending
// delivery. When it expires epoll_wait returns, and the scheduler fires
// the delivery's runtime timer, which stays the only source of delivery
// semantics. Nothing reads the fd: its expiry is only a wake-up. The
// waiter whose deadline the fd was armed for arms it for the next one
// once its timer has fired, so the doorbell needs no goroutine, and at
// delay 0, where nothing rings, it costs nothing.
//
// Inside a testing/synctest bubble time.Now is virtual, so the doorbell
// keeps its own clock (CLOCK_MONOTONIC, read by system call), never
// compares it with time.Now, and arms the fd with relative durations
// only. If the fd cannot be created or armed the doorbell goes dead, and
// delivery rests on the runtime timer alone.

const (
	clockMonotonic = 1       // CLOCK_MONOTONIC
	tfdNonblock    = 0x800   // TFD_NONBLOCK
	tfdCloexec     = 0x80000 // TFD_CLOEXEC
)

// doorbell is the queue of pending delivery deadlines behind the fd.
type doorbell struct {
	mu    sync.Mutex
	due   []int64 // guarded by mu; pending deadlines (ns on now's clock), ascending
	armed int64   // guarded by mu; the deadline the fd is armed for, 0 when disarmed
	dead  bool    // guarded by mu; set when the fd failed: ring does nothing

	now func() int64                // the doorbell's clock, in ns
	arm func(d time.Duration) error // sets the fd to expire once, d from now
	// fd keeps the timerfd open and registered in the netpoller (a File
	// closes its descriptor when it is collected); nil when the timerfd
	// could not be created, and in the queue's tests.
	fd *os.File
}

var bell = openDoorbell()

func ring(d time.Duration) int64 { return bell.ring(d) }
func woke(at int64)              { bell.woke(at) }

// ring queues the deadline of a runtime timer that was set just before
// it, d from now, and returns it for woke; 0 when the doorbell is dead.
// Because the timer is set first, the fd never expires before the timer
// is due.
func (b *doorbell) ring(d time.Duration) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return 0
	}
	now := b.now()
	at := now + int64(d)
	i, _ := slices.BinarySearch(b.due, at)
	b.due = slices.Insert(b.due, i, at)
	b.settleLocked(now, now)
	return at
}

// woke is called by the waiter of deadline at once its timer has fired.
// If the fd was armed for that deadline or an earlier one, it has expired
// or is about to: drop the deadlines that have passed and arm the fd for
// the next one. When the fd is armed for a later deadline, this one was
// dropped already and the fd is left to that deadline's waiter. A wait
// cut short calls nothing: its deadline stays queued until a later ring
// or woke finds it passed.
func (b *doorbell) woke(at int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead || b.armed == 0 || b.armed > at {
		return
	}
	// The deadline is read just after its timer is set, so the timer can
	// fire a moment before the clock reaches it; it has passed either way.
	now := b.now()
	b.settleLocked(now, max(now, at))
}

// settleLocked drops every deadline at or before passed and arms the fd,
// relative to now, for the earliest one left. The fd is one-shot and was
// armed for a dropped deadline, so with none left it has expired, or is
// about to with no one waiting, and counts as disarmed. Caller holds
// b.mu.
func (b *doorbell) settleLocked(now, passed int64) {
	n, _ := slices.BinarySearch(b.due, passed+1)
	b.due = slices.Delete(b.due, 0, n)
	switch {
	case len(b.due) == 0:
		b.armed = 0
	case b.due[0] != b.armed:
		if err := b.arm(time.Duration(b.due[0] - now)); err != nil {
			b.dead, b.due, b.armed = true, nil, 0
			return
		}
		b.armed = b.due[0]
	}
}

// openDoorbell creates the fd and registers it in the netpoller; the
// doorbell it returns is dead if the fd could not be created.
func openDoorbell() *doorbell {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &doorbell{now: monotonic, dead: true}
	}
	return &doorbell{
		now: monotonic,
		arm: func(d time.Duration) error { return armTimerfd(fd, d) },
		// A File made from a non-blocking descriptor is pollable:
		// NewFile registers it in the netpoller.
		fd: os.NewFile(fd, "wire-doorbell"),
	}
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// armTimerfd sets fd to expire once, d from now.
func armTimerfd(fd uintptr, d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// monotonic reads CLOCK_MONOTONIC, the clock the runtime's timers run
// on, without going through time.Now.
func monotonic() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
