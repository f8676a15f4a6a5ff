//go:build !linux

package wire

import "time"

// Off Linux there is no timerfd to wake the netpoller with, so the
// doorbell does nothing and delivery rests on the runtime timer alone.
func ring(time.Duration) int64 { return 0 }
func woke(int64)               {}
