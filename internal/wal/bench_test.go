package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkWALAppend measures durable appends/sec at increasing commit
// concurrency. Every append is individually committed (Append+Sync),
// so batch1 pays one fsync per record while batch64 lets the group
// commit amortize one fsync over many waiters. TestGroupCommitConcurrent
// pins the batching as a count of fsyncs.
func BenchmarkWALAppend(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{SegmentSize: 64 << 20})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer l.Close() //nolint:errcheck
			payload := make([]byte, 256)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(batch)
			for w := 0; w < batch; w++ {
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := l.Append(payload); err != nil {
							b.Error(err)
							return
						}
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkWALReplay measures recovery throughput: open a prebuilt log
// and replay every record. TestReplayThroughputFloor holds its MB/s at
// 100 or more.
func BenchmarkWALReplay(b *testing.B) {
	const records = 4096
	const recSize = 1024
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	payload := make([]byte, recSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	b.SetBytes(records * recSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, err := Open(dir, Options{})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		n := 0
		var bytes int64
		err = rl.Replay(func(lsn uint64, rec []byte) error {
			n++
			bytes += int64(len(rec))
			return nil
		})
		if err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if n != records || bytes != records*recSize {
			b.Fatalf("replayed %d records / %d bytes, want %d / %d", n, bytes, records, records*recSize)
		}
		if err := rl.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}
}
