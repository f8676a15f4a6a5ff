// Package cdc implements FastCDC content-defined chunking: the fast
// gear-hash rolling fingerprint with normalized chunking (the two-mask
// refinement that pulls the chunk-size distribution toward the average
// without Rabin's per-byte cost). It is the front half of the
// content-addressed dedup data path — payloads are split at
// content-determined boundaries so that an insert or delete only
// perturbs the chunks around the edit, and every untouched chunk keeps
// its hash and dedupes against the blocks already stored.
//
// The cut-point rule follows the FastCDC paper (Xia et al., USENIX ATC
// 2016): a rolling fingerprint fp = (fp << 1) + gear[b] is tested
// against a hard mask (more bits, fewer cuts) while the chunk is
// shorter than the average size, and against an easy mask (fewer bits,
// more cuts) after it, which squeezes the size distribution toward the
// average from both sides — "normalized chunking". The normalization
// level is the number of mask bits added/removed on each side of the
// average (level 2 here, the paper's sweet spot).
package cdc

import "fmt"

// Default chunking parameters. The averages are small relative to
// SesameFS-style object stores (which chunk at megabytes for WAN
// uploads) because the dedup unit here is the RADOS block object: small
// enough that partial overwrites re-ship little, large enough that the
// 32-byte hash plus manifest entry stays well under 1% overhead.
const (
	DefaultMinSize = 2 * 1024
	DefaultAvgSize = 8 * 1024
	DefaultMaxSize = 64 * 1024
	// DefaultNormLevel is the normalized-chunking level: the hard mask
	// carries log2(avg)+level bits, the easy mask log2(avg)-level.
	DefaultNormLevel = 2
)

// Config parameterizes a chunker. The zero value selects the defaults
// above, and each unset field defaults independently (a config with
// only AvgSize set derives MinSize and MaxSize from it); explicit
// values are validated by Normalize.
type Config struct {
	MinSize int // no cut point before this many bytes; 0 = AvgSize/4
	AvgSize int // target mean chunk size; must be a power of two
	MaxSize int // forced cut at this many bytes; 0 = 8*AvgSize
	// NormLevel is the normalized-chunking level. 0 selects
	// DefaultNormLevel; any negative value disables normalization
	// (degenerating to single-mask gear CDC), so level 0 stays
	// expressible alongside zero-value defaulting.
	NormLevel int

	maskHard uint64 // derived by Normalize
	maskEasy uint64 // derived by Normalize
}

// Normalize fills defaults, validates the configuration, and derives
// the two cut-point masks. Unset size fields default relative to
// AvgSize so a partially specified config stays coherent. It is
// idempotent (NormLevel is read, never rewritten) and must be called
// (directly or via Split) before Cut.
func (c *Config) Normalize() error {
	if c.AvgSize == 0 {
		c.AvgSize = DefaultAvgSize
	}
	if c.AvgSize <= 0 || c.AvgSize&(c.AvgSize-1) != 0 {
		return fmt.Errorf("cdc: AvgSize %d must be a positive power of two", c.AvgSize)
	}
	if c.MinSize == 0 {
		if c.MinSize = c.AvgSize / 4; c.MinSize == 0 {
			c.MinSize = 1
		}
	}
	if c.MaxSize == 0 {
		c.MaxSize = 8 * c.AvgSize
	}
	if c.MinSize <= 0 || c.MinSize >= c.AvgSize {
		return fmt.Errorf("cdc: MinSize %d must be in (0, AvgSize %d)", c.MinSize, c.AvgSize)
	}
	if c.MaxSize <= c.AvgSize {
		return fmt.Errorf("cdc: MaxSize %d must exceed AvgSize %d", c.MaxSize, c.AvgSize)
	}
	bits := 0
	for s := c.AvgSize; s > 1; s >>= 1 {
		bits++
	}
	level := c.NormLevel
	switch {
	case level == 0:
		level = DefaultNormLevel
	case level < 0:
		level = 0
	}
	if level >= bits {
		return fmt.Errorf("cdc: NormLevel %d must be below log2(AvgSize)=%d", level, bits)
	}
	c.maskHard = (1 << (bits + level)) - 1
	c.maskEasy = (1 << (bits - level)) - 1
	return nil
}

// gear is the byte-to-fingerprint substitution table. The constants are
// fixed (generated once from a splitmix64 stream with a pinned seed) so
// cut points — and therefore block hashes — are stable across builds
// and hosts: a chunk boundary is part of the on-disk format.
var gear = buildGear()

// gearLS is gear shifted left one bit, for the two-byte roll in Cut.
var gearLS = func() (t [256]uint64) {
	for i, g := range gear {
		t[i] = g << 1
	}
	return t
}()

func buildGear() [256]uint64 {
	// splitmix64 over a pinned seed: deterministic, well-mixed 64-bit
	// constants without carrying a 2 KiB literal table in source.
	var t [256]uint64
	state := uint64(0x3331_6c6f_6361_6c61) // "malacol13", pinned forever
	for i := range t {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

// Cut returns the length of the first chunk of data: the first
// content-defined cut point, bounded by [MinSize, MaxSize] (or
// len(data) when the remainder is shorter than MinSize — the caller is
// expected to be at end of stream). Config must be normalized.
func Cut(data []byte, cfg *Config) int {
	n := len(data)
	if n <= cfg.MinSize {
		return n
	}
	if n > cfg.MaxSize {
		n = cfg.MaxSize
	}
	norm := cfg.AvgSize
	if norm > n {
		norm = n
	}
	// Two bytes per iteration (FastCDC-2020): with gearLS = gear<<1, the
	// first byte's fingerprint is formed already shifted for the second
	// byte's roll — fp' = (fp<<2) + gearLS[b0] is the one-byte fp<<1, so
	// it is tested against mask<<1 — and adding gear[b1] completes the
	// second roll. The cut points are those of the one-byte loops below,
	// which take the odd byte each phase may end on.
	data = data[:n]
	hard, easy := cfg.maskHard, cfg.maskEasy
	hardLS, easyLS := hard<<1, easy<<1
	var fp uint64
	i := cfg.MinSize
	// Below the average size: the hard mask makes cuts rare, pushing
	// short chunks toward the average.
	for ; i+1 < norm; i += 2 {
		fp = (fp << 2) + gearLS[data[i]]
		if fp&hardLS == 0 {
			return i + 1
		}
		fp += gear[data[i+1]]
		if fp&hard == 0 {
			return i + 2
		}
	}
	for ; i < norm; i++ {
		fp = (fp << 1) + gear[data[i]]
		if fp&hard == 0 {
			return i + 1
		}
	}
	// Past the average: the easy mask makes cuts likely, pulling long
	// chunks back toward the average before the MaxSize backstop.
	for ; i+1 < n; i += 2 {
		fp = (fp << 2) + gearLS[data[i]]
		if fp&easyLS == 0 {
			return i + 1
		}
		fp += gear[data[i+1]]
		if fp&easy == 0 {
			return i + 2
		}
	}
	for ; i < n; i++ {
		fp = (fp << 1) + gear[data[i]]
		if fp&easy == 0 {
			return i + 1
		}
	}
	return i
}

// Chunk is one content-defined extent of the input.
type Chunk struct {
	Off int
	Len int
}

// Split chunks data in one pass and returns the extents in order.
// Offsets are contiguous and cover the input exactly. An empty input
// yields no chunks. cfg may be nil for the defaults. Split normalizes a
// copy, so goroutines may share one *Config, normalized or not.
func Split(data []byte, cfg *Config) ([]Chunk, error) {
	var local Config
	if cfg != nil {
		local = *cfg
	}
	cfg = &local
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	chunks := make([]Chunk, 0, len(data)/cfg.AvgSize+1)
	off := 0
	for off < len(data) {
		n := Cut(data[off:], cfg)
		chunks = append(chunks, Chunk{Off: off, Len: n})
		off += n
	}
	return chunks, nil
}
