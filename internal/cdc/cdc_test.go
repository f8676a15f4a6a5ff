package cdc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refCut is a deliberately naive reference implementation of the same
// cut-point rule: no loop splitting, no bounds hoisting — just the
// FastCDC definition transcribed. The production Cut must agree with it
// byte-for-byte on every input; any divergence means the optimized loop
// changed the on-disk chunk boundaries.
func refCut(data []byte, cfg *Config) int {
	if len(data) <= cfg.MinSize {
		return len(data)
	}
	var fp uint64
	for i := cfg.MinSize; i < len(data); i++ {
		if i >= cfg.MaxSize {
			return cfg.MaxSize
		}
		fp = (fp << 1) + gear[data[i]]
		mask := cfg.maskHard
		if i >= cfg.AvgSize {
			mask = cfg.maskEasy
		}
		if fp&mask == 0 {
			return i + 1
		}
	}
	n := len(data)
	if n > cfg.MaxSize {
		n = cfg.MaxSize
	}
	return n
}

func refSplit(data []byte, cfg *Config) []Chunk {
	var out []Chunk
	off := 0
	for off < len(data) {
		n := refCut(data[off:], cfg)
		out = append(out, Chunk{Off: off, Len: n})
		off += n
	}
	return out
}

func mustConfig(t *testing.T, c Config) *Config {
	t.Helper()
	if err := c.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return &c
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNormalizeDefaults(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.MinSize != DefaultMinSize || c.AvgSize != DefaultAvgSize || c.MaxSize != DefaultMaxSize {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.NormLevel != 0 {
		t.Fatalf("Normalize rewrote NormLevel to %d; it must stay caller-owned", c.NormLevel)
	}
	if c.maskHard == 0 || c.maskEasy == 0 || c.maskHard <= c.maskEasy {
		t.Fatalf("masks wrong: hard=%x easy=%x", c.maskHard, c.maskEasy)
	}
}

// TestNormalizePartialDefaults pins the independent-defaulting rule:
// any unset field is derived from the rest rather than erroring.
func TestNormalizePartialDefaults(t *testing.T) {
	c := Config{AvgSize: 1024}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.MinSize != 256 || c.MaxSize != 8192 {
		t.Fatalf("relative defaults wrong: %+v", c)
	}
	c2 := Config{MinSize: 100}
	if err := c2.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c2.AvgSize != DefaultAvgSize || c2.MaxSize != DefaultMaxSize {
		t.Fatalf("size defaults wrong: %+v", c2)
	}
}

// TestNormalizeNormLevelSentinel: 0 means the default level, a negative
// value disables normalization (both masks collapse to the single-mask
// gear CDC mask), and Normalize is idempotent in both cases.
func TestNormalizeNormLevelSentinel(t *testing.T) {
	lvl := func(c Config) (uint64, uint64) {
		t.Helper()
		if err := c.Normalize(); err != nil {
			t.Fatal(err)
		}
		first := c
		if err := c.Normalize(); err != nil {
			t.Fatal(err)
		}
		if c != first {
			t.Fatalf("Normalize not idempotent: %+v then %+v", first, c)
		}
		return c.maskHard, c.maskEasy
	}
	defHard, defEasy := lvl(Config{})
	expHard, expEasy := lvl(Config{NormLevel: DefaultNormLevel})
	if defHard != expHard || defEasy != expEasy {
		t.Fatalf("NormLevel 0 != explicit default level: %x/%x vs %x/%x", defHard, defEasy, expHard, expEasy)
	}
	offHard, offEasy := lvl(Config{NormLevel: -1})
	if offHard != offEasy {
		t.Fatalf("disabled normalization must use one mask, got %x/%x", offHard, offEasy)
	}
}

func TestNormalizeRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{MinSize: 1, AvgSize: 100, MaxSize: 400},               // avg not power of two
		{MinSize: 256, AvgSize: 128, MaxSize: 400},             // min >= avg
		{MinSize: 1, AvgSize: 128, MaxSize: 128},               // max <= avg
		{MinSize: 1, AvgSize: 128, MaxSize: 400, NormLevel: 9}, // level >= log2(avg)
	}
	for i, c := range bad {
		if err := c.Normalize(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestSplitCoversInputExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := mustConfig(t, Config{})
	for _, n := range []int{0, 1, DefaultMinSize - 1, DefaultMinSize, DefaultAvgSize, DefaultMaxSize, DefaultMaxSize + 1, 1 << 20} {
		data := randBytes(rng, n)
		chunks, err := Split(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, c := range chunks {
			if c.Off != off {
				t.Fatalf("n=%d: gap/overlap at %d (got off %d)", n, off, c.Off)
			}
			if c.Len <= 0 {
				t.Fatalf("n=%d: empty chunk at %d", n, off)
			}
			off += c.Len
		}
		if off != n {
			t.Fatalf("n=%d: chunks cover %d bytes", n, off)
		}
		if n == 0 && len(chunks) != 0 {
			t.Fatalf("empty input produced %d chunks", len(chunks))
		}
	}
}

func TestChunkSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := mustConfig(t, Config{})
	data := randBytes(rng, 4<<20)
	chunks, err := Split(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		last := i == len(chunks)-1
		if c.Len > cfg.MaxSize {
			t.Fatalf("chunk %d: len %d > max %d", i, c.Len, cfg.MaxSize)
		}
		if !last && c.Len < cfg.MinSize {
			t.Fatalf("chunk %d: len %d < min %d (not last)", i, c.Len, cfg.MinSize)
		}
	}
	// Normalized chunking should land the mean within a factor of two
	// of the configured average on random data.
	mean := len(data) / len(chunks)
	if mean < cfg.AvgSize/2 || mean > cfg.AvgSize*2 {
		t.Fatalf("mean chunk %d not near avg %d", mean, cfg.AvgSize)
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	configs := []*Config{
		mustConfig(t, Config{}),
		mustConfig(t, Config{MinSize: 64, AvgSize: 256, MaxSize: 1024, NormLevel: 2}),
		mustConfig(t, Config{MinSize: 64, AvgSize: 256, MaxSize: 1024, NormLevel: -1}), // normalization disabled
		mustConfig(t, Config{MinSize: 512, AvgSize: 4096, MaxSize: 8192, NormLevel: 3}),
		mustConfig(t, Config{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 16 << 10, NormLevel: 2}), // the benchmark's dedup workload
	}
	for ci, cfg := range configs {
		check := func(what string, data []byte) {
			t.Helper()
			got, err := Split(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refSplit(data, cfg)
			if len(got) != len(want) {
				t.Fatalf("cfg %d %s n=%d: %d chunks vs reference %d", ci, what, len(data), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg %d %s n=%d: chunk %d = %+v, reference %+v", ci, what, len(data), i, got[i], want[i])
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			check(fmt.Sprintf("trial %d", trial), shapedInput(rng, trial%3, rng.Intn(256*1024)))
		}
		// Inputs ending on a size bound or one byte either side of it,
		// where the end of the input, not the hash, may cut the last chunk.
		for _, bound := range []int{cfg.MinSize, cfg.AvgSize, cfg.MaxSize} {
			for n := bound - 1; n <= bound+1; n++ {
				for shape := 0; shape < 3; shape++ {
					check(fmt.Sprintf("shape %d", shape), shapedInput(rng, shape, n))
				}
			}
		}
	}
}

// shapedInput returns n bytes of one of three shapes: random (0), one
// repeated byte (1; long runs defeat naive hash mixing) or periodic (2).
func shapedInput(rng *rand.Rand, shape, n int) []byte {
	switch shape {
	case 0:
		return randBytes(rng, n)
	case 1:
		return bytes.Repeat([]byte{byte(n)}, n)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 7)
	}
	return data
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randBytes(rng, 1<<20)
	a, err := Split(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs across runs", i)
		}
	}
}

// chunkSet collects the byte content of each chunk (as string keys) so
// edit-stability tests can count how many chunks survive an edit.
func chunkSet(t *testing.T, data []byte, cfg *Config) map[string]int {
	t.Helper()
	chunks, err := Split(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]int)
	for _, c := range chunks {
		set[string(data[c.Off:c.Off+c.Len])]++
	}
	return set
}

// sharedFraction returns the fraction of b's chunks (by count) whose
// content also appears in a.
func sharedFraction(a, b map[string]int) float64 {
	shared, total := 0, 0
	for content, n := range b {
		total += n
		if m := a[content]; m > 0 {
			if n < m {
				shared += n
			} else {
				shared += m
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(shared) / float64(total)
}

// TestCutPointStabilityUnderEdits is the property content-defined
// chunking exists for: a small insert or delete in the middle of a
// large input must only perturb the chunks around the edit — the vast
// majority of chunk content (and therefore block hashes) must survive.
// Fixed-size chunking would shift every boundary after the edit and
// share ~0%.
func TestCutPointStabilityUnderEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := mustConfig(t, Config{})
	orig := randBytes(rng, 2<<20)
	origSet := chunkSet(t, orig, cfg)

	edits := []struct {
		name string
		mut  func() []byte
	}{
		{"insert-16B-middle", func() []byte {
			mid := len(orig) / 2
			ins := randBytes(rng, 16)
			return append(append(append([]byte{}, orig[:mid]...), ins...), orig[mid:]...)
		}},
		{"delete-16B-middle", func() []byte {
			mid := len(orig) / 2
			return append(append([]byte{}, orig[:mid]...), orig[mid+16:]...)
		}},
		{"insert-4KiB-quarter", func() []byte {
			at := len(orig) / 4
			ins := randBytes(rng, 4096)
			return append(append(append([]byte{}, orig[:at]...), ins...), orig[at:]...)
		}},
		{"overwrite-1B", func() []byte {
			out := append([]byte{}, orig...)
			out[len(out)/3] ^= 0xff
			return out
		}},
	}
	for _, e := range edits {
		edited := e.mut()
		frac := sharedFraction(origSet, chunkSet(t, edited, cfg))
		if frac < 0.95 {
			t.Errorf("%s: only %.1f%% of chunks survived the edit (want >= 95%%)", e.name, frac*100)
		}
	}
}

// TestPrefixStability pins the local-boundary property directly: chunk
// boundaries strictly before an edit point are identical, and the
// chunker resynchronizes within a few chunks after it.
func TestPrefixStability(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := mustConfig(t, Config{})
	orig := randBytes(rng, 1<<20)
	mid := len(orig) / 2
	edited := append(append(append([]byte{}, orig[:mid]...), 0xAB), orig[mid:]...)

	a, _ := Split(orig, cfg)
	b, _ := Split(edited, cfg)
	// Every chunk that ends before the edit point must be unchanged.
	i := 0
	for ; i < len(a) && i < len(b); i++ {
		if a[i].Off+a[i].Len > mid {
			break
		}
		if a[i] != b[i] {
			t.Fatalf("chunk %d before edit changed: %+v vs %+v", i, a[i], b[i])
		}
	}
	if i == 0 {
		t.Fatal("edit point too early to test prefix stability")
	}
}

// TestSplitSharedConfigConcurrent: Split must not write through the
// caller's *Config, so clients sharing one (un-normalized) config can
// split concurrently — under -race a write to the shared struct fails
// the test — and still get the cut points of a private normalized copy.
func TestSplitSharedConfigConcurrent(t *testing.T) {
	shared := &Config{MinSize: 256, AvgSize: 1024, MaxSize: 4096}
	before := *shared
	data := randBytes(rand.New(rand.NewSource(9)), 1<<20)
	want := refSplit(data, mustConfig(t, before))

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := Split(data, shared)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shared-config split diverged from the reference: %d vs %d chunks", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if *shared != before {
		t.Fatalf("Split rewrote the caller's config: %+v, was %+v", *shared, before)
	}
}
