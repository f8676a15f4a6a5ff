package workload

import "math/rand"

// Duplicate-heavy corpus generation for the dedup data path: the bench
// and chaos workloads need payloads whose *content-defined* duplicate
// fraction is controllable and reproducible. The generator emits the
// corpus as a sequence of segments; each segment is either fresh random
// bytes or a verbatim repeat of an earlier segment. Duplication is
// quota-paced — a segment repeats whenever the duplicate byte count has
// fallen behind DupRatio of the output — rather than coin-flipped, so
// the realized ratio tracks the request deterministically instead of
// with binomial noise. The seeded RNG only supplies fresh content and
// picks which earlier segment to repeat, so the same (seed, cfg) pair
// always yields the same bytes. Segments are much larger than the
// chunker's maximum chunk size, so a repeated segment re-chunks to
// (almost) all-duplicate blocks — only the chunks straddling segment
// boundaries are perturbed — and the measured dedup ratio lands within
// a couple percent of the requested one.

// DupCorpusConfig parameterizes GenerateDupCorpus.
type DupCorpusConfig struct {
	// Size is the corpus length in bytes.
	Size int
	// DupRatio in [0,1) is the fraction of bytes that repeat earlier
	// content. 0 yields an all-unique corpus.
	DupRatio float64
	// SegmentSize is the granularity of repetition; zero defaults to
	// 512 KiB. Larger segments track the requested ratio more tightly
	// (fewer boundary chunks lost to resynchronization).
	SegmentSize int
}

func (c *DupCorpusConfig) defaults() {
	if c.SegmentSize <= 0 {
		c.SegmentSize = 512 * 1024
	}
}

// GenerateDupCorpus builds a corpus of cfg.Size bytes where a DupRatio
// fraction repeats earlier segments. Deterministic in (seed, cfg).
func GenerateDupCorpus(seed int64, cfg DupCorpusConfig) []byte {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, cfg.Size)
	var segments [][]byte // previously emitted unique segments
	dupBytes := 0
	for len(out) < cfg.Size {
		n := cfg.SegmentSize
		if rem := cfg.Size - len(out); n > rem {
			n = rem
		}
		// Repeat an earlier segment whenever duplicate output has
		// fallen behind the requested fraction of what is emitted so
		// far. The first segment is always unique (nothing to repeat).
		if len(segments) > 0 && float64(dupBytes) < cfg.DupRatio*float64(len(out)) {
			src := segments[rng.Intn(len(segments))]
			if len(src) >= n {
				out = append(out, src[:n]...)
				dupBytes += n
				continue
			}
		}
		seg := make([]byte, n)
		rng.Read(seg)
		segments = append(segments, seg)
		out = append(out, seg...)
	}
	return out
}
