package workload

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/cdc"
)

func TestDupCorpusDeterministic(t *testing.T) {
	cfg := DupCorpusConfig{Size: 8 << 20, DupRatio: 0.5, SegmentSize: 1 << 20}
	a := GenerateDupCorpus(42, cfg)
	b := GenerateDupCorpus(42, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	if len(a) != cfg.Size {
		t.Fatalf("corpus size = %d, want %d", len(a), cfg.Size)
	}
	c := GenerateDupCorpus(43, cfg)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestDupCorpusMeasuredRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB corpora per ratio")
	}
	// 1 MiB segments over a 64 MiB corpus: the quota pacing lands the
	// emitted duplicate fraction on the request exactly for these
	// ratios, and boundary-chunk resynchronization (~2 average chunks
	// per repeated segment) costs well under the 2% tolerance.
	for _, want := range []float64{0.25, 0.50, 0.75} {
		corpus := GenerateDupCorpus(7, DupCorpusConfig{
			Size:        64 << 20,
			DupRatio:    want,
			SegmentSize: 1 << 20,
		})
		got, err := measureDupRatio(corpus, nil)
		if err != nil {
			t.Fatalf("measureDupRatio(ratio=%v): %v", want, err)
		}
		if math.Abs(got-want) > 0.02 {
			t.Errorf("requested dup ratio %.2f, measured %.4f (|err| > 0.02)", want, got)
		}
	}
}

func TestDupCorpusAllUnique(t *testing.T) {
	corpus := GenerateDupCorpus(1, DupCorpusConfig{Size: 4 << 20, DupRatio: 0, SegmentSize: 1 << 20})
	got, err := measureDupRatio(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.001 {
		t.Fatalf("all-unique corpus measured dup ratio %.4f", got)
	}
}

// measureDupRatio chunks the corpus and returns the fraction of bytes
// belonging to chunks whose content already appeared earlier in the
// stream — exactly the fraction a content-addressed store would not
// re-store. cfg may be nil for the default chunking parameters.
func measureDupRatio(data []byte, cfg *cdc.Config) (float64, error) {
	chunks, err := cdc.Split(data, cfg)
	if err != nil {
		return 0, err
	}
	seen := make(map[[sha256.Size]byte]bool, len(chunks))
	dup := 0
	for _, c := range chunks {
		h := sha256.Sum256(data[c.Off : c.Off+c.Len])
		if seen[h] {
			dup += c.Len
		} else {
			seen[h] = true
		}
	}
	if len(data) == 0 {
		return 0, nil
	}
	return float64(dup) / float64(len(data)), nil
}
