// Package indexio serializes a seed.SegmentedIndex to a versioned,
// checksummed binary file so multi-run workloads stop paying the index
// rebuild: `genax index -out` writes the cache, and `genax align`, genaxd
// and the benchmark load it back after validating that it matches the
// reference and geometry in hand.
//
// There is one format, GAXI v4 (format.go): page-aligned, little-endian,
// fixed-width sections holding seed.Tables exactly as the seed stage reads
// them — one presence row table per set group of up to 8 segments, then
// each segment's compressed start table, positions and rank prefix — plus
// the reference itself, so a mapped index is self-contained and the genome
// never needs a heap copy. OpenMapped is the one reader: it uses the file
// in place. Open adds the pin to the inputs in hand, and Ensure is the one
// "use the cache or rebuild it" decision every caller shares. A file of
// any other version — v3's per-segment presence bitmaps included — is
// rejected with "unsupported format version N (current 4): rebuild the
// cache", which Ensure treats as a stale cache and rebuilds.
//
// The file is self-validating — a cache built from a different reference,
// geometry, or code version is rejected, never silently used — and every
// length that sizes an allocation or a view is bounds-checked against the
// file size first.
package indexio

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"genax/internal/dna"
	"genax/internal/seed"
)

// Magic identifies an index cache file.
const Magic = "GAXI"

// Version is the one format version this package reads and writes.
const Version = 4

// RefHash returns the FNV-1a digest of the reference bases — the identity
// the cache header pins, so a file can never be loaded against a different
// genome.
func RefHash(ref dna.Seq) uint64 {
	h := fnv.New64a()
	var buf [4096]byte
	for i := 0; i < len(ref); {
		n := len(buf)
		if rem := len(ref) - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			buf[j] = byte(ref[i+j])
		}
		_, _ = h.Write(buf[:n])
		i += n
	}
	return h.Sum64()
}

// WriteFileShards writes the cache to path via a same-directory temp file
// and rename, so a crashed or concurrent writer can never leave a torn
// cache at the final name. groupSize is the shard-group size; see
// WriteShards.
func WriteFileShards(path string, sx *seed.SegmentedIndex, ref dna.Seq, groupSize int) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gaxi-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	if err := WriteShards(tmp, sx, ref, groupSize); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// CachePath names the cache file for a (reference, geometry, format
// version) triple inside dir:
// genax-<refhash>-k<k>-s<segLen>-o<overlap>-v<version>.gaxi. The format
// version is part of the content address, so caches written by different
// releases can never collide: a version bump simply re-populates the dir
// and the stale file is never opened. Callers that let users pick an
// explicit path skip this; the auto-load paths (genax align, genaxd) use it
// so the cache key can never be mismatched by hand.
func CachePath(dir string, ref dna.Seq, k, segLen, overlap int) (string, error) {
	if k < 1 || k > dna.MaxK {
		return "", fmt.Errorf("indexio: k-mer length %d out of range [1,%d]", k, dna.MaxK)
	}
	if segLen < 1 {
		return "", fmt.Errorf("indexio: segment length %d must be positive", segLen)
	}
	if overlap < 0 {
		return "", fmt.Errorf("indexio: negative overlap %d", overlap)
	}
	name := fmt.Sprintf("genax-%016x-k%d-s%d-o%d-v%d.gaxi", RefHash(ref), k, segLen, overlap, Version)
	if dir == "" {
		return name, nil
	}
	return dir + string(os.PathSeparator) + name, nil
}

// Open maps the cache at path (OpenMapped) and pins it to the inputs in
// hand: the reference by length and hash, the geometry field by field. A
// cache that is internally consistent but was built for anything else is
// refused, never aligned against.
func Open(path string, ref dna.Seq, k, segLen, overlap int) (*Mapped, error) {
	if k < 1 || segLen < 1 || overlap < 0 {
		return nil, fmt.Errorf("indexio: invalid geometry request (k=%d, segment=%d, overlap=%d)", k, segLen, overlap)
	}
	m, err := OpenMapped(path)
	if err != nil {
		return nil, err
	}
	if len(ref) != len(m.Ref()) || m.RefHash() != RefHash(ref) {
		_ = m.Close()
		return nil, fmt.Errorf("indexio: cache was built from a different reference")
	}
	if m.K() != k || m.SegLen() != segLen || m.Overlap() != overlap {
		err := fmt.Errorf("indexio: cache geometry (k=%d seg=%d overlap=%d) does not match the request (k=%d seg=%d overlap=%d)",
			m.K(), m.SegLen(), m.Overlap(), k, segLen, overlap)
		_ = m.Close()
		return nil, err
	}
	return m, nil
}

// Ensure is the one "use the cache or rebuild it" decision: it probes the
// cache at path and, when Probe gives a reason, builds the index from ref,
// writes it to path and reports that reason for the caller's log line; it
// then opens the cache (Open). The partition rule lives here and nowhere
// else: shards > 0 asks for that many shard groups and a cache with another
// partition is rebuilt; shards == 0 accepts any partition and writes one
// group when it rebuilds. A reused cache is never written.
func Ensure(path string, ref dna.Seq, k, segLen, overlap, shards int) (m *Mapped, reason string, err error) {
	if k < 1 || segLen < 1 {
		return nil, "", fmt.Errorf("indexio: invalid geometry request (k=%d, segment=%d)", k, segLen)
	}
	if reason = Probe(path, ref, k, segLen, overlap); reason == "" {
		if m, err = Open(path, ref, k, segLen, overlap); err != nil {
			return nil, "", err
		}
		numSegs := len(m.Index().Samples)
		want := GroupSizeForShards(numSegs, shards)
		if shards <= 0 || numSegs == 0 || m.ShardGroupSize() == want {
			return m, "", nil
		}
		reason = fmt.Sprintf("shard partition mismatch (cache %d segments/group, want %d)", m.ShardGroupSize(), want)
		_ = m.Close() // after the reason: Close drops the header it reads
	}
	sx, err := seed.BuildSegmentedIndex(ref, segLen, overlap, k)
	if err != nil {
		return nil, reason, err
	}
	if err := WriteFileShards(path, sx, ref, GroupSizeForShards(sx.NumSegments(), shards)); err != nil {
		return nil, reason, err
	}
	m, err = Open(path, ref, k, segLen, overlap)
	return m, reason, err
}
