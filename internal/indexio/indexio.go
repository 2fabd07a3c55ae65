// Package indexio serializes a seed.SegmentedIndex to a versioned,
// checksummed binary file so multi-run workloads stop paying the index
// rebuild: `genax index -out` writes the cache, and `genax align`, genaxd
// and the benchmark load it back after validating that it matches the
// reference and geometry in hand.
//
// There is one format, GAXI v3 (format.go): page-aligned, little-endian,
// fixed-width sections holding seed.Tables exactly as the seed stage reads
// them — presence bitmap, rank prefix, compressed start table, positions —
// plus the reference itself, so a mapped index is self-contained and the
// genome never needs a heap copy. OpenMapped uses the file in place; Read
// decodes it into fresh heap. A file of any other version is rejected with
// "unsupported format version N (current 3)", which callers treat as a
// stale cache and rebuild.
//
// The file is self-validating — a cache built from a different reference,
// geometry, or code version is rejected, never silently used — and every
// length that sizes an allocation or a view is bounds-checked against the
// file size first.
package indexio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"

	"genax/internal/dna"
	"genax/internal/seed"
)

// Magic identifies an index cache file.
const Magic = "GAXI"

// Version is the one format version this package reads and writes.
const Version = 3

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

// Write serializes sx, built from ref, to w with a single shard group. Use
// WriteShards to partition the segments into shard groups for
// bounded-residency streaming.
func Write(w io.Writer, sx *seed.SegmentedIndex, ref dna.Seq) error {
	return WriteShards(w, sx, ref, 0)
}

// WriteFile writes the cache to path via a same-directory temp file and
// rename, so a crashed or concurrent writer can never leave a torn cache
// at the final name.
func WriteFile(path string, sx *seed.SegmentedIndex, ref dna.Seq) error {
	return WriteFileShards(path, sx, ref, 0)
}

// WriteFileShards is WriteFile with an explicit shard-group size; see
// WriteShards.
func WriteFileShards(path string, sx *seed.SegmentedIndex, ref dna.Seq, groupSize int) error {
	tmp, err := os.CreateTemp(filepathDir(path), ".gaxi-*")
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

// filepathDir is filepath.Dir without pulling in path/filepath for one
// call on slash-free inputs too.
func filepathDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			if i == 0 {
				return path[:1]
			}
			return path[:i]
		}
	}
	return "."
}

// Read parses an index cache and re-binds it to ref, which must be the
// exact reference the cache was built from (verified by length and hash).
// The returned index is a fresh heap copy validated segment by segment (use
// OpenMapped for the zero-copy path). Any corruption the CRC or structural
// checks catch surfaces as an error, never a panic, and the trailing CRC is
// verified before any length field is trusted.
func Read(r io.Reader, ref dna.Seq) (*seed.SegmentedIndex, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("indexio: file too short (%d bytes) to be an index cache", len(raw))
	}
	payload, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("indexio: checksum mismatch (file %08x, computed %08x): cache is corrupt", sum, got)
	}
	h, err := parseHeader(raw, int64(len(raw)))
	if err != nil {
		return nil, err
	}
	if h.refLen != len(ref) {
		return nil, fmt.Errorf("indexio: cache built for a %d-base reference, have %d bases", h.refLen, len(ref))
	}
	if got := RefHash(ref); got != h.refHash {
		return nil, fmt.Errorf("indexio: reference hash mismatch (cache %016x, have %016x): cache was built from a different reference", h.refHash, got)
	}
	return h.bind(raw, ref, false)
}

// ReadFile loads the cache at path; see Read.
func ReadFile(path string, ref dna.Seq) (*seed.SegmentedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, ref)
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
