package indexio

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genax/internal/dna"
	"genax/internal/seed"
)

func randSeq(r *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

func buildIndex(t *testing.T, ref dna.Seq, segLen, overlap, k int) *seed.SegmentedIndex {
	t.Helper()
	sx, err := seed.BuildSegmentedIndex(ref, segLen, overlap, k)
	if err != nil {
		t.Fatalf("BuildSegmentedIndex: %v", err)
	}
	return sx
}

func TestRoundTripHashIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		refLen, segLen, overlap, k int
	}{
		{10_000, 2048, 128, 6},
		{5000, 5000, 0, 4},  // single segment, no overlap
		{4097, 1024, 64, 8}, // ragged tail segment
		{100, 4096, 32, 12}, // segment shorter than segLen
		{3, 1024, 16, 5},    // reference shorter than k: empty windows
	} {
		ref := randSeq(r, tc.refLen)
		sx := buildIndex(t, ref, tc.segLen, tc.overlap, tc.k)
		m, err := Open(writeCacheFile(t, t.TempDir(), sx, ref, 0), ref, tc.k, tc.segLen, tc.overlap)
		if err != nil {
			t.Fatalf("%+v: Open: %v", tc, err)
		}
		got := m.Index()
		if got.Hash() != sx.Hash() {
			t.Errorf("%+v: loaded hash %016x != built hash %016x", tc, got.Hash(), sx.Hash())
		}
		if got.NumSegments() != sx.NumSegments() {
			t.Errorf("%+v: %d segments loaded, want %d", tc, got.NumSegments(), sx.NumSegments())
		}
		// The mapped index must answer lookups identically.
		codec, _ := dna.NewKmerCodec(tc.k) // every case's k is in range
		for id, si := range got.Samples {
			want := sx.Samples[id]
			if si.Offset != want.Offset || len(si.Ref) != len(want.Ref) {
				t.Fatalf("%+v seg %d: geometry (%d,%d) want (%d,%d)", tc, id, si.Offset, len(si.Ref), want.Offset, len(want.Ref))
			}
			for trial := 0; trial < 200; trial++ {
				pos := r.Intn(tc.refLen)
				if pos+tc.k > len(ref) {
					continue
				}
				km, _ := codec.Encode(ref, pos)
				hits, wantHits := si.Lookup(km), want.Lookup(km)
				if len(hits) != len(wantHits) {
					t.Fatalf("%+v seg %d pos %d: lookup diverged", tc, id, pos)
				}
				for i := range hits {
					if hits[i] != wantHits[i] {
						t.Fatalf("%+v seg %d pos %d: hit %d = %d, want %d", tc, id, pos, i, hits[i], wantHits[i])
					}
				}
			}
		}
		_ = m.Close()
	}
}

// TestCorruptionDetected: every byte flip and every truncation fails the
// whole-file CRC that Probe checks before trusting any length, and a
// reference or geometry other than the cache's is refused by Open's pin.
func TestCorruptionDetected(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ref := randSeq(r, 6000)
	sx := buildIndex(t, ref, 2048, 64, 6)
	dir := t.TempDir()
	path := writeCacheFile(t, dir, sx, ref, 0)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 5, 9, 40, fixedHeaderLen + 3, len(good) / 2, len(good) - 5} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x5a
		if reason := Probe(writeBytes(t, dir, "flip.gaxi", bad), ref, 6, 2048, 64); reason == "" {
			t.Errorf("flip at %d: Probe accepted a corrupt file", at)
		}
	}
	for _, n := range []int{0, 3, fixedHeaderLen - 1, fixedHeaderLen + 4, len(good) - 1} {
		if reason := Probe(writeBytes(t, dir, "short.gaxi", good[:n]), ref, 6, 2048, 64); reason == "" {
			t.Errorf("truncate to %d: Probe accepted", n)
		}
	}
	// A different reference of the same length is rejected by hash.
	other := append(dna.Seq(nil), ref...)
	other[100] ^= 1
	if _, err := Open(path, other, 6, 2048, 64); err == nil || !strings.Contains(err.Error(), "different reference") {
		t.Errorf("mutated reference: err = %v, want a reference mismatch", err)
	}
	// A shorter reference is rejected before hashing.
	if _, err := Open(path, ref[:100], 6, 2048, 64); err == nil {
		t.Error("short reference: Open succeeded")
	}
	if _, err := Open(path, ref, 6, 2048, 32); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("overlap mismatch: err = %v, want a geometry mismatch", err)
	}
}

func TestVersionAndMagicChecked(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ref := randSeq(r, 1000)
	sx := buildIndex(t, ref, 1024, 0, 4)
	dir := t.TempDir()
	good, err := os.ReadFile(writeCacheFile(t, dir, sx, ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Resealed, so the mutation reaches the semantic check.
	for _, tc := range []struct {
		want   string
		mutate func([]byte)
	}{
		{"magic", func(b []byte) { copy(b, "NOPE") }},
		{"version", func(b []byte) { b[4] = 99 }},
	} {
		path := writeBytes(t, dir, "bad.gaxi", resealed(good, tc.mutate))
		if _, err := Open(path, ref, 4, 1024, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad %s: Open err = %v", tc.want, err)
		}
		if reason := Probe(path, ref, 4, 1024, 0); !strings.Contains(reason, tc.want) {
			t.Errorf("bad %s: Probe = %q", tc.want, reason)
		}
	}
}

func TestFileRoundTripAndCachePath(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	ref := randSeq(r, 4000)
	sx := buildIndex(t, ref, 1500, 100, 7)
	dir := t.TempDir()
	path, err := CachePath(dir, ref, 7, 1500, 100)
	if err != nil {
		t.Fatalf("CachePath: %v", err)
	}
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, ".gaxi") {
		t.Fatalf("CachePath = %q", path)
	}
	if err := WriteFileShards(path, sx, ref, 0); err != nil {
		t.Fatalf("WriteFileShards: %v", err)
	}
	m, err := Open(path, ref, 7, 1500, 100)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := m.Index().Hash(); got != sx.Hash() {
		t.Errorf("file round trip hash %016x != %016x", got, sx.Hash())
	}
	_ = m.Close()
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("cache dir holds %d entries, want 1", len(entries))
	}
	// Geometry is part of the name: different k yields a different file.
	other, err := CachePath(dir, ref, 8, 1500, 100)
	if err != nil {
		t.Fatalf("CachePath: %v", err)
	}
	if other == path {
		t.Error("different k produced the same cache path")
	}
	if _, err := CachePath(dir, ref, 0, 1500, 100); err == nil {
		t.Error("CachePath accepted k=0")
	}
	if _, err := CachePath(dir, ref, 7, 0, 100); err == nil {
		t.Error("CachePath accepted segLen=0")
	}
	if _, err := CachePath(dir, ref, 7, 1500, -1); err == nil {
		t.Error("CachePath accepted negative overlap")
	}
}

// TestEnsure drives the one load-or-rebuild decision through every class
// of cache it meets: an unusable one is rebuilt and Probe's reason is
// returned, the partition is checked only when shards > 0, and a usable
// cache is mapped without being written.
func TestEnsure(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ref := randSeq(r, 6000)
	sx := buildIndex(t, ref, 256, 64, 6) // 24 segments: three set groups
	other := append(dna.Seq(nil), ref...)
	other[0] ^= 1
	write := func(sx *seed.SegmentedIndex, ref dna.Seq, groupSize int) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if err := WriteFileShards(path, sx, ref, groupSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	stale := func(t *testing.T, path string) {
		write(sx, ref, 0)(t, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, resealed(raw, func(b []byte) { b[4] = 2 }), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		setup   func(*testing.T, string)
		shards  int
		reason  string // what the reason must contain; "" means the cache is reused
		rewrite bool
		groups  int
	}{
		{"missing file", func(*testing.T, string) {}, 0, "no cache file", true, 1},
		{"stale version", stale, 0, "unsupported format version 2", true, 1},
		{"geometry mismatch", write(buildIndex(t, ref, 256, 64, 7), ref, 0), 0, "geometry mismatch", true, 1},
		{"other reference", write(buildIndex(t, other, 256, 64, 6), other, 0), 0, "reference hash mismatch", true, 1},
		{"partition mismatch", write(sx, ref, 0), 2, "shard partition mismatch", true, 2},
		{"any partition at shards 0", write(sx, ref, 16), 0, "", false, 2},
		{"current cache", write(sx, ref, 0), 0, "", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ensure.gaxi")
			tc.setup(t, path)
			past := time.Now().Add(-time.Hour).Truncate(time.Second)
			if _, err := os.Stat(path); err == nil {
				if err := os.Chtimes(path, past, past); err != nil {
					t.Fatal(err)
				}
			}
			m, reason, err := Ensure(path, ref, 6, 256, 64, tc.shards)
			if err != nil {
				t.Fatalf("Ensure: %v", err)
			}
			defer m.Close()
			if (reason == "") != (tc.reason == "") || !strings.Contains(reason, tc.reason) {
				t.Errorf("reason = %q, want %q", reason, tc.reason)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if rewrote := !st.ModTime().Equal(past); rewrote != tc.rewrite {
				t.Errorf("cache rewritten = %v, want %v", rewrote, tc.rewrite)
			}
			if got := m.Index().Hash(); got != sx.Hash() {
				t.Errorf("mapped hash %016x, built %016x", got, sx.Hash())
			}
			if m.NumShardGroups() != tc.groups {
				t.Errorf("%d shard groups, want %d", m.NumShardGroups(), tc.groups)
			}
			if again := Probe(path, ref, 6, 256, 64); again != "" {
				t.Errorf("Probe after Ensure: %q", again)
			}
		})
	}
	if _, _, err := Ensure(filepath.Join(t.TempDir(), "bad.gaxi"), ref, 0, 1024, 64, 0); err == nil {
		t.Error("Ensure accepted k=0")
	}
}
