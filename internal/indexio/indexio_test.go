package indexio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		var buf bytes.Buffer
		if err := Write(&buf, sx, ref); err != nil {
			t.Fatalf("%+v: Write: %v", tc, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), ref)
		if err != nil {
			t.Fatalf("%+v: Read: %v", tc, err)
		}
		if got.Hash() != sx.Hash() {
			t.Errorf("%+v: loaded hash %016x != built hash %016x", tc, got.Hash(), sx.Hash())
		}
		if got.NumSegments() != sx.NumSegments() {
			t.Errorf("%+v: %d segments loaded, want %d", tc, got.NumSegments(), sx.NumSegments())
		}
		// The rebound index must answer lookups identically, through the
		// same reference backing.
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
				hits, ok := si.LookupAt(ref, pos)
				wantHits, wantOK := want.LookupAt(ref, pos)
				if ok != wantOK || len(hits) != len(wantHits) {
					t.Fatalf("%+v seg %d pos %d: lookup diverged", tc, id, pos)
				}
				for i := range hits {
					if hits[i] != wantHits[i] {
						t.Fatalf("%+v seg %d pos %d: hit %d = %d, want %d", tc, id, pos, i, hits[i], wantHits[i])
					}
				}
			}
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ref := randSeq(r, 6000)
	sx := buildIndex(t, ref, 2048, 64, 6)
	var buf bytes.Buffer
	if err := Write(&buf, sx, ref); err != nil {
		t.Fatalf("Write: %v", err)
	}
	good := buf.Bytes()

	// Every single-byte flip must be caught by the CRC.
	for _, at := range []int{0, 5, 9, 40, fixedHeaderLen + 3, len(good) / 2, len(good) - 5} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x5a
		if _, err := Read(bytes.NewReader(bad), ref); err == nil {
			t.Errorf("flip at %d: Read succeeded on corrupt file", at)
		}
	}
	// Truncation at any point must fail, not panic.
	for _, n := range []int{0, 3, fixedHeaderLen - 1, fixedHeaderLen + 4, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:n]), ref); err == nil {
			t.Errorf("truncate to %d: Read succeeded", n)
		}
	}
	// A different reference of the same length must be rejected by hash.
	other := append(dna.Seq(nil), ref...)
	other[100] ^= 1
	if _, err := Read(bytes.NewReader(good), other); err == nil || !strings.Contains(err.Error(), "reference hash") {
		t.Errorf("mutated reference: err = %v, want hash mismatch", err)
	}
	// A shorter reference is rejected before hashing.
	if _, err := Read(bytes.NewReader(good), ref[:100]); err == nil {
		t.Error("short reference: Read succeeded")
	}
}

func TestVersionAndMagicChecked(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ref := randSeq(r, 1000)
	sx := buildIndex(t, ref, 1024, 0, 4)
	var buf bytes.Buffer
	if err := Write(&buf, sx, ref); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Resealed, so the mutation reaches the semantic check.
	bad := resealed(buf.Bytes(), func(b []byte) { copy(b, "NOPE") })
	if _, err := Read(bytes.NewReader(bad), ref); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	bad = resealed(buf.Bytes(), func(b []byte) { b[4] = 99 })
	if _, err := Read(bytes.NewReader(bad), ref); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
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
	if err := WriteFile(path, sx, ref); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path, ref)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Hash() != sx.Hash() {
		t.Errorf("file round trip hash %016x != %016x", got.Hash(), sx.Hash())
	}
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
