package indexio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"genax/internal/dna"
	"genax/internal/seed"
)

func writeCacheFile(t *testing.T, dir string, sx *seed.SegmentedIndex, ref dna.Seq, groupSize int) string {
	t.Helper()
	path := filepath.Join(dir, "test.gaxi")
	if err := WriteFileShards(path, sx, ref, groupSize); err != nil {
		t.Fatalf("WriteFileShards: %v", err)
	}
	return path
}

// writeBytes drops raw at a fresh path under dir.
func writeBytes(t *testing.T, dir, name string, raw []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedParity is the core format guarantee: an index opened in place
// must be indistinguishable from the built one — same Hash, same lookups,
// same reference bytes — across shard partitions, and Verify must
// pass on a freshly written file.
func TestMappedParity(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ref := randSeq(r, 9000)
	sx := buildIndex(t, ref, 512, 128, 6) // 18 segments: set groups of 8, 8 and 2
	codec, _ := dna.NewKmerCodec(6)       // k = 6 is in range
	// A shard group is whole set groups: requests round up to a multiple
	// of 8, and 0 or one covering every segment is one group.
	for _, tc := range []struct{ groupSize, wantGS int }{
		{0, 18}, {1, 8}, {2, 8}, {8, 8}, {9, 16}, {17, 18}, {18, 18}, {40, 18},
	} {
		groupSize := tc.groupSize
		path := writeCacheFile(t, t.TempDir(), sx, ref, groupSize)
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("groupSize %d: OpenMapped: %v", groupSize, err)
		}
		if got := m.Index().Hash(); got != sx.Hash() {
			t.Errorf("groupSize %d: mapped hash %016x != built %016x", groupSize, got, sx.Hash())
		}
		if m.RefHash() != RefHash(ref) || len(m.Ref()) != len(ref) {
			t.Fatalf("groupSize %d: ref identity diverged", groupSize)
		}
		for i, b := range m.Ref() {
			if b != ref[i] {
				t.Fatalf("groupSize %d: ref byte %d = %d, want %d", groupSize, i, b, ref[i])
			}
		}
		if m.K() != 6 || m.SegLen() != 512 || m.Overlap() != 128 {
			t.Fatalf("groupSize %d: geometry accessors %d/%d/%d", groupSize, m.K(), m.SegLen(), m.Overlap())
		}
		if m.ShardGroupSize() != tc.wantGS {
			t.Errorf("groupSize %d: header stores %d, want %d", groupSize, m.ShardGroupSize(), tc.wantGS)
		}
		for id, si := range m.Index().Samples {
			want := sx.Samples[id]
			for trial := 0; trial < 300; trial++ {
				pos := r.Intn(len(ref) - 6)
				km, _ := codec.Encode(m.Ref(), pos)
				hits, wantHits := si.Lookup(km), want.Lookup(km)
				if len(hits) != len(wantHits) {
					t.Fatalf("groupSize %d seg %d pos %d: lookup diverged", groupSize, id, pos)
				}
				for i := range hits {
					if hits[i] != wantHits[i] {
						t.Fatalf("groupSize %d seg %d pos %d: hit %d", groupSize, id, pos, i)
					}
				}
			}
		}
		if err := m.Verify(); err != nil {
			t.Errorf("groupSize %d: Verify: %v", groupSize, err)
		}
		if err := m.Close(); err != nil {
			t.Errorf("groupSize %d: Close: %v", groupSize, err)
		}
		if err := m.Close(); err != nil {
			t.Errorf("groupSize %d: second Close: %v", groupSize, err)
		}
	}
}

// reseal recomputes every checksum of the cache file b in place — each
// section CRC the (possibly mutated) section table can still locate, the
// header CRC, the whole-file footer — so a mutation reaches the semantic
// checks instead of being caught by a checksum. It trusts no field: the
// fuzzer hands it arbitrary headers.
func reseal(b []byte) {
	if len(b) < fixedHeaderLen+8 {
		return
	}
	size := uint64(len(b))
	for i := 0; i < int(binary.LittleEndian.Uint32(b[12:])); i++ {
		e := fixedHeaderLen + sectionEntryLen*i
		if e+sectionEntryLen > len(b) {
			break
		}
		off, n := binary.LittleEndian.Uint64(b[e+8:]), binary.LittleEndian.Uint64(b[e+16:])
		if off <= size && n <= size-off {
			binary.LittleEndian.PutUint32(b[e+24:], crc32.ChecksumIEEE(b[off:off+n]))
		}
	}
	if hl := int(binary.LittleEndian.Uint32(b[60:])); hl >= 4 && hl <= len(b) {
		binary.LittleEndian.PutUint32(b[hl-4:], crc32.ChecksumIEEE(b[:hl-4]))
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// resealed applies mutate to a copy of a cache file and reseals it.
func resealed(good []byte, mutate func([]byte)) []byte {
	b := append([]byte(nil), good...)
	mutate(b)
	reseal(b)
	return b
}

// sectionOf returns the file offset of segment seg's section of the given
// kind (for sectionRows, its set group's), read from the (valid) section
// table of raw.
func sectionOf(raw []byte, seg int, kind uint32) int {
	if kind == sectionRows {
		seg, _, _ = seed.SetGroupOf(seg, int(binary.LittleEndian.Uint64(raw[48:])))
	}
	for e := fixedHeaderLen; ; e += sectionEntryLen {
		if binary.LittleEndian.Uint32(raw[e:]) == kind && int(binary.LittleEndian.Uint32(raw[e+4:])) == seg {
			return int(binary.LittleEndian.Uint64(raw[e+8:]))
		}
	}
}

// TestInflatedSectionLengthRejected: a corrupt (or hostile) section length
// that passes both checksums must be rejected by the bounds checks before
// any table-sized allocation or view is created.
func TestInflatedSectionLengthRejected(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	ref := randSeq(r, 5000)
	sx := buildIndex(t, ref, 2048, 64, 6)
	dir := t.TempDir()
	good, err := os.ReadFile(writeCacheFile(t, dir, sx, ref, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Entry 1 is set group 0's row table and entry 2 segment 0's start
	// table, whose length field is at 64 + 32·2 + 16. Inflate it to a
	// multi-GiB claim.
	lenAt := fixedHeaderLen + 2*sectionEntryLen + 16
	cases := map[string]func([]byte){
		"inflated length": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt:], 8<<30)
		},
		"length past footer": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt:], uint64(len(good)))
		},
		"start table longer than its windows": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt:], 4*(2048+64+2))
		},
		"empty start table": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt:], 0)
		},
		"short rank prefix": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt+2*sectionEntryLen:], 8)
		},
		"short row table": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt-sectionEntryLen:], 8)
		},
		"misaligned offset": func(b []byte) {
			off := binary.LittleEndian.Uint64(b[lenAt-8:])
			binary.LittleEndian.PutUint64(b[lenAt-8:], off+8)
		},
		"overlapping offset": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lenAt-8:], 0)
		},
		"wrong kind": func(b []byte) {
			binary.LittleEndian.PutUint32(b[fixedHeaderLen+sectionEntryLen:], sectionStart)
		},
		"shard group splitting a set group": func(b []byte) {
			binary.LittleEndian.PutUint32(b[56:], 1)
		},
		"inflated segment count": func(b []byte) {
			binary.LittleEndian.PutUint64(b[48:], 1<<40)
		},
		"geometry implying 2^62 segments": func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 1)     // segLen
			binary.LittleEndian.PutUint64(b[32:], 1<<62) // refLen
			binary.LittleEndian.PutUint64(b[48:], 1<<62) // numSegs
		},
		"zero group size": func(b []byte) {
			binary.LittleEndian.PutUint32(b[56:], 0)
		},
	}
	for name, mutate := range cases {
		bad := resealed(good, mutate)
		if m, err := OpenMapped(writeBytes(t, dir, "bad.gaxi", bad)); err == nil {
			_ = m.Close()
			t.Errorf("%s: OpenMapped accepted", name)
		}
	}
	// Corruption in a table body (past the header CRC's reach) must fail
	// Probe's footer CRC, and Verify on the mapping.
	bad := append([]byte(nil), good...)
	bad[sectionOf(good, 0, sectionPositions)+100] ^= 0x5a
	path := writeBytes(t, dir, "bodyflip.gaxi", bad)
	if reason := Probe(path, ref, 6, 2048, 64); !strings.Contains(reason, "checksum") {
		t.Errorf("body flip: Probe = %q, want checksum mismatch", reason)
	}
	// A file whose only damage is its trailing whole-file CRC must fail
	// Probe too.
	badSum := append([]byte(nil), good...)
	badSum[len(badSum)-1] ^= 0x5a
	if reason := Probe(writeBytes(t, dir, "footerflip.gaxi", badSum), ref, 6, 2048, 64); !strings.Contains(reason, "checksum") {
		t.Errorf("footer flip: Probe = %q, want checksum mismatch", reason)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("body flip: OpenMapped rejected (header is intact): %v", err)
	}
	if err := m.Verify(); err == nil {
		t.Error("body flip: Verify passed on corrupt section")
	}
	_ = m.Close()
}

// TestMappedCorruptTablesClamp: a rank word or start entry corrupted behind
// resealed checksums is invisible to OpenMapped, which scans no table. Every
// lookup through the mapped view must then answer "no hits" or a window of
// the position table — never panic — and Verify's structural scan must name
// the damage.
func TestMappedCorruptTablesClamp(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	ref := randSeq(r, 3000)
	sx := buildIndex(t, ref, 1024, 64, 5)
	good, err := os.ReadFile(writeCacheFile(t, t.TempDir(), sx, ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	rankAt, startAt := sectionOf(good, 1, sectionRank), sectionOf(good, 1, sectionStart)
	for name, tc := range map[string]struct {
		mutate func([]byte)
		want   string
	}{
		"rank word far out of range": {func(b []byte) { binary.LittleEndian.PutUint32(b[rankAt+4*3:], 1<<31) }, "rank prefix"},
		"rank word off by one":       {func(b []byte) { b[rankAt+4*9]++ }, "rank prefix"},
		"start entry out of range":   {func(b []byte) { binary.LittleEndian.PutUint32(b[startAt+4*20:], 1<<30) }, "not strictly increasing"},
		"negative start entry":       {func(b []byte) { binary.LittleEndian.PutUint32(b[startAt+4*20:], 0xffffff00) }, "not strictly increasing"},
	} {
		m, err := OpenMapped(writeBytes(t, t.TempDir(), "bad.gaxi", resealed(good, tc.mutate)))
		if err != nil {
			t.Fatalf("%s: OpenMapped scanned a table: %v", name, err)
		}
		walkMapped(t, m)
		if err := m.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", name, err, tc.want)
		}
		_ = m.Close()
	}
}

// TestStaleVersionsRejected: files stamped by the three retired formats
// are refused at every entry point, with the one reason a caller needs to
// decide on a rebuild. (CachePath carries the version, so the auto-load
// paths never even open such a file.) A v3 file has per-segment presence
// bitmaps where v4 has set-group rows; the version word alone refuses it,
// before any of its section table is read.
func TestStaleVersionsRejected(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ref := randSeq(r, 4000)
	sx := buildIndex(t, ref, 1500, 100, 7)
	good, err := os.ReadFile(writeCacheFile(t, t.TempDir(), sx, ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		want := fmt.Sprintf("unsupported format version %d (current %d): rebuild the cache", v, Version)
		stale := resealed(good, func(b []byte) { binary.LittleEndian.PutUint32(b[4:], v) })
		path := writeBytes(t, t.TempDir(), "stale.gaxi", stale)
		if reason := Probe(path, ref, 7, 1500, 100); reason != want {
			t.Errorf("v%d Probe = %q, want %q", v, reason, want)
		}
		if m, err := Open(path, ref, 7, 1500, 100); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d Open = %v, %v, want %q", v, m, err, want)
		}
	}
}

// TestCachePathVersioned pins the format version into the content address
// so caches from different releases can never collide.
func TestCachePathVersioned(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	ref := randSeq(r, 1000)
	cur, err := CachePath("", ref, 6, 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(cur, fmt.Sprintf("-v%d.gaxi", Version)) {
		t.Errorf("CachePath %q does not pin the current version", cur)
	}
}

// TestProbeReasons drives every staleness class through Probe and checks
// the one-line reasons genax index prints.
func TestProbeReasons(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	ref := randSeq(r, 5000)
	sx := buildIndex(t, ref, 2048, 64, 6)
	dir := t.TempDir()
	path := writeCacheFile(t, dir, sx, ref, 2)

	if reason := Probe(path, ref, 6, 2048, 64); reason != "" {
		t.Errorf("fresh cache: %q", reason)
	}
	if reason := Probe(filepath.Join(dir, "absent.gaxi"), ref, 6, 2048, 64); reason != "no cache file" {
		t.Errorf("missing: %q", reason)
	}
	if reason := Probe(path, ref, 8, 2048, 64); !strings.Contains(reason, "geometry mismatch") {
		t.Errorf("k mismatch: %q", reason)
	}
	other := append(dna.Seq(nil), ref...)
	other[0] ^= 1
	if reason := Probe(path, other, 6, 2048, 64); !strings.Contains(reason, "reference hash mismatch") {
		t.Errorf("ref mismatch: %q", reason)
	}
	if reason := Probe(path, ref[:100], 6, 2048, 64); !strings.Contains(reason, "reference length") {
		t.Errorf("ref length: %q", reason)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 7, 11, 40, fixedHeaderLen, len(good) / 3} {
		if reason := Probe(writeBytes(t, dir, "short.gaxi", good[:n]), ref, 6, 2048, 64); reason == "" {
			t.Errorf("truncated to %d bytes: probed usable", n)
		}
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x5a
	if reason := Probe(writeBytes(t, dir, "flip.gaxi", bad), ref, 6, 2048, 64); !strings.Contains(reason, "checksum mismatch") {
		t.Errorf("corrupt: %q", reason)
	}
	// An unknown future version reports itself.
	fut := resealed(good, func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 9) })
	if reason := Probe(writeBytes(t, dir, "future.gaxi", fut), ref, 6, 2048, 64); !strings.Contains(reason, "version 9") {
		t.Errorf("future version: %q", reason)
	}
}

// TestProbeFixtureAndCorruptHeader covers the two probe inputs the serve
// registry meets in the wild: a stale-format fixture — whose version, not
// whatever its old header says about geometry, must be the reason whether
// or not the request would have matched — and a current file whose header
// is corrupted, resealed so the magic check itself, not the checksum, must
// produce the reason the registry logs.
func TestProbeFixtureAndCorruptHeader(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	ref := randSeq(r, 4000)
	sx := buildIndex(t, ref, 2048, 64, 6)
	dir := t.TempDir()
	raw, err := os.ReadFile(writeCacheFile(t, dir, sx, ref, 1))
	if err != nil {
		t.Fatal(err)
	}
	fixture := writeBytes(t, dir, "v2.gaxi", resealed(raw, func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 2) }))
	for _, k := range []int{6, 7} {
		if reason := Probe(fixture, ref, k, 2048, 64); !strings.Contains(reason, "unsupported format version 2") {
			t.Errorf("stale fixture probed at k=%d: %q, want the version reason", k, reason)
		}
	}
	bad := resealed(raw, func(b []byte) { copy(b, "XAXI") })
	reason := Probe(writeBytes(t, dir, "magic.gaxi", bad), ref, 6, 2048, 64)
	if !strings.Contains(reason, "bad magic") {
		t.Errorf("corrupted header: %q, want bad magic", reason)
	}
	if strings.Contains(reason, "checksum") {
		t.Errorf("corrupted-header reason %q blames the checksum; the CRC was resealed", reason)
	}
}

// residencyLaneWalk is one lane of TestShardResidencyProtocol: walk every
// segment ascending under the Acquire/Release protocol, touching a
// borrowed lookup strictly within this frame (the same discipline the
// real seed lanes follow).
func residencyLaneWalk(m *Mapped, res *ShardResidency) int {
	sum := 0
	for s := range m.Index().Samples {
		res.Acquire(s)
		si := m.Index().Samples[s]
		if hits := si.Lookup(0); len(hits) > 0 {
			sum += int(hits[0])
		}
		res.Release(s)
	}
	return sum
}

// TestShardResidencyProtocol simulates the seed stage's lane discipline —
// every lane acquires and releases every segment in ascending order behind
// a barrier — and checks the residency bound, the counters, and that the
// walk completes (no deadlock) at the tightest budget.
func TestShardResidencyProtocol(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	ref := randSeq(r, 8192)
	sx := buildIndex(t, ref, 256, 64, 5) // 32 segments
	path := writeCacheFile(t, t.TempDir(), sx, ref, 8)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumShardGroups() != 4 {
		t.Fatalf("NumShardGroups = %d, want 4", m.NumShardGroups())
	}

	for _, lanes := range []int{1, 4} {
		res := NewShardResidency(m, 1)
		done := make(chan int, lanes)
		for l := 0; l < lanes; l++ {
			go func() { done <- residencyLaneWalk(m, res) }()
		}
		for l := 0; l < lanes; l++ {
			<-done
		}
		admits, drops, _ := res.Stats()
		if admits < m.NumShardGroups() {
			t.Errorf("lanes %d: %d admits for %d groups", lanes, admits, m.NumShardGroups())
		}
		if drops != admits {
			t.Errorf("lanes %d: admits %d != drops %d after drain", lanes, admits, drops)
		}
		if !strings.Contains(res.String(), "shard residency") {
			t.Errorf("String() = %q", res.String())
		}
	}
}

// fuzzBase is the small valid cache file FuzzOpenMapped mutates: k=4,
// three 100-base segments, 11 page-aligned sections (one set group). Its layout is fixed by
// the seed, which is what lets the checked-in corpus aim at named fields.
func fuzzBase(tb testing.TB) []byte {
	ref := randSeq(rand.New(rand.NewSource(28)), 300)
	sx, err := seed.BuildSegmentedIndex(ref, 100, 20, 4)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteShards(&buf, sx, ref, 2); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// walkMapped looks up the whole k-mer space of every segment of m under the
// residency protocol and fails if any answer lies outside the segment's
// position table.
func walkMapped(t *testing.T, m *Mapped) {
	res := NewShardResidency(m, 1)
	for id, si := range m.Index().Samples {
		res.Acquire(id)
		table := si.Tables().Positions
		for km := 0; km < 1<<(2*uint(si.K())); km++ {
			hits := si.Lookup(dna.Kmer(km))
			if len(hits) == 0 {
				continue
			}
			lo := uintptr(unsafe.Pointer(&table[0]))
			at := uintptr(unsafe.Pointer(&hits[0]))
			if at < lo || at+4*uintptr(len(hits)) > lo+4*uintptr(len(table)) {
				t.Fatalf("segment %d k-mer %d: hits outside the position table", id, km)
			}
		}
		res.Release(id)
	}
}

// FuzzOpenMapped overwrites the bytes at off (wrapped into the file) with
// val, reseals every checksum so the mutation reaches the parser, and opens
// the result in place. OpenMapped must either refuse it or hand back an
// index on which every lookup over the whole k-mer space stays inside the
// position table, and Hash, the residency walk and Verify return instead of
// panicking. The corpus under testdata/fuzz/FuzzOpenMapped replays in plain
// `go test`.
func FuzzOpenMapped(f *testing.F) {
	base := fuzzBase(f)
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, off uint32, val []byte) {
		mutated := resealed(base, func(b []byte) { copy(b[int(off)%len(b):], val) })
		m, err := OpenMapped(writeBytes(t, t.TempDir(), "fuzz.gaxi", mutated))
		if err != nil {
			return
		}
		defer m.Close()
		walkMapped(t, m)
		_ = m.Index().Hash()
		_ = m.Verify()
	})
}
