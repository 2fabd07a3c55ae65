package seed

import (
	"math/rand"
	"sort"
	"testing"
)

// chunkedRef recomputes the chunked intersection naively: every value of
// cur that occurs anywhere in incoming, in cur order.
func chunkedRef(cur, incoming []int32) []int32 {
	in := make(map[int32]bool, len(incoming))
	for _, v := range incoming {
		in[v] = true
	}
	var out []int32
	for _, v := range cur {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestIntersectChunkedScratchReuse drives many chunked intersections of
// varying sizes through one CAM, checking each result against the naive
// reference: the reusable match-flag scratch must be fully cleared between
// lookups, so no stale flag from a larger earlier call can leak a
// non-member into a later result.
func TestIntersectChunkedScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(220))
	c := NewCAM(8) // tiny capacity forces many chunks
	for trial := 0; trial < 200; trial++ {
		nc, ni := 1+r.Intn(40), 1+r.Intn(100)
		cur := make([]int32, nc)
		for i := range cur {
			cur[i] = int32(r.Intn(60))
		}
		sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })
		incoming := make([]int32, ni)
		for i := range incoming {
			incoming[i] = int32(r.Intn(60))
		}
		got := c.IntersectChunkedInto(nil, cur, incoming)
		want := chunkedRef(cur, incoming)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

// TestIntersectChunkedIntoNoAlloc pins the fix for the per-lookup matched
// map: a warm CAM intersecting into a caller-provided buffer must not
// allocate at all.
func TestIntersectChunkedIntoNoAlloc(t *testing.T) {
	c := NewCAM(4)
	cur := []int32{1, 3, 5, 7, 9, 11, 13}
	incoming := []int32{2, 3, 5, 8, 9, 14, 1, 6, 13, 4}
	dst := make([]int32, 0, len(cur))
	c.IntersectChunkedInto(dst, cur, incoming) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		c.IntersectChunkedInto(dst, cur, incoming)
	})
	if avg != 0 {
		t.Errorf("warm IntersectChunkedInto allocates %.1f times per call, want 0", avg)
	}
}

// camSlot recomputes a value's home slot with the table's own hash —
// white-box, so the wraparound test can construct genuine collisions at
// the last slot instead of guessing.
func camSlot(c *CAM, v int32) uint32 {
	return (uint32(v) * camHashMul) >> c.shift
}

// TestCAMProbeWraparound forces a collision run that starts at the last
// slot of the table, so linear probing must wrap to slot 0: every collided
// value has to remain findable and non-members hashing into the same run
// must still miss.
func TestCAMProbeWraparound(t *testing.T) {
	c := NewCAM(512)
	last := c.mask
	var vals []int32
	var absent []int32
	for v := int32(0); len(vals) < 3 || len(absent) < 2; v++ {
		if camSlot(c, v) == last {
			if len(vals) < 3 {
				vals = append(vals, v)
			} else {
				absent = append(absent, v)
			}
		}
		if v > 1<<20 {
			t.Fatal("could not construct colliding values")
		}
	}
	if !c.Load(vals) {
		t.Fatal("load rejected")
	}
	if c.mask != last {
		t.Fatalf("table grew during load (mask %d -> %d); collisions invalidated", last, c.mask)
	}
	for _, v := range vals {
		if !c.contains(v) {
			t.Errorf("collided value %d (slot %d) not found after wraparound", v, camSlot(c, v))
		}
	}
	for _, v := range absent {
		if c.contains(v) {
			t.Errorf("non-member %d matched", v)
		}
	}
}

// TestCAMGenerationReload pins the tombstone-free reload: consecutive
// Loads share the table with no clearing pass, so members of an earlier
// set must expire the moment a new set loads — including values whose
// slots the new set does not touch.
func TestCAMGenerationReload(t *testing.T) {
	c := NewCAM(64)
	r := rand.New(rand.NewSource(221))
	prev := map[int32]bool{}
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(64)
		set := make([]int32, n)
		cur := map[int32]bool{}
		for i := range set {
			set[i] = int32(r.Intn(500))
			cur[set[i]] = true
		}
		if !c.Load(set) {
			t.Fatalf("round %d: load of %d values rejected", round, n)
		}
		for v := int32(0); v < 500; v++ {
			if got := c.contains(v); got != cur[v] {
				t.Fatalf("round %d: contains(%d) = %v, want %v (stale=%v)",
					round, v, got, cur[v], prev[v])
			}
		}
		prev = cur
	}
}

// TestCAMGenerationWrap drives the uint32 generation counter over its
// wraparound: entries loaded at the maximum generation must not resurrect
// once the counter wraps and the tags are wiped.
func TestCAMGenerationWrap(t *testing.T) {
	c := NewCAM(16)
	c.gen = ^uint32(0) - 1
	if !c.Load([]int32{7, 8, 9}) { // loads at the maximum generation
		t.Fatal("load rejected")
	}
	if !c.contains(8) {
		t.Fatal("member missing before wrap")
	}
	if !c.Load([]int32{1, 2}) { // wraps: tags cleared, gen restarts at 1
		t.Fatal("load rejected")
	}
	if c.gen == 0 {
		t.Fatal("generation stuck at 0 after wrap")
	}
	for _, v := range []int32{7, 8, 9} {
		if c.contains(v) {
			t.Errorf("pre-wrap value %d resurrected", v)
		}
	}
	if !c.contains(1) || !c.contains(2) {
		t.Error("post-wrap set incomplete")
	}
}

// TestCAMLazyTableGrowth pins the lazy sizing: a CAM with a huge logical
// capacity (experiment configs use one to disable the binary-search
// fallback) must not allocate a huge table up front, only grow to fit the
// sets actually loaded.
func TestCAMLazyTableGrowth(t *testing.T) {
	c := NewCAM(1 << 30)
	if len(c.keys) > 1<<minTableBits {
		t.Fatalf("fresh CAM table has %d slots", len(c.keys))
	}
	vals := make([]int32, 300)
	for i := range vals {
		vals[i] = int32(i * 17)
	}
	if !c.Load(vals) {
		t.Fatal("load rejected")
	}
	if len(c.keys) < 2*len(vals) {
		t.Fatalf("table %d slots, want >= %d for probe-run bound", len(c.keys), 2*len(vals))
	}
	if len(c.keys) > 4*len(vals) {
		t.Fatalf("table %d slots for %d values — oversized", len(c.keys), len(vals))
	}
	for _, v := range vals {
		if !c.contains(v) {
			t.Fatalf("member %d missing after growth", v)
		}
	}
}

// TestCAMLoadOverflow preserves the overflow accounting contract.
func TestCAMLoadOverflow(t *testing.T) {
	c := NewCAM(4)
	if c.Load([]int32{1, 2, 3, 4, 5}) {
		t.Fatal("oversized load accepted")
	}
	if c.Overflow != 1 {
		t.Fatalf("Overflow = %d, want 1", c.Overflow)
	}
	if c.Writes != 0 {
		t.Fatalf("Writes = %d after rejected load, want 0", c.Writes)
	}
	if !c.Load([]int32{1, 2, 3, 4}) {
		t.Fatal("exact-capacity load rejected")
	}
	if c.Writes != 4 {
		t.Fatalf("Writes = %d, want 4", c.Writes)
	}
}

// TestIntersectIntoAppendSemantics checks the Into variants extend dst
// rather than replacing it.
func TestIntersectIntoAppendSemantics(t *testing.T) {
	c := NewCAM(16)
	dst := []int32{-99}
	c.Load([]int32{4, 5, 6})
	dst = c.IntersectProbeInto(dst, []int32{5, 7})
	dst = c.IntersectBinaryInto(dst, []int32{2, 8}, []int32{1, 2, 3, 8})
	dst = c.IntersectChunkedInto(dst, []int32{10, 11}, []int32{11})
	want := []int32{-99, 5, 2, 8, 11}
	if len(dst) != len(want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}
