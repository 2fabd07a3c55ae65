package seed

import (
	"bytes"
	"math/rand"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"genax/internal/dna"
)

// TestHotPathInlines asks the compiler whether the probe path still
// inlines. Every seeding probe ends in Seeder.lookup or hitsAt, which read
// the lane's probe table; the per-segment loop extracts each window's row
// (SegmentIndex.row) and ranks each held k-mer in its column
// (SegmentIndex.colRank). If any of them grows past the inlining budget
// each call pays a call, and nothing else fails. The test needs the go
// tool: without it, it fails rather than skip.
func TestHotPathInlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{"(*Seeder).lookup", "(*Seeder).hitsAt", "(*SegmentIndex).row", "(*SegmentIndex).colRank"} {
		if bytes.Contains(out, []byte("can inline "+fn+" with cost")) {
			continue
		}
		why := "no inlining decision reported"
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, "inline "+fn+":") {
				why = line
			}
		}
		t.Errorf("%s no longer inlines: %s", fn, why)
	}
}

// TestProbeTableMatchesLookup holds the pre-pass to the index: after Seed,
// every window's probe-table answer is exactly what SegmentIndex.Lookup
// returns for its k-mer, across reads that belong to the segment, reads
// that do not, and a lane rebound from one segment to another. An exact
// read's fast path reads only every k-th window and the last, so Seed
// leaves its other held windows unresolved; resolveRest, which the SMEM
// loop runs first, must fill them in with Lookup's answer too.
func TestProbeTableMatchesLookup(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	ref := randSeq(r, 6000)
	sx, err := BuildSegmentedIndex(ref, 1500, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	lane := NewSeeder(sx.Samples[0], DefaultOptions())
	for trial := 0; trial < 40; trial++ {
		start := r.Intn(len(ref) - 300)
		read := mutate(r, ref[start:start+101+r.Intn(150)].Clone(), r.Intn(4))
		for _, si := range sx.Samples {
			lane.Reset(si)
			lane.Seed(read)
			lane.resolveRest()
			for q, km := range lane.scan {
				want, got := si.Lookup(km), lane.hitsAt(q)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d seg %d window %d: probe table %v, Lookup %v", trial, si.ID, q, got, want)
				}
			}
		}
	}
}

// TestSkipChargesExecutedPath checks the skip of a segment that holds none
// of the read's k-mers. The reference is A/C only and every read G/T only,
// so no window is present. The counts are what the executed path charged
// before the skip existed: m-k+1 pivot probes, plus exactMatch's first
// probe when the fast path is on.
func TestSkipChargesExecutedPath(t *testing.T) {
	const k = 12
	r := rand.New(rand.NewSource(122))
	ref := make(dna.Seq, 4000)
	for i := range ref {
		ref[i] = dna.Base(r.Intn(2)) // A or C
	}
	si, err := BuildSegmentIndex(ref, 0, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m, exactOn, exactOff int
	}{
		{k, 2, 1},
		{k + 1, 3, 2},
		{101, 91, 90},
		{1200, 1190, 1189},
	} {
		read := make(dna.Seq, tc.m)
		for i := range read {
			read[i] = dna.Base(2 + r.Intn(2)) // G or T
		}
		for _, fast := range []bool{true, false} {
			opts := DefaultOptions()
			opts.ExactFastPath = fast
			sd := NewSeeder(si, opts)
			seeds := sd.Seed(read)
			want := tc.exactOff
			if fast {
				want = tc.exactOn
			}
			if seeds != nil || sd.Stats.CAMLookups != 0 || sd.Stats.IndexLookups != want {
				t.Errorf("m=%d fast=%v: seeds %v, %d CAM lookups, %d index lookups; want nil, 0, %d",
					tc.m, fast, seeds, sd.Stats.CAMLookups, sd.Stats.IndexLookups, want)
			}
		}
	}
}
