package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"genax/internal/dna"
)

// repeatGenome is a 768-base random reference cut into six 128-base
// segments with 64 bases of overlap (segment s spans [128s, 128s+192)),
// with three 30-base reads planted where retiring exact reads could go
// wrong:
//   - x lies at 150, in segment 0's overlap with segment 1, and again
//     at 500, in segment 3 only;
//   - p equals its own reverse complement, so at 300 and at 600 it
//     matches both strands at one position;
//   - y's reverse complement lies at 690 and y itself at 730, both in
//     segment 5 only: the reverse strand's hit is the leftmost, and too
//     little of it reaches into segment 4 for a seed there to find it.
//
// Twelve reads cut at random from the reference, either strand, fill the
// batch out to several chunks.
func repeatGenome() (ref dna.Seq, reads []dna.Seq) {
	r := rand.New(rand.NewSource(41))
	rnd := func(n int) dna.Seq {
		s := make(dna.Seq, n)
		for i := range s {
			s[i] = dna.Base(r.Intn(4))
		}
		return s
	}
	ref = rnd(768)
	x, y := rnd(30), rnd(30)
	p := rnd(15)
	p = append(p, p.RevComp()...)
	for _, pl := range []struct {
		at  int
		seq dna.Seq
	}{{150, x}, {500, x}, {300, p}, {600, p}, {690, y.RevComp()}, {730, y}} {
		copy(ref[pl.at:], pl.seq)
	}
	reads = []dna.Seq{x, p, y}
	for range 12 {
		at := r.Intn(len(ref) - 30)
		rd := ref[at : at+30].Clone()
		if r.Intn(2) == 1 {
			rd = rd.RevComp()
		}
		reads = append(reads, rd)
	}
	return ref, reads
}

// leftmostExact is the brute-force answer for an exact read: its leftmost
// occurrence on either strand, the forward strand first at one position.
func leftmostExact(ref, read dna.Seq) (pos int, reverse bool) {
	rc := read.RevComp()
	for p := 0; p+len(read) <= len(ref); p++ {
		switch w := ref[p : p+len(read)]; {
		case w.Equal(read):
			return p, false
		case w.Equal(rc):
			return p, true
		}
	}
	return -1, false
}

// TestRepeatGenomeRetirement checks exact reads on a genome with repeats
// against the brute-force answer through every entry point at several lane
// counts, and that a read is retired once resolved: every traced item of a
// segment after the first that holds the answer is empty.
func TestRepeatGenomeRetirement(t *testing.T) {
	ref, reads := repeatGenome()
	cfg := smallConfig()
	cfg.K, cfg.SegmentLen, cfg.Overlap = 16, 128, 64
	want := make([]ReadResult, len(reads))
	for i, rd := range reads {
		pos, rev := leftmostExact(ref, rd)
		want[i].Aligned = true
		want[i].Result.RefPos, want[i].Result.Reverse = pos, rev
		want[i].Result.Score = len(rd) * cfg.Scoring.Match
		want[i].Result.Cigar = exactCigar(len(rd))
	}
	for _, workers := range []int{1, 2, 3} {
		cfg.Workers, cfg.StreamWindow = workers, 4
		a, err := New(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumSegments() != 6 {
			t.Fatalf("%d segments, want 6", a.NumSegments())
		}
		label := func(path string) string { return fmt.Sprintf("workers=%d %s", workers, path) }

		got, _ := a.AlignBatch(reads)
		sameResults(t, label("batch"), got, want)
		checkAnswers(t, label("batch"), ref, cfg.Scoring, reads, got)

		got, _, work := a.AlignBatchTraced(reads)
		sameResults(t, label("traced"), got, want)
		n := len(reads)
		for i, rr := range want {
			resolved := (rr.Result.RefPos + len(reads[i]) - cfg.Overlap - 1) / cfg.SegmentLen
			for s := resolved + 1; s < a.NumSegments(); s++ {
				if fw, rv := work[2*(s*n+i)], work[2*(s*n+i)+1]; fw.SeedOps != 0 || rv.SeedOps != 0 {
					t.Errorf("%s: read %d, resolved in segment %d, seeded again in segment %d",
						label("traced"), i, resolved, s)
				}
			}
		}

		in := make(chan dna.Seq, n)
		for _, rd := range reads {
			in <- rd
		}
		close(in)
		out, _ := a.AlignStream(context.Background(), in)
		got = got[:0]
		for rr := range out {
			got = append(got, rr)
		}
		sameResults(t, label("stream"), got, want)

		got = got[:0]
		for _, rd := range reads {
			res, ok := a.AlignRead(rd)
			got = append(got, ReadResult{Result: res, Aligned: ok})
		}
		sameResults(t, label("read"), got, want)
	}
}
