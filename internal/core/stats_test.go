package core

import (
	"reflect"
	"testing"

	"genax/internal/align"
)

// TestStatsMergeFields pins Merge field by field, over every field of
// Stats by reflection, so a counter added later is covered without an edit
// here: every work counter must sum, and the per-window outcome tallies
// and the index identity (Reads, Aligned, ExactReads, Segments) must pass
// through untouched — window.emit sets them, merge does not fold them. A
// work counter added to Stats without its line in merge fails here instead
// of merging silently to zero.
func TestStatsMergeFields(t *testing.T) {
	notFolded := map[string]bool{"Reads": true, "Aligned": true, "ExactReads": true, "Segments": true}
	var dst, src, want Stats
	d, s, w := reflect.ValueOf(&dst).Elem(), reflect.ValueOf(&src).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < d.NumField(); i++ {
		a, b := int64(10*(i+1)), int64(i+1)
		d.Field(i).SetInt(a)
		s.Field(i).SetInt(b)
		if notFolded[d.Type().Field(i).Name] {
			w.Field(i).SetInt(a)
		} else {
			w.Field(i).SetInt(a + b)
		}
	}
	dst.Merge(src)
	for i := 0; i < d.NumField(); i++ {
		if got, exp := d.Field(i).Int(), w.Field(i).Int(); got != exp {
			t.Errorf("after Merge %s = %d, want %d", d.Type().Field(i).Name, got, exp)
		}
	}
	// Merging a zero block is the identity.
	dst.Merge(Stats{})
	if dst != want {
		t.Errorf("Merge(zero) changed stats: %+v", dst)
	}
}

// TestFinalizeSlotMinScore pins the single MinScore gate, in particular
// the Aligned && Score < MinScore edge: an alignment that was found (its
// extension work already counted) but scores below the floor must come
// out as a zero ReadResult, while a score exactly at the floor survives.
func TestFinalizeSlotMinScore(t *testing.T) {
	mk := func(score int) slot {
		return slot{res: align.Result{RefPos: 7, Score: score}, aligned: true}
	}
	below := mk(92)
	if rr := finalizeSlot(&below, 93); rr.Aligned || rr.Result.Score != 0 || rr.Result.Cigar != nil {
		t.Errorf("sub-MinScore slot leaked: %+v", rr)
	}
	at := mk(93)
	if rr := finalizeSlot(&at, 93); !rr.Aligned || rr.Result.Score != 93 {
		t.Errorf("at-floor slot dropped: %+v", rr)
	}
	empty := slot{}
	if rr := finalizeSlot(&empty, 0); rr.Aligned {
		t.Errorf("unaligned slot reported: %+v", rr)
	}
}

// TestBetterThanRank pins the deterministic merge rule: strict wins by
// score, position, and strand, and rank breaks exact ties — lower rank
// (earlier canonical candidate) always prevails, in either arrival order.
func TestBetterThanRank(t *testing.T) {
	base := align.Result{RefPos: 100, Score: 50}
	sl := slot{res: base, rank: 10, aligned: true}

	if !betterThan(align.Result{RefPos: 100, Score: 51}, 99, &sl) {
		t.Error("higher score lost")
	}
	if betterThan(align.Result{RefPos: 100, Score: 49}, 1, &sl) {
		t.Error("lower score won on rank")
	}
	if !betterThan(align.Result{RefPos: 99, Score: 50}, 99, &sl) {
		t.Error("leftmost tiebreak lost")
	}
	if betterThan(align.Result{RefPos: 100, Score: 50, Reverse: true}, 1, &sl) {
		t.Error("reverse strand won an exact positional tie")
	}
	// Exact tie: rank decides, regardless of arrival order.
	if !betterThan(base, 9, &sl) {
		t.Error("lower rank lost an exact tie")
	}
	if betterThan(base, 11, &sl) {
		t.Error("higher rank won an exact tie")
	}
	var fresh slot
	if !betterThan(base, 1<<40, &fresh) {
		t.Error("empty slot rejected a candidate")
	}
}
