package core

import (
	"genax/internal/dna"
	"genax/internal/seed"
)

// seedLane is a lane's seeding half: the seeding hardware (CAM, scratch,
// counters) lives as long as the lane and is rebound to each segment's
// tables with bind, exactly like the chip streams per-segment tables into
// a lane's SRAM.
type seedLane struct {
	opts  seed.Options
	sd    *seed.Seeder
	stats *Stats // the owning lane's work counters
}

// bind points the lane's seeding hardware at a segment's tables.
func (l *seedLane) bind(si *seed.SegmentIndex) {
	if l.sd == nil {
		l.sd = seed.NewSeeder(si, l.opts)
	} else {
		l.sd.Reset(si)
	}
}

// seedOne seeds one oriented read against the bound segment and appends
// its extension candidates to b in canonical order (seed order, then hit
// order). The seeder's result is scratch-backed and valid only until the
// next Seed call, so every hit is copied into the batch here. Exact-match
// reads short-circuit: their hits are flagged candExact so process skips
// SillaX entirely (§V). A traced run records the lookups as SeedOps.
//
//genax:hotpath
func (l *seedLane) seedOne(q dna.Seq, readIdx int32, reverse bool, b *batch) {
	sd := l.sd
	before := sd.Stats
	seeds := sd.Seed(q)
	after := sd.Stats
	lookups := int64(after.IndexLookups - before.IndexLookups)
	cams := int64(after.CAMLookups - before.CAMLookups)
	l.stats.IndexLookups += lookups
	l.stats.CAMLookups += cams
	l.stats.SeedsEmitted += int64(after.SeedsEmitted - before.SeedsEmitted)
	l.stats.HitsEmitted += int64(after.HitsEmitted - before.HitsEmitted)
	exact := after.ExactReads > before.ExactReads
	if exact {
		// One claimant per read per segment, and the segment barrier
		// orders claims across segments, so this write cannot race.
		b.win.exact[readIdx] = true
	}
	if b.win.trace != nil {
		b.win.item(b.seg, readIdx, reverse).SeedOps = lookups + cams
	}
	var flags uint8
	if reverse {
		flags |= candReverse
	}
	if exact {
		flags |= candExact
	}
	for _, s := range seeds {
		for _, h := range s.Positions {
			b.cands = append(b.cands, cand{
				read:      readIdx,
				seedStart: int32(s.Start),
				seedEnd:   int32(s.End),
				refPos:    h,
				flags:     flags,
			})
		}
	}
}
