package core

import "genax/internal/extend"

// lane is the one kind of worker the package runs: a seeder, a filter and
// an extension engine wired back to back around one lane-local batch.
// Lanes live on the Aligner's free list between windows, so the state
// that is expensive to build — the CAM, the dedup map, the chainer and
// above all the extension engine — is built once per lane, not per call.
type lane struct {
	a    *Aligner
	seed seedLane
	filt filterLane
	ext  extendLane
	b    batch
	// stats are the work counters of the current run: zeroed when the
	// lane is checked out, merged into the window when it is returned.
	stats Stats
}

func (a *Aligner) newLane() *lane {
	l := &lane{a: a}
	l.seed = seedLane{opts: a.cfg.Seeding, stats: &l.stats}
	l.filt = filterLane{
		anchors:  make(map[int64]struct{}),
		chainMin: a.chainMin,
		maxGap:   int32(a.cfg.K),
		stats:    &l.stats,
	}
	l.ext = extendLane{a: a, st: extend.Stitcher{Eng: a.newEngine()}, stats: &l.stats}
	return l
}

// checkout appends n lanes with zeroed counters to dst, idle ones first
// and freshly built ones for the rest. Building happens outside the lock:
// at a multi-word K it allocates the wide extension engine.
func (a *Aligner) checkout(dst []*lane, n int) []*lane {
	a.mu.Lock()
	cut := len(a.lanes) - min(n, len(a.lanes))
	dst = append(dst, a.lanes[cut:]...)
	clear(a.lanes[cut:])
	a.lanes = a.lanes[:cut]
	a.mu.Unlock()
	for _, l := range dst {
		l.stats = Stats{}
	}
	for len(dst) < n {
		dst = append(dst, a.newLane())
	}
	return dst
}

// checkin folds the run's lane counters into the window, and their host
// seeding counters into the aligner's, and returns its lanes to the free
// list, dropping any beyond Workers idle.
func (a *Aligner) checkin(w *window) {
	for _, l := range w.lanes {
		w.stats.merge(l.stats)
	}
	a.mu.Lock()
	for _, l := range w.lanes {
		a.host.add(l.seed.takeHost())
	}
	keep := min(len(w.lanes), a.cfg.Workers-len(a.lanes))
	a.lanes = append(a.lanes, w.lanes[:keep]...)
	a.mu.Unlock()
	clear(w.lanes)
	w.lanes = w.lanes[:0]
}

// runWindow aligns a prepared window: it checks out one lane per barrier
// party, runs the first on the caller's goroutine and the rest on their
// own, and returns the lanes once all have walked every segment. The
// WaitGroup is the happens-before edge that lets the caller read slots
// and exact flags without locks. AlignBatch, AlignStream and AlignRead
// all align through here; a one-chunk window starts no goroutine.
func (a *Aligner) runWindow(w *window) {
	w.lanes = a.checkout(w.lanes[:0], w.bar.parties)
	for _, l := range w.lanes[1:] {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			l.run(w)
		}()
	}
	w.lanes[0].run(w)
	w.wg.Wait()
	a.checkin(w)
}

// run walks the reference segment by segment. Per segment the lane claims
// chunks of reads off the segment cursor until none are left; a chunk's
// candidates for one segment form the lane's batch, which is seeded,
// filtered and extended before the next claim. A read an earlier segment
// resolved exactly is retired: not seeded again. An empty batch skips the
// later stages; on a traced run the stages write their trace items in
// place (window.item).
func (l *lane) run(w *window) {
	a := l.a
	inst := a.cfg.Instrument
	res := a.cfg.Residency
	b := &l.b
	n := int64(len(w.reads))
	for s, si := range a.cfg.Index.Samples {
		// Announce the segment before touching its tables so a sharded
		// mapped index can admit the shard group (and block us while the
		// residency budget is spent elsewhere). The matching Release sits
		// after the barrier: by then every lane is done reading segment
		// s, so the group can be retired the moment its last segment
		// drains.
		if res != nil {
			res.Acquire(s)
		}
		l.seed.bind(si)
		for {
			start := w.cursors[s].Add(w.chunk) - w.chunk
			if start >= n {
				break
			}
			end := min(start+w.chunk, n)
			b.reset(w, int32(s))
			t0 := inst.now()
			for i := start; i < end; i++ {
				// Retire a read an earlier segment e resolved exactly (the
				// barrier ordered that write before this claim):
				//  - its incumbent scores m·Match, the ceiling;
				//  - a tie goes leftmost, then forward (Result.Better);
				//  - s's hits lie ≥ SegmentLen ≥ Overlap > m right of e's
				//    start, so an exact hit of s left of the incumbent lies
				//    wholly in e, whose uncapped exactMatch found it;
				//  - an equal hit loses to e on merge rank.
				if w.exact[i] {
					continue
				}
				l.seed.seedOne(w.reads[i], int32(i), false, b)
				l.seed.seedOne(w.revs[i], int32(i), true, b)
			}
			t1 := inst.now()
			if inst != nil {
				inst.Seed.record(t0, t1)
			}
			if len(b.cands) == 0 {
				continue
			}
			l.filt.filter(b)
			t2 := inst.now()
			if inst != nil {
				inst.Filter.record(t1, t2)
			}
			if len(b.cands) == 0 {
				continue
			}
			l.ext.process(b)
			if inst != nil {
				inst.Extend.record(t2, inst.now())
			}
		}
		w.bar.await()
		if res != nil {
			res.Release(s)
		}
	}
	b.win = nil
}
