package pipeline

import "genax/internal/extend"

// lane is the one kind of worker the package runs: a seeder, a filter and
// an extension engine wired back to back around one lane-local batch.
// Lanes live on the Pipeline's free list between windows, so the state
// that is expensive to build — the CAM, the dedup map, the chainer and
// above all the extension engine — is built once per lane, not per call.
type lane struct {
	p    *Pipeline
	seed seedLane
	filt filterLane
	ext  extendLane
	b    batch
	// stats are the work counters of the current run: zeroed when the
	// lane is checked out, merged into the window when it is returned.
	stats Stats
}

func (p *Pipeline) newLane() *lane {
	l := &lane{p: p}
	l.seed = seedLane{opts: p.params.Seeding, stats: &l.stats}
	l.filt = filterLane{
		anchors:  make(map[int64]struct{}),
		max:      p.params.MaxCandidates,
		chainMin: p.params.ChainMinLen,
		maxGap:   int32(p.params.K),
		stats:    &l.stats,
	}
	l.ext = extendLane{p: p, st: extend.Stitcher{Eng: p.newEngine(&l.stats)}, stats: &l.stats}
	return l
}

// checkout appends n lanes with zeroed counters to dst, idle ones first
// and freshly built ones for the rest. Building happens outside the lock:
// at a multi-word K it allocates the wide extension engine.
func (p *Pipeline) checkout(dst []*lane, n int) []*lane {
	p.mu.Lock()
	cut := len(p.lanes) - min(n, len(p.lanes))
	dst = append(dst, p.lanes[cut:]...)
	clear(p.lanes[cut:])
	p.lanes = p.lanes[:cut]
	p.mu.Unlock()
	for _, l := range dst {
		l.stats = Stats{}
	}
	for len(dst) < n {
		dst = append(dst, p.newLane())
	}
	return dst
}

// checkin folds the run's lane counters into the window and returns its
// lanes to the free list, dropping any beyond Workers idle.
func (p *Pipeline) checkin(w *window) {
	for _, l := range w.lanes {
		w.stats.merge(l.stats)
	}
	p.mu.Lock()
	keep := min(len(w.lanes), p.params.Workers-len(p.lanes))
	p.lanes = append(p.lanes, w.lanes[:keep]...)
	p.mu.Unlock()
	clear(w.lanes)
	w.lanes = w.lanes[:0]
}

// runWindow aligns a prepared window: it checks out one lane per barrier
// party, runs the first on the caller's goroutine and the rest on their
// own, and returns the lanes once all have walked every segment. The
// WaitGroup is the happens-before edge that lets the caller read slots
// and exact flags without locks. AlignBatch, AlignStream and AlignRead
// all align through here; a one-chunk window starts no goroutine.
func (p *Pipeline) runWindow(w *window) {
	w.lanes = p.checkout(w.lanes[:0], w.bar.parties)
	for _, l := range w.lanes[1:] {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			l.run(w)
		}()
	}
	w.lanes[0].run(w)
	w.wg.Wait()
	p.checkin(w)
}

// run walks the reference segment by segment. Per segment the lane claims
// chunks of reads off the segment cursor until none are left; a chunk's
// candidates for one segment form the lane's batch, which is seeded,
// filtered and extended before the next claim. An empty batch skips the
// later stages unless the window is traced, in which case its
// hw.LaneWork items still have to reach the trace.
func (l *lane) run(w *window) {
	p := l.p
	inst := p.params.Instrument
	res := p.params.Residency
	b := &l.b
	n := int64(len(w.reads))
	for s, si := range p.index.Samples {
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
				l.seed.seedOne(w.reads[i], int32(i), false, w, b)
				l.seed.seedOne(w.revs[i], int32(i), true, w, b)
			}
			t1 := inst.now()
			if inst != nil {
				inst.Seed.record(t0, t1, 1, int64(len(b.cands)))
			}
			if len(b.cands) == 0 && w.trace == nil {
				continue
			}
			l.filt.filter(b)
			t2 := inst.now()
			if inst != nil {
				inst.Filter.record(t1, t2, 1, int64(len(b.cands)))
			}
			if len(b.cands) == 0 && w.trace == nil {
				continue
			}
			l.ext.process(b)
			if inst != nil {
				inst.Extend.record(t2, inst.now(), 1, int64(len(b.cands)))
			}
			if w.trace != nil {
				// Two items per read, in read order: the trace comes out
				// segment-major whichever lane claimed the chunk.
				copy(w.trace[2*(int64(s)*n+start):], b.work)
			}
		}
		w.bar.await()
		if res != nil {
			res.Release(s)
		}
	}
	b.win = nil
}
