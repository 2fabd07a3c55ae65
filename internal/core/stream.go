package core

import (
	"context"
	"sync"
	"sync/atomic"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/hw"
)

// AlignBatch maps all reads, processing the reference segment-major like
// the chip: for each segment, every read is seeded against that segment's
// tables, surviving hits are filtered and extended, and each read keeps
// its best alignment across segments. The whole batch is one window.
func (a *Aligner) AlignBatch(reads []dna.Seq) ([]ReadResult, Stats) {
	res, stats, _ := a.alignBatch(reads, false)
	return res, stats
}

// AlignBatchTraced is AlignBatch plus the per-(read, strand, segment) work
// items consumed by hw.SimulateLanes (the Fig 11 lane-scheduling model).
func (a *Aligner) AlignBatchTraced(reads []dna.Seq) ([]ReadResult, Stats, []hw.LaneWork) {
	return a.alignBatch(reads, true)
}

func (a *Aligner) alignBatch(reads []dna.Seq, traced bool) ([]ReadResult, Stats, []hw.LaneWork) {
	stats := Stats{Segments: a.cfg.Index.NumSegments()}
	results := make([]ReadResult, 0, len(reads))
	if len(reads) == 0 {
		return results, stats, nil
	}
	w := a.getWindow()
	w.reads = reads
	w.prepare(a, traced)
	a.runWindow(w)
	w.emit(a.cfg.MinScore, &stats, func(rr ReadResult) { results = append(results, rr) })
	trace := w.trace
	a.putWindow(w)
	return results, stats, trace
}

// AlignRead maps a single read (both strands, all segments): a one-read
// window on one lane, run inline on the caller's goroutine. Safe for
// concurrent use; steady state allocates only the adopted result cigars.
func (a *Aligner) AlignRead(read dna.Seq) (align.Result, bool) {
	rr, _ := a.alignRead(read)
	return rr.Result, rr.Aligned
}

// alignRead is AlignRead plus the lane's work counters for the read.
func (a *Aligner) alignRead(read dna.Seq) (ReadResult, Stats) {
	w := a.getWindow()
	w.admit = append(w.admit[:0], read)
	w.reads = w.admit
	w.prepare(a, false)
	a.runWindow(w)
	rr, stats := finalizeSlot(&w.slots[0], a.cfg.MinScore), w.stats
	a.putWindow(w)
	return rr, stats
}

// AlignStream maps reads arriving on in, emitting one ReadResult per read
// on the returned channel in input order. Reads are admitted in windows
// of at most Config.StreamWindow; a session holds two windows (one filling
// while the other executes), so memory stays bounded no matter how long
// the stream runs. The returned Stats is populated when the
// result channel closes and must not be read before then.
//
// Cancelling ctx stops admission: it is observed between receives on in,
// so a producer blocked mid-send should close in to unblock the stream.
// Reads already admitted are still aligned and emitted before the result
// channel closes.
func (a *Aligner) AlignStream(ctx context.Context, in <-chan dna.Seq) (<-chan ReadResult, *Stats) {
	out := make(chan ReadResult, 64)
	stats := &Stats{}
	go a.streamRun(ctx, in, out, stats)
	return out, stats
}

func (a *Aligner) streamRun(ctx context.Context, in <-chan dna.Seq, out chan<- ReadResult, stats *Stats) {
	defer close(out)
	stats.Segments = a.cfg.Index.NumSegments()
	var stopped atomic.Bool
	stopWatch := context.AfterFunc(ctx, func() { stopped.Store(true) })
	defer stopWatch()

	// Two windows ping-pong: while one executes, the other fills from the
	// input — the reorder buffer that keeps emission in input order is
	// simply the window itself. Only one window executes at a time, so
	// the lanes of window n+1 never contend with those of window n for
	// cores or for a mapped index's resident shard group.
	wins := [2]*window{a.getWindow(), a.getWindow()}
	defer func() {
		a.putWindow(wins[0])
		a.putWindow(wins[1])
	}()
	emit := func(w *window) {
		w.emit(a.cfg.MinScore, stats, func(rr ReadResult) { out <- rr })
	}
	var running sync.WaitGroup // the executing window's runWindow call
	var prev *window           // executed or executing, not yet emitted
	for cur := 0; ; cur ^= 1 {
		w := wins[cur]
		n := fillWindow(w, in, &stopped, a.cfg.StreamWindow)
		if n > 0 {
			w.prepare(a, false)
		}
		running.Wait()
		if n > 0 {
			running.Add(1)
			go func() {
				defer running.Done()
				a.runWindow(w)
			}()
		}
		if prev != nil {
			emit(prev)
		}
		if n < a.cfg.StreamWindow {
			// Input closed or stream cancelled; drain the last window.
			running.Wait()
			if n > 0 {
				emit(w)
			}
			return
		}
		prev = w
	}
}

// fillWindow admits up to max reads from in, returning how many arrived.
// Cancellation is checked between receives — each receive is a single
// blocking channel operation, keeping the package select-free.
func fillWindow(w *window, in <-chan dna.Seq, stopped *atomic.Bool, max int) int {
	w.admit = w.admit[:0]
	for len(w.admit) < max {
		if stopped.Load() {
			break
		}
		r, ok := <-in
		if !ok {
			break
		}
		w.admit = append(w.admit, r)
	}
	w.reads = w.admit
	return len(w.admit)
}
