package pipeline

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
func (p *Pipeline) AlignBatch(reads []dna.Seq) ([]ReadResult, Stats) {
	res, stats, _ := p.alignBatch(reads, false)
	return res, stats
}

// AlignBatchTraced is AlignBatch plus the per-(read, strand, segment) work
// items consumed by hw.SimulateLanes (the Fig 11 lane-scheduling model).
func (p *Pipeline) AlignBatchTraced(reads []dna.Seq) ([]ReadResult, Stats, []hw.LaneWork) {
	return p.alignBatch(reads, true)
}

func (p *Pipeline) alignBatch(reads []dna.Seq, traced bool) ([]ReadResult, Stats, []hw.LaneWork) {
	stats := Stats{Segments: p.index.NumSegments()}
	results := make([]ReadResult, 0, len(reads))
	if len(reads) == 0 {
		return results, stats, nil
	}
	w := p.getWindow()
	w.reads = reads
	w.prepare(p, traced)
	p.runWindow(w)
	w.emit(p.params.MinScore, &stats, func(rr ReadResult) { results = append(results, rr) })
	trace := w.trace
	p.putWindow(w)
	return results, stats, trace
}

// AlignRead maps a single read (both strands, all segments): a one-read
// window on one lane, run inline on the caller's goroutine. Safe for
// concurrent use; steady state allocates only the adopted result cigars.
func (p *Pipeline) AlignRead(read dna.Seq) (align.Result, bool) {
	rr, _ := p.alignRead(read)
	return rr.Result, rr.Aligned
}

// alignRead is AlignRead plus the lane's work counters for the read.
func (p *Pipeline) alignRead(read dna.Seq) (ReadResult, Stats) {
	w := p.getWindow()
	w.admit = append(w.admit[:0], read)
	w.reads = w.admit
	w.prepare(p, false)
	p.runWindow(w)
	rr, stats := finalizeSlot(&w.slots[0], p.params.MinScore), w.stats
	p.putWindow(w)
	return rr, stats
}

// AlignStream maps reads arriving on in, emitting one ReadResult per read
// on the returned channel in input order. Reads are admitted in windows
// of at most Params.Window; a session holds two windows (one filling
// while the other executes), so memory stays bounded no matter how long
// the stream runs. The returned Stats is populated when the
// result channel closes and must not be read before then.
//
// Cancelling ctx stops admission: it is observed between receives on in,
// so a producer blocked mid-send should close in to unblock the stream.
// Reads already admitted are still aligned and emitted before the result
// channel closes.
func (p *Pipeline) AlignStream(ctx context.Context, in <-chan dna.Seq) (<-chan ReadResult, *Stats) {
	out := make(chan ReadResult, 64)
	stats := &Stats{}
	go p.streamRun(ctx, in, out, stats)
	return out, stats
}

func (p *Pipeline) streamRun(ctx context.Context, in <-chan dna.Seq, out chan<- ReadResult, stats *Stats) {
	defer close(out)
	stats.Segments = p.index.NumSegments()
	var stopped atomic.Bool
	stopWatch := context.AfterFunc(ctx, func() { stopped.Store(true) })
	defer stopWatch()

	// Two windows ping-pong: while one executes, the other fills from the
	// input — the reorder buffer that keeps emission in input order is
	// simply the window itself. Only one window executes at a time, so
	// the lanes of window n+1 never contend with those of window n for
	// cores or for a mapped index's resident shard group.
	wins := [2]*window{p.getWindow(), p.getWindow()}
	defer func() {
		p.putWindow(wins[0])
		p.putWindow(wins[1])
	}()
	emit := func(w *window) {
		w.emit(p.params.MinScore, stats, func(rr ReadResult) { out <- rr })
	}
	var running sync.WaitGroup // the executing window's runWindow call
	var prev *window           // executed or executing, not yet emitted
	for cur := 0; ; cur ^= 1 {
		w := wins[cur]
		n := fillWindow(w, in, &stopped, p.params.Window)
		if n > 0 {
			w.prepare(p, false)
		}
		running.Wait()
		if n > 0 {
			running.Add(1)
			go func() {
				defer running.Done()
				p.runWindow(w)
			}()
		}
		if prev != nil {
			emit(prev)
		}
		if n < p.params.Window {
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
