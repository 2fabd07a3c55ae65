package core

import (
	"sync"
	"sync/atomic"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/hw"
)

// slot is a read's in-flight best alignment. rank is the canonical merge
// rank of the adopted candidate: segment in the high 32 bits, the
// candidate's post-filter batch index below. Adopting a candidate only
// when it strictly beats the incumbent under align.Result's total order —
// or ties it with a lower rank — makes the merge associative and
// commutative, so lanes may claim chunks in any interleaving and still
// reproduce the one-lane sequential loop byte for byte.
type slot struct {
	res     align.Result
	rank    int64
	aligned bool
}

// window is one admission unit of reads: the whole batch for AlignBatch,
// a bounded slice of the input stream for AlignStream, one read for
// AlignRead. Windows are kept on the Aligner's free list and all their
// buffers are reused.
type window struct {
	reads  []dna.Seq // the reads being aligned: the caller's slice, or admit
	admit  []dna.Seq // owned admission buffer (AlignStream, AlignRead)
	revs   []dna.Seq // reverse complements, backed by revBuf
	revBuf dna.Seq

	slots []slot
	exact []bool // read resolved via the exact-match fast path somewhere

	// cursors hand out chunk claims per segment; chunk is the claim size.
	cursors []atomic.Int64
	chunk   int64
	bar     barrier // one party per lane of the run

	// lanes are the fused lanes checked out for the current run; wg waits
	// for those running on their own goroutines.
	lanes []*lane
	wg    sync.WaitGroup
	// stats collects the lanes' work counters when they are returned.
	stats Stats
	// trace is non-nil on a traced run: one hw.LaneWork per (segment,
	// read, strand), laid out by item and written in place by the lanes.
	trace []hw.LaneWork
}

// item returns the trace item of (segment, read, strand) on a traced run,
// at 2*(seg*n+read)+strand with the forward strand first. Each item has
// one writer: within a segment a read belongs to exactly one claimed
// chunk, so only the lane that claimed it touches its items. A read an
// earlier segment retired is skipped, so its later items stay zero.
//
//genax:hotpath
func (w *window) item(seg, read int32, reverse bool) *hw.LaneWork {
	i := 2 * (int64(seg)*int64(len(w.reads)) + int64(read))
	if reverse {
		i++
	}
	return &w.trace[i]
}

// getWindow takes an idle window off the free list, or makes one.
func (a *Aligner) getWindow() *window {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.wins); n > 0 {
		w := a.wins[n-1]
		a.wins[n-1] = nil
		a.wins = a.wins[:n-1]
		return w
	}
	return &window{}
}

// putWindow drops the window's references to the caller's reads and
// returns it to the free list. A window grown past the stream window by
// one large batch is left to the collector instead, so retained memory
// stays a function of the configuration, not of the largest call seen.
func (a *Aligner) putWindow(w *window) {
	w.reads, w.trace = nil, nil
	clear(w.admit[:cap(w.admit)])
	if cap(w.slots) > a.cfg.StreamWindow {
		return
	}
	a.mu.Lock()
	if len(a.wins) <= a.cfg.Workers {
		a.wins = append(a.wins, w)
	}
	a.mu.Unlock()
}

// prepare readies the window for the reads in w.reads: it computes
// reverse complements into the reused backing buffer, resets the merge
// slots and per-segment cursors, and sizes the run at one lane per chunk
// up to Workers.
func (w *window) prepare(a *Aligner, traced bool) {
	n := len(w.reads)
	total := 0
	for _, r := range w.reads {
		total += len(r)
	}
	if cap(w.revBuf) < total {
		w.revBuf = make(dna.Seq, 0, total)
	}
	buf := w.revBuf[:0]
	if cap(w.revs) < n {
		w.revs = make([]dna.Seq, n)
	}
	w.revs = w.revs[:n]
	for i, r := range w.reads {
		start := len(buf)
		buf = dna.AppendRevComp(buf, r)
		w.revs[i] = buf[start:len(buf):len(buf)]
	}
	w.revBuf = buf

	if cap(w.slots) < n {
		w.slots = make([]slot, n)
	}
	w.slots = w.slots[:n]
	clear(w.slots)
	if cap(w.exact) < n {
		w.exact = make([]bool, n)
	}
	w.exact = w.exact[:n]
	clear(w.exact)

	segs := a.cfg.Index.NumSegments()
	if cap(w.cursors) < segs {
		w.cursors = make([]atomic.Int64, segs)
	}
	w.cursors = w.cursors[:segs]
	for i := range w.cursors {
		w.cursors[i].Store(0)
	}
	w.chunk = claimChunk(n, a.cfg.Workers)
	chunks := (int64(n) + w.chunk - 1) / w.chunk
	w.bar.reset(int(min(int64(a.cfg.Workers), chunks)))

	w.stats = Stats{}
	w.trace = nil
	if traced {
		w.trace = make([]hw.LaneWork, 2*n*segs) // handed to the caller
	}
}

// emit finalizes a completed window's slots in read order, applying the
// MinScore gate and yielding each result, and folds the per-read tallies
// and the lanes' work counters into stats.
func (w *window) emit(minScore int, stats *Stats, yield func(ReadResult)) {
	for i := range w.slots {
		rr := finalizeSlot(&w.slots[i], minScore)
		if rr.Aligned {
			stats.Aligned++
		}
		if w.exact[i] {
			stats.ExactReads++
		}
		yield(rr)
	}
	stats.Reads += len(w.slots)
	stats.merge(w.stats)
}
