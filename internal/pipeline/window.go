package pipeline

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
// AlignRead. Windows are kept on the Pipeline's free list and all their
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
	// read, strand) in that order; each lane fills the items of its chunks.
	trace []hw.LaneWork
}

// getWindow takes an idle window off the free list, or makes one.
func (p *Pipeline) getWindow() *window {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.wins); n > 0 {
		w := p.wins[n-1]
		p.wins[n-1] = nil
		p.wins = p.wins[:n-1]
		return w
	}
	return &window{}
}

// putWindow drops the window's references to the caller's reads and
// returns it to the free list. A window grown past the stream window by
// one large batch is left to the collector instead, so retained memory
// stays a function of the configuration, not of the largest call seen.
func (p *Pipeline) putWindow(w *window) {
	w.reads, w.trace = nil, nil
	clear(w.admit[:cap(w.admit)])
	if cap(w.slots) > p.params.Window {
		return
	}
	p.mu.Lock()
	if len(p.wins) <= p.params.Workers {
		p.wins = append(p.wins, w)
	}
	p.mu.Unlock()
}

// prepare readies the window for the reads in w.reads: it computes
// reverse complements into the reused backing buffer, resets the merge
// slots and per-segment cursors, and sizes the run at one lane per chunk
// up to Workers.
func (w *window) prepare(p *Pipeline, traced bool) {
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

	segs := p.index.NumSegments()
	if cap(w.cursors) < segs {
		w.cursors = make([]atomic.Int64, segs)
	}
	w.cursors = w.cursors[:segs]
	for i := range w.cursors {
		w.cursors[i].Store(0)
	}
	w.chunk = claimChunk(n, p.params.Workers)
	chunks := (int64(n) + w.chunk - 1) / w.chunk
	w.bar.reset(int(min(int64(p.params.Workers), chunks)))

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
