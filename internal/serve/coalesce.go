package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genax/internal/core"
	"genax/internal/dna"
)

// result is one request's outcome, fanned back from a batch flush.
type result struct {
	rr  core.ReadResult
	err error
}

// pending is one admitted request waiting in a genome's intake queue. The
// channel has capacity 1 so the dispatcher's delivery never blocks even if
// the handler has already abandoned the wait (deadline fired between
// admission and flush).
type pending struct {
	ctx  context.Context
	read dna.Seq
	res  chan result
}

// batcher is one genome's admission layer: a bounded intake queue and a
// dispatcher goroutine that coalesces queued requests into AlignBatch
// calls (flush on MaxBatch or CoalesceWindow, whichever first). The queue
// bound doubles as the admission limit — a full queue is a 429, never
// growth.
type batcher struct {
	srv  *Server
	name string

	// in is the intake queue (capacity QueueLimit). Handlers enqueue with
	// a non-blocking send; the dispatcher is the only receiver.
	in chan pending

	// Serve-layer counters, exported by /statsz.
	admitted  atomic.Int64 // requests admitted past the queue bound
	rejected  atomic.Int64 // requests shed with 429
	expired   atomic.Int64 // admitted requests dropped unaligned (context done)
	completed atomic.Int64 // requests answered with an alignment result
	batches   atomic.Int64 // coalesced flushes dispatched
	batched   atomic.Int64 // reads aligned via coalesced flushes
	maxBatch  atomic.Int64 // largest flush so far
	depth     atomic.Int64 // current queue depth (admitted, not yet collected)

	// pstats accumulates pipeline.Stats across flushes.
	mu     sync.Mutex
	pstats core.Stats
}

func newBatcher(s *Server, name string) *batcher {
	return &batcher{
		srv:  s,
		name: name,
		in:   make(chan pending, s.cfg.QueueLimit),
	}
}

// enqueue admits one request into the coalescing queue, or reports false
// when the queue is at the admission limit (the handler answers 429).
func (b *batcher) enqueue(p pending) bool {
	select {
	case b.in <- p:
		b.admitted.Add(1)
		b.depth.Add(1)
		return true
	default:
		b.rejected.Add(1)
		return false
	}
}

// run is the dispatcher loop: wait for a first request, coalesce, flush,
// repeat. Bounded by the server's base context; Close cancels it after
// http.Server.Shutdown has guaranteed no handler is still waiting.
func (b *batcher) run(ctx context.Context) {
	for {
		select {
		case p := <-b.in:
			b.depth.Add(-1)
			b.flush(ctx, b.collect(ctx, p))
		case <-ctx.Done():
			return
		}
	}
}

// collect assembles one batch behind first, closing it at MaxBatch. The
// first request waits at most CoalesceWindow for company; a zero window
// waits for none and takes only what is already queued.
func (b *batcher) collect(ctx context.Context, first pending) []pending {
	batch := make([]pending, 1, b.srv.cfg.MaxBatch)
	batch[0] = first
	if b.srv.cfg.CoalesceWindow <= 0 {
		// The dispatcher is the queue's only receiver, so a non-empty
		// queue never blocks the receive.
		for len(batch) < b.srv.cfg.MaxBatch && len(b.in) > 0 {
			b.depth.Add(-1)
			batch = append(batch, <-b.in)
		}
		return batch
	}
	timer := time.NewTimer(b.srv.cfg.CoalesceWindow)
	defer timer.Stop()
	for len(batch) < b.srv.cfg.MaxBatch {
		select {
		case p := <-b.in:
			b.depth.Add(-1)
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-ctx.Done():
			return batch
		}
	}
	return batch
}

// flush aligns one coalesced batch with a single AlignBatch call and fans
// the in-order results back to the waiting requests. Requests whose
// context is already done are dropped before alignment: their slot in the
// batch would be wasted work nobody collects.
func (b *batcher) flush(ctx context.Context, batch []pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			b.expired.Add(1)
			p.res <- result{err: fmt.Errorf("request abandoned before dispatch: %w", err)}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	e, err := b.srv.reg.acquire(ctx, b.name)
	if err != nil {
		for _, p := range live {
			p.res <- result{err: err}
		}
		return
	}
	defer b.srv.reg.release(e)

	reads := make([]dna.Seq, len(live))
	for i, p := range live {
		reads[i] = p.read
	}
	results, stats := e.aligner.AlignBatch(reads)
	for i, rr := range results {
		live[i].res <- result{rr: rr}
	}

	n := int64(len(live))
	b.completed.Add(n)
	b.batches.Add(1)
	b.batched.Add(n)
	for {
		cur := b.maxBatch.Load()
		if n <= cur || b.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	b.mu.Lock()
	b.pstats.Merge(stats)
	b.mu.Unlock()
}
