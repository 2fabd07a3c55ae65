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

// batcher is one genome's admission layer: a bounded intake queue, a
// dispatcher goroutine that coalesces queued requests into AlignStream
// batches (flush on MaxBatch or CoalesceWindow, whichever first), and the
// per-request fallback used when coalescing is disabled. The queue bound
// doubles as the admission limit — a full queue is a 429, never growth.
type batcher struct {
	srv  *Server
	name string

	// in is the intake queue (capacity QueueLimit). Handlers enqueue with
	// a non-blocking send; the dispatcher is the only receiver.
	in chan pending
	// slots bounds in-flight requests in per-request mode (coalescing
	// off), mirroring the queue bound so both modes shed at the same
	// admission limit.
	slots chan struct{}

	// Serve-layer counters, exported by /statsz.
	admitted  atomic.Int64 // requests admitted past the queue bound
	rejected  atomic.Int64 // requests shed with 429
	expired   atomic.Int64 // admitted requests dropped unaligned (context done)
	completed atomic.Int64 // requests answered with an alignment result
	batches   atomic.Int64 // coalesced flushes dispatched
	batched   atomic.Int64 // reads aligned via coalesced flushes
	maxBatch  atomic.Int64 // largest flush so far
	depth     atomic.Int64 // current queue depth (admitted, not yet collected)

	// pstats accumulates pipeline.Stats across flushes. Per-request calls
	// contribute nothing: AlignRead returns no Stats, so its lane's
	// counters are dropped when the lane goes back on the free list.
	mu     sync.Mutex
	pstats core.Stats
}

func newBatcher(s *Server, name string) *batcher {
	return &batcher{
		srv:   s,
		name:  name,
		in:    make(chan pending, s.cfg.QueueLimit),
		slots: make(chan struct{}, s.cfg.QueueLimit),
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

// collect assembles one batch: the first request waits at most
// CoalesceWindow for company, and the batch closes early at MaxBatch.
func (b *batcher) collect(ctx context.Context, first pending) []pending {
	batch := make([]pending, 1, b.srv.cfg.MaxBatch)
	batch[0] = first
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

// flush runs one coalesced batch through its own AlignStream session —
// cheap: the session borrows warm lanes and windows from the aligner's
// free lists — and fans the in-order results back to the waiting requests. Requests whose
// context is already done are dropped before alignment (their slot in the
// batch would be wasted work nobody collects). When every live request
// carries a deadline the session's context expires at the latest of them,
// so a batch all of whose clients have given up stops admitting windows
// instead of running to completion.
func (b *batcher) flush(ctx context.Context, batch []pending) {
	live := make([]pending, 0, len(batch))
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

	bctx := ctx
	if dl, ok := latestDeadline(live); ok {
		var cancel context.CancelFunc
		bctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}

	in := make(chan dna.Seq, len(live))
	for _, p := range live {
		in <- p.read
	}
	close(in)
	out, stats := e.aligner.AlignStream(bctx, in)
	i := 0
	for rr := range out {
		live[i].res <- result{rr: rr}
		i++
	}
	b.completed.Add(int64(i))
	// A cancelled session closes out short; tell the stragglers why.
	if i < len(live) {
		err := bctx.Err()
		if err == nil {
			err = context.Canceled
		}
		for ; i < len(live); i++ {
			b.expired.Add(1)
			live[i].res <- result{err: fmt.Errorf("batch cancelled: %w", err)}
		}
	}

	b.batches.Add(1)
	b.batched.Add(int64(len(live)))
	for {
		cur := b.maxBatch.Load()
		if int64(len(live)) <= cur || b.maxBatch.CompareAndSwap(cur, int64(len(live))) {
			break
		}
	}
	b.mu.Lock()
	b.pstats.Merge(*stats)
	b.mu.Unlock()
}

// latestDeadline returns the latest context deadline across live requests,
// or ok=false when any request has none (then the batch inherits the
// server context: no artificial bound).
func latestDeadline(live []pending) (time.Time, bool) {
	var latest time.Time
	for _, p := range live {
		dl, ok := p.ctx.Deadline()
		if !ok {
			return time.Time{}, false
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return latest, true
}

// alignOne is the per-request path (coalescing disabled): acquire the
// genome, run AlignRead (one lane, inline), release. The slots channel
// caps concurrency at the same admission limit the queue would.
func (b *batcher) alignOne(ctx context.Context, read dna.Seq) (core.ReadResult, error) {
	select {
	case b.slots <- struct{}{}:
		defer func() { <-b.slots }()
		b.admitted.Add(1)
	default:
		b.rejected.Add(1)
		return core.ReadResult{}, errOverloaded
	}
	e, err := b.srv.reg.acquire(ctx, b.name)
	if err != nil {
		return core.ReadResult{}, err
	}
	defer b.srv.reg.release(e)
	res, ok := e.aligner.AlignRead(read)
	b.completed.Add(1)
	return core.ReadResult{Result: res, Aligned: ok}, nil
}

// errOverloaded marks admission-limit rejections; the HTTP layer maps it
// to 429 + Retry-After.
var errOverloaded = fmt.Errorf("serve: admission queue full")
