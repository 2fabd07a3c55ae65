package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/indexio"
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

// genome is one served reference: its admission layer — a bounded intake
// queue and a dispatcher goroutine that flushes each request with whatever
// queued behind it as one AlignBatch call (a positive CoalesceWindow also
// waits for more) — and its residency in the registry. The queue bound
// doubles as the admission limit: a full queue is a 429, never growth.
type genome struct {
	srv   *Server
	name  string
	fasta string

	// in is the intake queue (capacity QueueLimit). Handlers enqueue with
	// a non-blocking send; the dispatcher is the only receiver.
	in chan pending

	// Serve-layer counters, exported by /statsz.
	admitted atomic.Int64 // requests admitted past the queue bound
	rejected atomic.Int64 // requests shed with 429
	expired  atomic.Int64 // admitted requests dropped unaligned (context done)
	batches  atomic.Int64 // coalesced flushes dispatched
	batched  atomic.Int64 // reads aligned via coalesced flushes
	maxBatch atomic.Int64 // largest flush so far

	// batch and reads are the dispatcher's flush buffers: only it touches
	// them, and run clears them after each flush so nothing stays pinned.
	batch []pending
	reads []dna.Seq

	// pstats accumulates core.Stats across flushes.
	mu     sync.Mutex
	pstats core.Stats

	// Residency, guarded by registry.mu. The genome is resident while
	// aligner (and mapped) are set, and cold otherwise.
	aligner *core.Aligner
	mapped  *indexio.Mapped
	loading bool  // a load of this genome is in flight (for /statsz)
	refcnt  int   // in-flight flushes and preloads pinning this genome
	lastUse int64 // LRU tick from registry.tick
}

// enqueue admits one request into the coalescing queue, or reports false
// when the queue is at the admission limit (the handler answers 429).
func (g *genome) enqueue(p pending) bool {
	select {
	case g.in <- p:
		g.admitted.Add(1)
		return true
	default:
		g.rejected.Add(1)
		return false
	}
}

// run is the dispatcher loop: wait for a first request, collect, flush,
// repeat. Bounded by the server's base context; Close cancels it after
// http.Server.Shutdown has guaranteed no handler is still waiting.
func (g *genome) run(ctx context.Context) {
	for {
		select {
		case p := <-g.in:
			g.batch = g.collect(ctx, p)
			g.flush(ctx, g.batch)
			clear(g.batch)
			clear(g.reads)
		case <-ctx.Done():
			return
		}
	}
}

// collect assembles one batch behind first: every request already queued,
// up to MaxBatch. With no window that is the batch, so requests queue only
// while a flush is running; a positive CoalesceWindow then also waits that
// long for more.
func (g *genome) collect(ctx context.Context, first pending) []pending {
	batch := append(g.batch[:0], first)
	// The dispatcher is the queue's only receiver, so a non-empty queue
	// never blocks the receive.
	for len(batch) < g.srv.cfg.MaxBatch && len(g.in) > 0 {
		batch = append(batch, <-g.in)
	}
	if g.srv.cfg.CoalesceWindow <= 0 || len(batch) == g.srv.cfg.MaxBatch {
		return batch
	}
	timer := time.NewTimer(g.srv.cfg.CoalesceWindow)
	defer timer.Stop()
	for len(batch) < g.srv.cfg.MaxBatch {
		select {
		case p := <-g.in:
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
func (g *genome) flush(ctx context.Context, batch []pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			g.expired.Add(1)
			p.res <- result{err: fmt.Errorf("request abandoned before dispatch: %w", err)}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	al, err := g.srv.reg.acquire(ctx, g)
	if err != nil {
		for _, p := range live {
			p.res <- result{err: err}
		}
		return
	}
	defer g.srv.reg.release(g)

	g.reads = g.reads[:0]
	for _, p := range live {
		g.reads = append(g.reads, p.read)
	}
	results, stats := al.AlignBatch(g.reads)
	// Count the flush before answering: /statsz then covers every answer.
	n := int64(len(live))
	g.batches.Add(1)
	g.batched.Add(n)
	for {
		cur := g.maxBatch.Load()
		if n <= cur || g.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	g.mu.Lock()
	g.pstats.Merge(stats)
	g.mu.Unlock()
	for i, rr := range results {
		live[i].res <- result{rr: rr}
	}
}
