// Package serve is the alignment-as-a-service front end over core.Aligner:
// it turns many small concurrent requests — the traffic shape of "millions
// of users" — into the large batches the pipeline is fast at, and
// serves multiple reference genomes from one process via a registry of
// mmap-backed index caches.
//
// The layer has three parts (DESIGN.md §14):
//
//   - Admission/coalescing. Each genome owns a bounded intake queue and a
//     dispatcher goroutine. A request either enters the queue immediately
//     or is rejected with 429 + Retry-After — the queue bound is the
//     admission limit, so overload sheds load instead of growing memory.
//     The dispatcher coalesces queued requests into a batch, flushing on
//     max-batch-size or max-delay (whichever comes first), runs the batch
//     through one core.Aligner.AlignStream session, and fans the in-order
//     results back out to the waiting requests. Per-request overhead
//     (the session, per-segment table streaming, cache residency)
//     amortizes across the whole batch, and a batch spreads over every
//     lane where a lone read occupies one. With CoalesceWindow zero the
//     layer degrades to per-request serving on AlignRead, bounded by the
//     same admission limit.
//
//   - Genome registry. Genomes are named at construction; each resolves
//     to a content-addressed GAXI index cache (indexio.CachePath) that
//     is opened zero-copy (indexio.OpenMapped) on first use — microseconds
//     when the cache is fresh, a bounded-concurrency build+write+map when
//     indexio.Probe reports it missing or stale (the staleness reason is
//     logged, never silently swallowed). Resident genomes are held under
//     an LRU budget: acquiring a cold genome past the budget evicts the
//     least-recently-used idle genome and unmaps its cache. A genome is
//     never evicted while a batch is in flight against it (refcount).
//
//   - Deadlines and drain. Each request carries its http.Request context;
//     requests whose context is already done when the dispatcher assembles
//     a batch are dropped (counted, not aligned), and when every member of
//     a batch carries a deadline the batch's AlignStream context expires at
//     the latest of them, so an abandoned batch stops admitting windows
//     instead of running to completion. StartDrain makes handlers reject
//     new work with 503 while in-flight requests finish; Close then stops
//     the dispatchers and unmaps every resident genome.
//
// The package obeys the stage-contract analyzer's discipline (genaxvet):
// every data channel states its capacity and every goroutine is
// WaitGroup-tracked or context-bounded. Unlike the kernel packages it is
// not on the determinism list — coalescing is inherently timer-driven —
// but the *results* it serves are byte-identical to offline AlignBatch,
// which the benchmark's serve_err2 correctness gate checks answer by answer.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"genax/internal/core"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxBatch is the coalescing flush threshold: a batch is
	// dispatched as soon as this many requests are waiting.
	DefaultMaxBatch = 256
	// DefaultCoalesceWindow is the maximum time the first request of a
	// batch waits for company before the batch is flushed anyway.
	DefaultCoalesceWindow = 2 * time.Millisecond
	// DefaultMaxResident is the registry's LRU residency budget (genomes
	// mapped at once).
	DefaultMaxResident = 2
	// DefaultRetryAfter is the Retry-After hint attached to 429 responses.
	DefaultRetryAfter = time.Second
	// DefaultMaxReadBytes bounds the request body (one read's bases).
	DefaultMaxReadBytes = 1 << 20
)

// GenomeConfig names one reference genome the server can align against.
type GenomeConfig struct {
	// Name is the genome's URL-visible identifier (/align/<name>).
	Name string
	// Fasta is the reference FASTA path. The index cache is content-
	// addressed next to it (or under Config.CacheDir) exactly like
	// `genax index -out auto`, so a cache written by the CLI is found and
	// mapped by the server, and vice versa.
	Fasta string
	// Preload marks the genome for warm loading by Preload, so the first
	// request pays neither the build nor the map.
	Preload bool
}

// Config parametrizes a Server.
type Config struct {
	// Genomes is the served genome set; requests naming anything else get
	// 404. Names must be unique and non-empty.
	Genomes []GenomeConfig
	// Core is the aligner configuration template (geometry, engine, lane
	// budget, MinScore). Index, Residency and StreamWindow are owned by
	// the serve layer and overwritten per genome.
	Core core.Config
	// CacheDir overrides where index caches live ("" = next to each
	// FASTA).
	CacheDir string
	// MaxBatch caps a coalesced batch (0 = DefaultMaxBatch).
	MaxBatch int
	// CoalesceWindow is the flush delay bound: the first queued request
	// waits at most this long before its batch is dispatched, full or
	// not. Zero disables coalescing entirely — every request runs alone
	// on AlignRead.
	CoalesceWindow time.Duration
	// QueueLimit bounds requests admitted per genome — queued requests in
	// coalescing mode, in-flight requests in per-request mode. Admission
	// beyond it is rejected with 429 + Retry-After (0 = 4*MaxBatch).
	QueueLimit int
	// MaxResident bounds genomes resident (mapped, aligner built) at
	// once; the registry evicts least-recently-used idle genomes beyond
	// it (0 = DefaultMaxResident). A genome with a batch in flight is
	// never evicted, so a burst touching more than MaxResident genomes
	// can transiently overshoot the budget rather than deadlock.
	MaxResident int
	// LoadConcurrency bounds concurrent index build/load work on registry
	// misses, so a cold burst across many genomes cannot run the machine
	// out of memory building every index at once (0 = 1).
	LoadConcurrency int
	// Shards partitions caches written on rebuild into this many shard
	// groups (0 = one group); see indexio.WriteFileShards.
	Shards int
	// RetryAfter is the hint attached to 429 responses (0 =
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// MaxReadBytes bounds the request body (0 = DefaultMaxReadBytes).
	MaxReadBytes int
	// Logf receives operational log lines (registry loads with staleness
	// reasons, evictions, drain transitions). Nil means log.Printf.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields; keeps Config itself comparable to
// what the caller wrote.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4 * c.MaxBatch
	}
	if c.MaxResident <= 0 {
		c.MaxResident = DefaultMaxResident
	}
	if c.LoadConcurrency <= 0 {
		c.LoadConcurrency = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.MaxReadBytes <= 0 {
		c.MaxReadBytes = DefaultMaxReadBytes
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is a multi-genome alignment service. Construct with New, mount
// Handler on an http.Server, and shut down with StartDrain (stop admitting)
// followed by Close (stop dispatchers, unmap genomes) once in-flight
// requests have finished — http.Server.Shutdown provides exactly that
// barrier.
type Server struct {
	cfg      Config
	logf     func(string, ...any)
	reg      *registry
	batchers map[string]*batcher
	mux      *http.ServeMux

	base     context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool
	closed   atomic.Bool
}

// New validates cfg, builds the genome registry and one coalescing
// dispatcher per genome, and returns a Server ready to mount. No genome is
// loaded yet; call Preload for warm starts or let the first request pay
// the (bounded-concurrency) load.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Genomes) == 0 {
		return nil, fmt.Errorf("serve: no genomes configured")
	}
	seen := make(map[string]bool, len(cfg.Genomes))
	for _, g := range cfg.Genomes {
		if g.Name == "" {
			return nil, fmt.Errorf("serve: genome with empty name (fasta %q)", g.Fasta)
		}
		if g.Fasta == "" {
			return nil, fmt.Errorf("serve: genome %q has no reference FASTA", g.Name)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("serve: duplicate genome name %q", g.Name)
		}
		seen[g.Name] = true
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		logf:     cfg.Logf,
		reg:      newRegistry(cfg),
		batchers: make(map[string]*batcher, len(cfg.Genomes)),
		base:     base,
		cancel:   cancel,
	}
	for _, g := range cfg.Genomes {
		b := newBatcher(s, g.Name)
		s.batchers[g.Name] = b
		if cfg.CoalesceWindow > 0 {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				b.run(base)
			}()
		}
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the HTTP surface: POST /align/{genome}, GET /statsz,
// GET /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Preload warm-loads every genome marked GenomeConfig.Preload (all of
// them when none is marked and all is true), respecting the registry's
// load-concurrency bound sequentially. Loading more genomes than
// MaxResident is not an error — the LRU keeps the last ones resident.
func (s *Server) Preload(ctx context.Context, all bool) error {
	for _, g := range s.cfg.Genomes {
		if !g.Preload && !all {
			continue
		}
		e, err := s.reg.acquire(ctx, g.Name)
		if err != nil {
			return fmt.Errorf("serve: preload %q: %w", g.Name, err)
		}
		s.reg.release(e)
	}
	return nil
}

// StartDrain flips the server into drain mode: every subsequent request is
// rejected with 503 while requests already admitted keep running. Safe to
// call more than once.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining (new requests rejected with 503)")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the dispatchers and unmaps every resident genome. Callers
// must first ensure no requests are in flight — StartDrain followed by
// http.Server.Shutdown gives that guarantee, because every queued request
// has a handler goroutine waiting on it and Shutdown returns only after
// all handlers do. Idempotent.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.cancel()
	s.wg.Wait()
	s.reg.closeAll()
}
