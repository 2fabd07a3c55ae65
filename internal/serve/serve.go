// Package serve is the alignment-as-a-service front end over core.Aligner:
// it turns many small concurrent requests — the traffic shape of "millions
// of users" — into the large batches the pipeline is fast at, and
// serves multiple reference genomes from one process via a registry of
// mmap-backed index caches.
//
// The layer has three parts (DESIGN.md §13):
//
//   - Admission/coalescing. Each genome owns a bounded intake queue and a
//     dispatcher goroutine, and every request takes that one path. A
//     request either enters the queue immediately or is rejected with
//     429 + Retry-After — the queue bound is the admission limit, so
//     overload sheds load instead of growing memory. The dispatcher
//     takes the first request with every request already queued (up to
//     MaxBatch), aligns them as one AlignBatch call and fans the in-order
//     results back out. With no CoalesceWindow (Config's zero value) it
//     waits for nobody: requests queue only while a flush runs, so batches
//     grow with the load, and under load per-request overhead (table
//     streaming, cache residency) amortizes and a batch spreads over every
//     lane. A positive window also holds each batch up to that long for
//     company, trading latency for batch size.
//
//   - Genome registry. Genomes are named at construction; each resolves
//     to a content-addressed GAXI index cache (indexio.CachePath) that
//     is opened zero-copy by indexio.Ensure on first use — microseconds
//     when the cache is fresh, a build+write+map when Ensure finds it
//     missing or stale (the staleness reason is logged, never silently
//     swallowed). A load runs on the goroutine that needs the genome, one
//     load at a time. Resident genomes are held under an LRU budget:
//     loading a cold genome past the budget evicts the least-recently-used
//     idle genome and unmaps its cache. A genome is never evicted while a
//     batch is in flight against it (refcount).
//
//   - Deadlines and drain. Each request carries its http.Request context;
//     requests whose context is already done when the dispatcher assembles
//     a batch are dropped (counted, not aligned). StartDrain makes handlers
//     reject new work with 503 while in-flight requests finish; Close then
//     stops the dispatchers and unmaps every resident genome.
//
// The package obeys the stage-contract analyzer's discipline (genaxvet):
// every data channel states its capacity and every goroutine is
// WaitGroup-tracked or context-bounded. Unlike the kernel packages it is
// not on the determinism list — batch boundaries follow arrival timing —
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
	// DefaultMaxBatch caps a batch: one flush takes at most this many
	// queued requests, and the rest wait for the next flush.
	DefaultMaxBatch = 256
	// DefaultCoalesceWindow is genaxd's -coalesce-window default. An idle
	// Go process sleeps a whole millisecond on any shorter timer, so it
	// costs a lone read about 1 ms that window 0 (Config's zero value)
	// saves. It stays positive until the benchmark measures held time.
	DefaultCoalesceWindow = 200 * time.Microsecond
	// DefaultMaxResident is the registry's LRU residency budget (genomes
	// mapped at once).
	DefaultMaxResident = 2
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
	// budget, MinScore). Index and Residency are owned by the serve layer
	// and overwritten per genome.
	Core core.Config
	// CacheDir overrides where index caches live ("" = next to each
	// FASTA).
	CacheDir string
	// MaxBatch caps a coalesced batch (0 = DefaultMaxBatch).
	MaxBatch int
	// CoalesceWindow is how long a batch waits for company before it is
	// flushed, full or not. Zero (or less) waits for nobody: a flush takes
	// what is already queued, up to MaxBatch, and starts at once.
	CoalesceWindow time.Duration
	// QueueLimit bounds requests queued per genome. Admission beyond it
	// is rejected with 429 + Retry-After (0 = 4*MaxBatch).
	QueueLimit int
	// MaxResident bounds genomes resident (mapped, aligner built) at
	// once; the registry evicts least-recently-used idle genomes beyond
	// it (0 = DefaultMaxResident). A genome with a batch in flight is
	// never evicted, so a burst touching more than MaxResident genomes
	// can transiently overshoot the budget rather than deadlock.
	MaxResident int
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
	cfg     Config
	logf    func(string, ...any)
	reg     *registry
	genomes map[string]*genome
	mux     *http.ServeMux

	base     context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool
	closed   atomic.Bool
}

// New validates cfg, builds the genome registry and one coalescing
// dispatcher per genome, and returns a Server ready to mount. No genome is
// loaded yet; call Preload for warm starts or let the first request pay
// the load.
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
		cfg:     cfg,
		logf:    cfg.Logf,
		genomes: make(map[string]*genome, len(cfg.Genomes)),
		base:    base,
		cancel:  cancel,
	}
	s.reg = &registry{
		core:        cfg.Core,
		cacheDir:    cfg.CacheDir,
		maxResident: cfg.MaxResident,
		logf:        cfg.Logf,
		genomes:     s.genomes,
	}
	for _, gc := range cfg.Genomes {
		g := &genome{srv: s, name: gc.Name, fasta: gc.Fasta, in: make(chan pending, cfg.QueueLimit)}
		s.genomes[gc.Name] = g
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			g.run(base)
		}()
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the HTTP surface: POST /align/{genome}, GET /statsz,
// GET /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Preload warm-loads, one after another, every genome when all is true,
// and otherwise every genome marked GenomeConfig.Preload. Loading more
// genomes than MaxResident is not an error — the LRU keeps the last ones
// resident.
func (s *Server) Preload(ctx context.Context, all bool) error {
	for _, gc := range s.cfg.Genomes {
		if !gc.Preload && !all {
			continue
		}
		g := s.genomes[gc.Name]
		if _, err := s.reg.acquire(ctx, g); err != nil {
			return fmt.Errorf("serve: preload %q: %w", gc.Name, err)
		}
		s.reg.release(g)
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
