package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/indexio"
	"genax/internal/seed"
)

// ErrUnknownGenome reports a request naming a genome the server was not
// configured with; the HTTP layer maps it to 404.
var ErrUnknownGenome = errors.New("serve: unknown genome")

// entry states. An entry starts cold, moves to loading while a build/map is
// in flight, and to ready once an aligner is bound. A failed load or an
// eviction returns it to cold; the next acquire retries.
const (
	entryCold = iota
	entryLoading
	entryReady
)

// entry is one genome's registry slot. All fields except name/fasta are
// guarded by registry.mu.
type entry struct {
	name  string
	fasta string

	state   int
	ready   chan struct{} // closed when the in-flight load finishes (either way)
	loadErr error         // outcome of the last finished load while state is cold

	aligner *core.Aligner
	mapped  *indexio.Mapped
	bytes   int   // mapped cache size, for the statsz snapshot
	refcnt  int   // in-flight batches/requests pinning this entry
	lastUse int64 // LRU tick from registry.tick
}

// registry resolves genome names to resident aligners over mmap-backed
// index caches, under an LRU residency budget. acquire/release bracket
// every use; an entry is never evicted (its cache never unmapped) while
// its refcount is non-zero.
type registry struct {
	core        core.Config // template; Index/Residency/StreamWindow overwritten per genome
	cacheDir    string
	shards      int
	maxResident int
	streamWin   int
	logf        func(string, ...any)

	mu      sync.Mutex
	entries map[string]*entry
	tick    int64 // LRU clock, incremented per acquire

	// loadSem bounds concurrent index build/load work (LoadConcurrency).
	loadSem chan struct{}
	ctx     context.Context // bounds detached load goroutines
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// Counters for /statsz.
	hits       atomic.Int64 // acquires satisfied by a resident entry
	loads      atomic.Int64 // load attempts started
	rebuilds   atomic.Int64 // loads that had to rebuild the cache (Probe miss)
	evictions  atomic.Int64 // entries unmapped by the LRU
	overBudget atomic.Int64 // times residency exceeded the budget with nothing evictable
}

func newRegistry(cfg Config) *registry {
	ctx, cancel := context.WithCancel(context.Background())
	r := &registry{
		core:        cfg.Core,
		cacheDir:    cfg.CacheDir,
		shards:      cfg.Shards,
		maxResident: cfg.MaxResident,
		streamWin:   cfg.MaxBatch,
		logf:        cfg.Logf,
		entries:     make(map[string]*entry, len(cfg.Genomes)),
		loadSem:     make(chan struct{}, cfg.LoadConcurrency),
		ctx:         ctx,
		cancel:      cancel,
	}
	for _, g := range cfg.Genomes {
		r.entries[g.Name] = &entry{name: g.Name, fasta: g.Fasta, state: entryCold}
	}
	return r
}

// acquire resolves name to a ready entry with its refcount incremented, or
// an error: ErrUnknownGenome for unregistered names, ctx.Err() if the
// caller gives up waiting for an in-flight load, or the load's own failure.
// Callers must pair every successful acquire with release.
func (r *registry) acquire(ctx context.Context, name string) (*entry, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownGenome, name)
	}
	tried := false
	for {
		switch e.state {
		case entryReady:
			e.refcnt++
			r.tick++
			e.lastUse = r.tick
			r.mu.Unlock()
			r.hits.Add(1)
			return e, nil
		case entryCold:
			// A failed load parks the entry back here with loadErr set. A
			// fresh acquirer retries once (transient failures stay
			// retryable); the acquirer whose own attempt just failed
			// surfaces the error instead of spinning retries forever.
			if tried && e.loadErr != nil {
				err := e.loadErr
				r.mu.Unlock()
				return nil, err
			}
			tried = true
			// First toucher starts the load. The load runs detached from
			// this request's context so one impatient client cannot strand
			// the other waiters mid-build; the registry context bounds it
			// instead.
			e.state = entryLoading
			e.ready = make(chan struct{})
			e.loadErr = nil
			r.mu.Unlock()
			r.loads.Add(1)
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.load(e)
			}()
			r.mu.Lock()
		case entryLoading:
			ch := e.ready
			r.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			r.mu.Lock()
			// The load finished: ready on success, cold with loadErr on
			// failure. A concurrent acquire may already have restarted a
			// failed load (state back to loading) — loop either way, but
			// surface the failure we waited on rather than retrying
			// forever ourselves.
			if e.state == entryCold && e.loadErr != nil {
				err := e.loadErr
				r.mu.Unlock()
				return nil, err
			}
		}
	}
}

// release undoes one acquire.
func (r *registry) release(e *entry) {
	r.mu.Lock()
	e.refcnt--
	if e.refcnt < 0 {
		e.refcnt = 0 // defensive; indicates a release without acquire
	}
	r.mu.Unlock()
}

// load performs the bounded-concurrency build/map for e and publishes the
// outcome. Runs on a registry-tracked goroutine.
func (r *registry) load(e *entry) {
	select {
	case r.loadSem <- struct{}{}:
		defer func() { <-r.loadSem }()
	case <-r.ctx.Done():
		r.finishLoad(e, nil, nil, r.ctx.Err())
		return
	}
	al, m, err := r.doLoad(e.name, e.fasta)
	r.finishLoad(e, al, m, err)
}

// finishLoad publishes a load outcome and wakes waiters. On success the
// entry becomes ready and the LRU enforces the residency budget; on
// failure it returns to cold with the error recorded for the waiters.
func (r *registry) finishLoad(e *entry, al *core.Aligner, m *indexio.Mapped, err error) {
	r.mu.Lock()
	if err != nil {
		e.state = entryCold
		e.loadErr = err
	} else {
		e.state = entryReady
		e.aligner = al
		e.mapped = m
		e.bytes = m.SizeBytes()
		r.tick++
		e.lastUse = r.tick
		r.evictLocked(e)
	}
	close(e.ready)
	r.mu.Unlock()
	if err != nil {
		r.logf("serve: genome %q: load failed: %v", e.name, err)
	}
}

// evictLocked unmaps least-recently-used idle entries until residency fits
// the budget. Entries with in-flight work (refcnt > 0), loads in progress,
// and the just-loaded protect entry (its waiters have not taken their
// references yet — evicting it would livelock load→evict→reload) are never
// touched; if nothing is evictable the budget is overshot (counted and
// logged) rather than deadlocking the acquirer.
func (r *registry) evictLocked(protect *entry) {
	for {
		resident := 0
		var victim *entry
		for _, e := range r.entries {
			if e.state != entryReady && e.state != entryLoading {
				continue
			}
			resident++
			if e == protect || e.state != entryReady || e.refcnt != 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if resident <= r.maxResident {
			return
		}
		if victim == nil {
			r.overBudget.Add(1)
			r.logf("serve: residency %d over budget %d with every resident genome in use; overshooting", resident, r.maxResident)
			return
		}
		r.evictEntryLocked(victim)
	}
}

// evictEntryLocked drops one idle ready entry back to cold and unmaps its
// cache. Safe only because refcnt == 0: nothing can be aligning against
// the mapped tables.
func (r *registry) evictEntryLocked(e *entry) {
	m := e.mapped
	e.state = entryCold
	e.aligner = nil
	e.mapped = nil
	e.bytes = 0
	e.loadErr = nil
	r.evictions.Add(1)
	r.logf("serve: genome %q evicted (LRU, budget %d)", e.name, r.maxResident)
	if m != nil {
		if err := m.Close(); err != nil {
			r.logf("serve: genome %q: unmap: %v", e.name, err)
		}
	}
}

// closeAll stops in-flight loads and unmaps every resident genome. The
// caller (Server.Close) guarantees no acquirers remain.
func (r *registry) closeAll() {
	r.cancel()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.state == entryReady {
			e.refcnt = 0
			r.evictions.Add(-1) // shutdown unmap is not an LRU eviction
			r.evictEntryLocked(e)
		}
	}
}

// doLoad reads the reference, resolves the content-addressed cache path,
// probes it (rebuilding and rewriting on any staleness, with the reason
// logged), maps it zero-copy, validates the mapping against the reference
// in hand, and binds an aligner to the mapped tables.
func (r *registry) doLoad(name, fasta string) (*core.Aligner, *indexio.Mapped, error) {
	ref, err := readFastaRef(fasta)
	if err != nil {
		return nil, nil, fmt.Errorf("reference %s: %w", fasta, err)
	}
	cc := r.core
	dir := r.cacheDir
	if dir == "" {
		dir = filepath.Dir(fasta)
	}
	path, err := indexio.CachePath(dir, ref, cc.KmerLen, cc.SegmentLen, cc.Overlap)
	if err != nil {
		return nil, nil, err
	}
	if reason := indexio.Probe(path, ref, cc.KmerLen, cc.SegmentLen, cc.Overlap); reason != "" {
		r.logf("serve: genome %q: index cache miss at %s: %s; rebuilding", name, path, reason)
		r.rebuilds.Add(1)
		sx, err := seed.BuildSegmentedIndex(ref, cc.SegmentLen, cc.Overlap, cc.KmerLen)
		if err != nil {
			return nil, nil, fmt.Errorf("build index: %w", err)
		}
		group := indexio.GroupSizeForShards(sx.NumSegments(), r.shards)
		if err := indexio.WriteFileShards(path, sx, ref, group); err != nil {
			return nil, nil, fmt.Errorf("write index cache %s: %w", path, err)
		}
	}
	m, err := indexio.OpenMapped(path)
	if err != nil {
		return nil, nil, fmt.Errorf("map index cache %s: %w", path, err)
	}
	// The mapping is internally consistent (CRCs, bounds); pin it to the
	// reference and geometry in hand like the CLI's -mmap path does.
	if len(ref) != len(m.Ref()) || m.RefHash() != indexio.RefHash(ref) {
		_ = m.Close()
		return nil, nil, fmt.Errorf("index cache %s was built from a different reference", path)
	}
	if m.K() != cc.KmerLen || m.SegLen() != cc.SegmentLen || m.Overlap() != cc.Overlap {
		_ = m.Close()
		return nil, nil, fmt.Errorf("index cache %s geometry (k=%d seg=%d overlap=%d) does not match config (k=%d seg=%d overlap=%d)",
			path, m.K(), m.SegLen(), m.Overlap(), cc.KmerLen, cc.SegmentLen, cc.Overlap)
	}
	// Serve from the mapped reference (out-of-core: the FASTA copy is
	// dropped). StreamWindow tracks the batch bound so one coalesced
	// flush is at most one pipeline window.
	cc.Index = m.Index()
	cc.StreamWindow = r.streamWin
	al, err := core.New(m.Ref(), cc)
	if err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	return al, m, nil
}

// readFastaRef loads a reference FASTA exactly like the genax CLI
// (ambiguous bases resolved with the same fixed seed, contigs
// concatenated), so the content-addressed cache written by `genax index`
// and the one written here land at the same path.
func readFastaRef(path string) (dna.Seq, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := dna.ReadFasta(f, dna.FastaOptions{ResolveN: rand.New(rand.NewSource(1))})
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no sequences in %s", path)
	}
	var ref dna.Seq
	for _, rec := range recs {
		ref = append(ref, rec.Seq...)
	}
	return ref, nil
}
