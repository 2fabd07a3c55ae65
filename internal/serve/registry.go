package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/indexio"
)

// registry keeps genomes resident over mmap-backed index caches, under an
// LRU residency budget. acquire/release bracket every use; a genome is
// never evicted (its cache never unmapped) while its refcount is non-zero.
type registry struct {
	core        core.Config // template; Index and Residency overwritten per genome
	cacheDir    string
	maxResident int
	logf        func(string, ...any)
	genomes     map[string]*genome // Server.genomes, read-only after New

	// load admits one index build or map at a time: each build already
	// spreads over every core, so a second one at once would only double
	// peak memory. A caller that finds its genome resident never takes it.
	load sync.Mutex

	// mu guards every genome's residency fields and tick.
	mu   sync.Mutex
	tick int64 // LRU clock, incremented per pin

	// Counters for /statsz.
	hits       atomic.Int64 // acquires that found the genome resident
	loads      atomic.Int64 // load attempts started
	rebuilds   atomic.Int64 // loads that had to rebuild the cache (Probe miss)
	evictions  atomic.Int64 // genomes unmapped by the LRU
	overBudget atomic.Int64 // times residency exceeded the budget with nothing evictable
}

// acquire returns g's aligner with g pinned, loading g first if it is
// cold. The load runs on the caller's goroutine under r.load; a caller
// that waited there while another loaded g pins the result instead
// (single flight). A caller whose ctx is done by the time it holds r.load
// gets ctx.Err() and starts no load. A failed load leaves g cold, so the
// next acquire tries again. Callers must pair every successful acquire
// with release.
func (r *registry) acquire(ctx context.Context, g *genome) (*core.Aligner, error) {
	if al := r.pin(g); al != nil {
		return al, nil
	}
	r.load.Lock()
	defer r.load.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if al := r.pin(g); al != nil {
		return al, nil
	}
	r.mu.Lock()
	g.loading = true
	r.mu.Unlock()
	r.loads.Add(1)
	al, m, err := r.doLoad(g.name, g.fasta)
	r.mu.Lock()
	g.loading = false
	if err != nil {
		r.mu.Unlock()
		r.logf("serve: genome %q: load failed: %v", g.name, err)
		return nil, err
	}
	g.aligner, g.mapped = al, m
	r.pinLocked(g)
	r.evictLocked()
	r.mu.Unlock()
	return al, nil
}

// pin takes a reference on g and returns its aligner if g is resident,
// or returns nil.
func (r *registry) pin(g *genome) *core.Aligner {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g.aligner == nil {
		return nil
	}
	r.hits.Add(1)
	r.pinLocked(g)
	return g.aligner
}

func (r *registry) pinLocked(g *genome) {
	g.refcnt++
	r.tick++
	g.lastUse = r.tick
}

// release undoes one acquire.
func (r *registry) release(g *genome) {
	r.mu.Lock()
	g.refcnt--
	r.mu.Unlock()
}

// evictLocked unmaps least-recently-used idle genomes until residency fits
// the budget. A genome with a pin (refcnt > 0) is never touched — the
// loader pins the genome it just loaded before calling this, so a load is
// never undone by its own eviction pass. If nothing is evictable the
// budget is overshot (counted and logged) rather than deadlocking the
// acquirer.
func (r *registry) evictLocked() {
	for {
		resident := 0
		var victim *genome
		for _, g := range r.genomes {
			if g.aligner == nil {
				continue
			}
			resident++
			if g.refcnt == 0 && (victim == nil || g.lastUse < victim.lastUse) {
				victim = g
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
		r.evictions.Add(1)
		r.logf("serve: genome %q evicted (LRU, budget %d)", victim.name, r.maxResident)
		r.unmapLocked(victim)
	}
}

// unmapLocked drops one idle resident genome back to cold and unmaps its
// cache. Safe only because refcnt == 0: nothing can be aligning against
// the mapped tables.
func (r *registry) unmapLocked(g *genome) {
	m := g.mapped
	g.aligner = nil
	g.mapped = nil
	if err := m.Close(); err != nil {
		r.logf("serve: genome %q: unmap: %v", g.name, err)
	}
}

// closeAll unmaps every resident genome; a shutdown is not an eviction,
// so it is neither counted nor logged as one. The caller (Server.Close)
// guarantees no acquirers remain, so no load is in flight either.
func (r *registry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.genomes {
		if g.aligner != nil {
			r.unmapLocked(g)
		}
	}
}

// doLoad reads the reference, resolves the content-addressed cache path,
// maps the cache through indexio.Ensure (which rebuilds and rewrites it on
// any staleness; the reason is logged here), and binds an aligner to the
// mapped tables.
func (r *registry) doLoad(name, fasta string) (*core.Aligner, *indexio.Mapped, error) {
	ref, _, err := dna.ReadRef(fasta)
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
	m, reason, err := indexio.Ensure(path, ref, cc.KmerLen, cc.SegmentLen, cc.Overlap, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("index cache %s: %w", path, err)
	}
	if reason != "" {
		r.logf("serve: genome %q: rebuilt index cache %s: %s", name, path, reason)
		r.rebuilds.Add(1)
	}
	// Serve from the mapped reference (out-of-core: the FASTA copy is
	// dropped). No residency is bound: a caller's Core.Residency belongs
	// to some other mapping.
	cc.Index = m.Index()
	cc.Residency = nil
	al, err := core.New(m.Ref(), cc)
	if err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	return al, m, nil
}
