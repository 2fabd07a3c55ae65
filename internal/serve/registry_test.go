package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// logCapture collects registry log lines for assertion.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) contains(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// strayResidency stands for a caller's Core.Residency, bound to some other
// mapping than any genome's.
type strayResidency struct{}

func (strayResidency) Acquire(int) {}
func (strayResidency) Release(int) {}

// acquireRelease pins and unpins a genome by name, failing the test if it
// cannot be made resident.
func acquireRelease(t *testing.T, s *Server, name string) {
	t.Helper()
	g := s.genomes[name]
	if _, err := s.reg.acquire(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	s.reg.release(g)
}

// stateOf reads one genome's /statsz row.
func stateOf(s *Server, name string) GenomeStats {
	for _, gs := range s.Snapshot().Genomes {
		if gs.Name == name {
			return gs
		}
	}
	return GenomeStats{}
}

// TestRegistryRebuildThenCacheHit: the first load of a genome finds no
// cache (Probe's reason is logged), rebuilds and writes it; a second
// registry over the same cache dir maps it without rebuilding.
func TestRegistryRebuildThenCacheHit(t *testing.T) {
	wl := testWorkload(t, 60)
	lc := &logCapture{}
	cc := testCore()
	cc.Residency = strayResidency{}
	s := newTestServer(t, Config{Core: cc, CoalesceWindow: time.Millisecond, Logf: lc.logf}, wl)

	g := s.genomes["g0"]
	al, err := s.reg.acquire(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if al == nil || stateOf(s, "g0").CacheBytes == 0 {
		t.Fatal("resident genome without aligner/mapped cache")
	}
	if res := al.Config().Residency; res != nil {
		t.Fatalf("genome aligner bound the caller's residency %v", res)
	}
	s.reg.release(g)
	if got := s.reg.rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds=%d, want 1 (cold cache dir)", got)
	}
	if !lc.contains("no cache file") {
		t.Fatalf("Probe staleness reason never logged; log: %v", lc.lines)
	}
	cacheDir := s.cfg.CacheDir
	fasta := s.cfg.Genomes[0].Fasta
	s.Close()

	// Second server, same dir: the content-addressed cache must be found
	// fresh and mapped, not rebuilt.
	lc2 := &logCapture{}
	s2, err := New(Config{
		Genomes:        []GenomeConfig{{Name: "g0", Fasta: fasta}},
		Core:           testCore(),
		CacheDir:       cacheDir,
		CoalesceWindow: time.Millisecond,
		Logf:           lc2.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	acquireRelease(t, s2, "g0")
	if got := s2.reg.rebuilds.Load(); got != 0 {
		t.Fatalf("rebuilds=%d on a warm cache dir, want 0; log: %v", got, lc2.lines)
	}
}

// TestRegistryCorruptCacheRebuilt: a cache file that fails Probe is
// rebuilt, and the staleness reason (here a checksum mismatch) appears in
// the registry's load-miss log rather than being silently swallowed.
func TestRegistryCorruptCacheRebuilt(t *testing.T) {
	wl := testWorkload(t, 69)
	lc := &logCapture{}
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond, Logf: lc.logf}, wl)
	acquireRelease(t, s, "g0")
	cacheDir, fasta := s.cfg.CacheDir, s.cfg.Genomes[0].Fasta
	s.Close()

	// Flip one byte mid-file: the CRC footer no longer matches.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.gaxi"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache files %v (err %v), want exactly one", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x5a
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	lc2 := &logCapture{}
	s2, err := New(Config{
		Genomes:        []GenomeConfig{{Name: "g0", Fasta: fasta}},
		Core:           testCore(),
		CacheDir:       cacheDir,
		CoalesceWindow: time.Millisecond,
		Logf:           lc2.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	acquireRelease(t, s2, "g0")
	if got := s2.reg.rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds=%d over a corrupt cache, want 1", got)
	}
	if !lc2.contains("checksum mismatch") {
		t.Fatalf("staleness reason never logged; log: %v", lc2.lines)
	}
}

// TestRegistryLRUEviction: with a one-genome budget, touching a second
// genome evicts the idle first one; touching the first again reloads it.
func TestRegistryLRUEviction(t *testing.T) {
	s := newTestServer(t, Config{
		CoalesceWindow: time.Millisecond,
		MaxResident:    1,
	}, testWorkload(t, 62), testWorkload(t, 63))

	acquireRelease(t, s, "g0")
	acquireRelease(t, s, "g1")

	if got := s.reg.evictions.Load(); got != 1 {
		t.Fatalf("evictions=%d after exceeding budget, want 1", got)
	}
	g0, g1 := stateOf(s, "g0"), stateOf(s, "g1")
	if g0.State != "cold" || g0.CacheBytes != 0 {
		t.Fatalf("g0 not evicted to cold (state %s, cache bytes %d)", g0.State, g0.CacheBytes)
	}
	if g1.State != "ready" {
		t.Fatalf("g1 state %s, want ready", g1.State)
	}

	// Reload after eviction must work (and count a fresh load, not a
	// rebuild — the cache file survived the unmap).
	acquireRelease(t, s, "g0")
	if got := s.reg.rebuilds.Load(); got != 2 {
		t.Fatalf("rebuilds=%d, want 2 (one per distinct genome, none on reload)", got)
	}
}

// TestRegistryCloseIsNotEviction: shutdown unmaps every resident genome
// without counting or logging an LRU eviction.
func TestRegistryCloseIsNotEviction(t *testing.T) {
	lc := &logCapture{}
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond, Logf: lc.logf}, testWorkload(t, 61))
	acquireRelease(t, s, "g0")
	s.Close()
	if got := s.reg.evictions.Load(); got != 0 {
		t.Fatalf("evictions=%d after Close, want 0", got)
	}
	if st := stateOf(s, "g0"); st.State != "cold" {
		t.Fatalf("g0 state %s after Close, want cold", st.State)
	}
	if lc.contains("evicted") {
		t.Fatalf("Close logged an eviction; log: %v", lc.lines)
	}
}

// TestRegistryNoEvictionWhileInUse: an entry with a positive refcount is
// pinned; the budget overshoots (counted) instead of unmapping tables a
// batch is reading.
func TestRegistryNoEvictionWhileInUse(t *testing.T) {
	lc := &logCapture{}
	s := newTestServer(t, Config{
		CoalesceWindow: time.Millisecond,
		MaxResident:    1,
		Logf:           lc.logf,
	}, testWorkload(t, 64), testWorkload(t, 65))

	ctx := context.Background()
	g0, g1 := s.genomes["g0"], s.genomes["g1"]
	if _, err := s.reg.acquire(ctx, g0); err != nil {
		t.Fatal(err)
	}
	// g0 stays acquired while g1 loads: nothing evictable.
	if _, err := s.reg.acquire(ctx, g1); err != nil {
		t.Fatal(err)
	}
	if got := s.reg.evictions.Load(); got != 0 {
		t.Fatalf("evicted %d genomes while in use", got)
	}
	if got := s.reg.overBudget.Load(); got == 0 {
		t.Fatal("budget overshoot never counted")
	}
	if st := stateOf(s, "g0"); st.State != "ready" || st.Refcnt != 1 {
		t.Fatalf("g0 state %s refcnt %d while referenced, want ready and 1", st.State, st.Refcnt)
	}
	s.reg.release(g0)
	s.reg.release(g1)
}

// TestRegistrySingleFlight: concurrent acquires of a cold genome share one
// load; every other acquire finds it resident.
func TestRegistrySingleFlight(t *testing.T) {
	wl := testWorkload(t, 66)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	g := s.genomes["g0"]

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.reg.acquire(context.Background(), g)
			errs[i] = err
			if err == nil {
				s.reg.release(g)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := s.reg.loads.Load(); got != 1 {
		t.Fatalf("loads=%d for %d concurrent acquires, want 1", got, n)
	}
	if got := s.reg.hits.Load(); got != n-1 {
		t.Fatalf("hits=%d, want %d", got, n-1)
	}
	if st := stateOf(s, "g0"); st.State != "ready" || st.Refcnt != 0 {
		t.Fatalf("g0 state %s refcnt %d after every release, want ready and 0", st.State, st.Refcnt)
	}
}

// TestRegistryLoadFailure: a genome whose FASTA is missing fails the load,
// reports the error, and stays retryable: cold, and the next acquire loads
// again.
func TestRegistryLoadFailure(t *testing.T) {
	wl := testWorkload(t, 67)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	// A second, broken genome built by hand; acquire needs only the struct.
	broken := &genome{srv: s, name: "broken", fasta: filepath.Join(s.cfg.CacheDir, "missing.fasta")}

	for i := 0; i < 2; i++ {
		if _, err := s.reg.acquire(context.Background(), broken); err == nil {
			t.Fatalf("acquire %d of a genome with a missing FASTA succeeded", i)
		}
		s.reg.mu.Lock()
		cold := broken.aligner == nil && !broken.loading && broken.refcnt == 0
		s.reg.mu.Unlock()
		if !cold {
			t.Fatalf("acquire %d: failed genome not left cold and unpinned (retryable)", i)
		}
	}
	if got := s.reg.loads.Load(); got != 2 {
		t.Fatalf("loads=%d after two failed acquires, want 2 (each retries)", got)
	}
	// The healthy genome is unaffected.
	acquireRelease(t, s, "g0")
}

// TestRegistryAcquireCtxCancel: a caller whose context is cancelled while
// it waits for the load lock gets its context error and starts no load;
// the genome stays cold for the next caller.
func TestRegistryAcquireCtxCancel(t *testing.T) {
	wl := testWorkload(t, 68)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	s.reg.load.Lock()
	go func() {
		_, err := s.reg.acquire(ctx, s.genomes["g0"])
		errc <- err
	}()
	select {
	case err := <-errc:
		s.reg.load.Unlock()
		t.Fatalf("acquire of a cold genome returned (%v) while another load held the lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	s.reg.load.Unlock()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if got := s.reg.loads.Load(); got != 0 {
		t.Fatalf("loads=%d, want 0: a cancelled caller started a load", got)
	}
	if st := stateOf(s, "g0"); st.State != "cold" || st.Refcnt != 0 {
		t.Fatalf("g0 state %s refcnt %d, want cold and 0", st.State, st.Refcnt)
	}
}
