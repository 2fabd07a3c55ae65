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

// TestRegistryRebuildThenCacheHit: the first load of a genome finds no
// cache (Probe's reason is logged), rebuilds and writes it; a second
// registry over the same cache dir maps it without rebuilding.
func TestRegistryRebuildThenCacheHit(t *testing.T) {
	wl := testWorkload(t, 60)
	lc := &logCapture{}
	cc := testCore()
	cc.Residency = strayResidency{}
	s := newTestServer(t, Config{Core: cc, CoalesceWindow: time.Millisecond, Logf: lc.logf}, wl)

	e, err := s.reg.acquire(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	if e.aligner == nil || e.mapped == nil {
		t.Fatal("ready entry without aligner/mapped")
	}
	if res := e.aligner.Config().Residency; res != nil {
		t.Fatalf("genome aligner bound the caller's residency %v", res)
	}
	s.reg.release(e)
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
	e2, err := s2.reg.acquire(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	s2.reg.release(e2)
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
	e, err := s.reg.acquire(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	s.reg.release(e)
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
	e2, err := s2.reg.acquire(context.Background(), "g0")
	if err != nil {
		t.Fatalf("acquire over corrupt cache: %v", err)
	}
	s2.reg.release(e2)
	if got := s2.reg.rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds=%d over a corrupt cache, want 1", got)
	}
	if !lc2.contains("checksum mismatch") {
		t.Fatalf("staleness reason never logged; log: %v", lc2.lines)
	}
}

func TestRegistryUnknownGenome(t *testing.T) {
	wl := testWorkload(t, 61)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	_, err := s.reg.acquire(context.Background(), "nope")
	if !errors.Is(err, ErrUnknownGenome) {
		t.Fatalf("err=%v, want ErrUnknownGenome", err)
	}
}

// TestRegistryLRUEviction: with a one-genome budget, touching a second
// genome evicts the idle first one; touching the first again reloads it.
func TestRegistryLRUEviction(t *testing.T) {
	s := newTestServer(t, Config{
		CoalesceWindow: time.Millisecond,
		MaxResident:    1,
	}, testWorkload(t, 62), testWorkload(t, 63))

	ctx := context.Background()
	e0, err := s.reg.acquire(ctx, "g0")
	if err != nil {
		t.Fatal(err)
	}
	s.reg.release(e0)
	e1, err := s.reg.acquire(ctx, "g1")
	if err != nil {
		t.Fatal(err)
	}
	s.reg.release(e1)

	if got := s.reg.evictions.Load(); got != 1 {
		t.Fatalf("evictions=%d after exceeding budget, want 1", got)
	}
	s.reg.mu.Lock()
	st0, st1 := s.reg.entries["g0"].state, s.reg.entries["g1"].state
	m0 := s.reg.entries["g0"].mapped
	s.reg.mu.Unlock()
	if st0 != entryCold || m0 != nil {
		t.Fatalf("g0 not evicted to cold (state %d, mapped %v)", st0, m0 != nil)
	}
	if st1 != entryReady {
		t.Fatalf("g1 state %d, want ready", st1)
	}

	// Reload after eviction must work (and count a fresh load, not a
	// rebuild — the cache file survived the unmap).
	e0, err = s.reg.acquire(ctx, "g0")
	if err != nil {
		t.Fatalf("reacquire after eviction: %v", err)
	}
	s.reg.release(e0)
	if got := s.reg.rebuilds.Load(); got != 2 {
		t.Fatalf("rebuilds=%d, want 2 (one per distinct genome, none on reload)", got)
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
	e0, err := s.reg.acquire(ctx, "g0")
	if err != nil {
		t.Fatal(err)
	}
	// g0 stays acquired while g1 loads: nothing evictable.
	e1, err := s.reg.acquire(ctx, "g1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.reg.evictions.Load(); got != 0 {
		t.Fatalf("evicted %d entries while in use", got)
	}
	if got := s.reg.overBudget.Load(); got == 0 {
		t.Fatal("budget overshoot never counted")
	}
	s.reg.mu.Lock()
	st0 := s.reg.entries["g0"].state
	s.reg.mu.Unlock()
	if st0 != entryReady {
		t.Fatalf("g0 state %d while referenced, want ready", st0)
	}
	s.reg.release(e0)
	s.reg.release(e1)
}

// TestRegistrySingleFlight: concurrent acquires of a cold genome share one
// load.
func TestRegistrySingleFlight(t *testing.T) {
	wl := testWorkload(t, 66)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := s.reg.acquire(context.Background(), "g0")
			errs[i] = err
			if err == nil {
				s.reg.release(e)
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
	if got := s.reg.hits.Load(); got != n {
		t.Fatalf("hits=%d, want %d", got, n)
	}
}

// TestRegistryLoadFailure: a genome whose FASTA is missing fails the load,
// reports the error to every waiter, and stays retryable (cold).
func TestRegistryLoadFailure(t *testing.T) {
	wl := testWorkload(t, 67)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	// Register a second, broken genome by hand.
	s.reg.mu.Lock()
	s.reg.entries["broken"] = &entry{name: "broken", fasta: filepath.Join(s.cfg.CacheDir, "missing.fasta")}
	s.reg.mu.Unlock()

	_, err := s.reg.acquire(context.Background(), "broken")
	if err == nil {
		t.Fatal("acquire of a genome with a missing FASTA succeeded")
	}
	s.reg.mu.Lock()
	st := s.reg.entries["broken"].state
	s.reg.mu.Unlock()
	if st != entryCold {
		t.Fatalf("failed entry state %d, want cold (retryable)", st)
	}
	// The healthy genome is unaffected.
	e, err := s.reg.acquire(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	s.reg.release(e)
}

// TestRegistryAcquireCtxCancel: a caller that gives up while a load is in
// flight gets its context error; the load itself completes for the next
// caller.
func TestRegistryAcquireCtxCancel(t *testing.T) {
	wl := testWorkload(t, 68)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.reg.mu.Lock()
	e := s.reg.entries["g0"]
	e.state = entryLoading
	e.ready = make(chan struct{})
	s.reg.mu.Unlock()

	if _, err := s.reg.acquire(ctx, "g0"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Unwedge the synthetic loading state so Close doesn't find it.
	s.reg.finishLoad(e, nil, nil, errors.New("synthetic"))
}
