package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/indexio"
	"genax/internal/serve"
)

const (
	genomeName = "g"
	// clients is the closed loop's population: each logical caller sends
	// its next read only when the previous one is answered.
	clients = 64
)

// serveEnv is what the served workload keeps on disk and in memory
// between set-ups: the reference FASTA, the cache directory beside it and
// the request bodies.
type serveEnv struct {
	dir    string
	fasta  string
	bodies []string
	log    bytes.Buffer // server log lines, shown only if the run fails
	logMu  sync.Mutex
}

func (e *serveEnv) logf(format string, args ...any) {
	e.logMu.Lock()
	fmt.Fprintf(&e.log, format+"\n", args...)
	e.logMu.Unlock()
}

// serveConfig is the server under test: library defaults for batching and
// the coalescing window, one genome, caches in the run's own directory.
func serveConfig(w workload, dir string, inst *core.Instrument, logf func(string, ...any)) serve.Config {
	cc := w.config()
	cc.Instrument = inst
	return serve.Config{
		Genomes:        []serve.GenomeConfig{{Name: genomeName, Fasta: filepath.Join(dir, "ref.fasta")}},
		Core:           cc,
		CacheDir:       dir,
		CoalesceWindow: serve.DefaultCoalesceWindow,
		Logf:           logf,
	}
}

// startServer is one server start: New plus a warm Preload.
func startServer(cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Preload(context.Background(), true); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// coldLoad is a server's first boot against an empty cache directory:
// index build, cache write, map. The file is synced afterwards (untimed)
// so its write-back does not run underneath the measurements that follow.
func coldLoad(w workload, dir string) (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(serveConfig(w, dir, nil, func(string, ...any) {}))
	if err != nil {
		return 0, err
	}
	srv.Close()
	d := time.Since(t0)
	caches, _ := filepath.Glob(filepath.Join(dir, "*.gaxi"))
	for _, p := range caches {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			return 0, err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// coldLoadChild is what the child process started by prepareServe does: the
// cold load, and its seconds on w as the only line.
func coldLoadChild(wl workload, dir string, w io.Writer) error {
	d, err := coldLoad(wl, dir)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, d.Seconds())
	return err
}

// prepareServe writes the reference where the server will read it and
// performs the cold load in a fresh process of this same program, so the
// heap index it builds does not count toward this process's peak RSS, which
// is the warm server's.
func (b *bench) prepareServe(outDir string) (time.Duration, error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return 0, err
	}
	e := &serveEnv{dir: dir, fasta: filepath.Join(dir, "ref.fasta"), bodies: make([]string, len(b.in.seqs))}
	b.srv = e
	for i, s := range b.in.seqs {
		e.bodies[i] = s.String()
	}
	f, err := os.Create(e.fasta)
	if err != nil {
		return 0, err
	}
	err = dna.WriteFasta(f, []dna.FastaRecord{{Name: "ref", Seq: b.in.ref}}, 80)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-coldload", dir, "-workload", b.w.Name)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold-load child: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("cold-load child printed %q: %w", out, err)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

func (b *bench) cleanupServe() {
	if b.srv == nil {
		return
	}
	if err := os.RemoveAll(b.srv.dir); err != nil {
		logf("clean up: %v", err)
	}
}

// setupServer is the served workload's set-up: a warm restart against the
// cache the cold load left behind.
func (b *bench) setupServer(inst *core.Instrument) (target, time.Duration, error) {
	cfg := serveConfig(b.w, b.srv.dir, inst, b.srv.logf)
	t0 := time.Now()
	srv, err := startServer(cfg)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if n := srv.Snapshot().Registry.Rebuilds; n != 0 {
		srv.Close()
		return nil, 0, fmt.Errorf("warm restart rebuilt the index cache (%d rebuilds): %s", n, b.srv.log.String())
	}
	return &serveTarget{srv: srv, h: srv.Handler()}, d, nil
}

// serveTarget drives a serve.Server through its handler in-process: no
// sockets, so the numbers are the serve layer's and not the loopback
// stack's.
type serveTarget struct {
	srv *serve.Server
	h   http.Handler
	// lat, when non-nil, receives every closed-loop request's latency
	// (traced run only).
	lat []time.Duration
}

// post sends read i and returns the status and raw body.
func (t *serveTarget) post(b *bench, i int) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/align/"+genomeName, strings.NewReader(b.srv.bodies[i]))
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decode(code int, body []byte) (outcome, bool) {
	var o outcome
	if code != http.StatusOK || json.Unmarshal(body, &o) != nil {
		return outcome{}, false
	}
	return o, true
}

// pass is the closed loop: 64 callers take reads in list order, each
// waiting for its reply before taking the next. Slice s ends when the
// (s+1)·sliceReads-th reply arrives, and its time runs from the end of
// the slice before. Bodies are decoded after the clock stops.
func (t *serveTarget) pass(b *bench, out []outcome, times []time.Duration, parent int) int {
	per := b.w.sliceReads
	n := len(times) * per
	codes := make([]int, n)
	bodies := make([][]byte, n)
	ends := make([]time.Time, len(times))
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				id := b.tr.begin(parent, "serve.ServeHTTP", i)
				t0 := time.Now()
				codes[i], bodies[i] = t.post(b, i)
				end := time.Now()
				b.tr.end(id)
				if t.lat != nil {
					t.lat[i] = end.Sub(t0)
				}
				if d := int(done.Add(1)); d%per == 0 {
					ends[d/per-1] = end
				}
			}
		}()
	}
	wg.Wait()
	failed := 0
	for s := range times {
		times[s] = ends[s].Sub(start)
		start = ends[s]
	}
	for i := range out {
		o, ok := decode(codes[i], bodies[i])
		if !ok {
			failed++
		}
		out[i] = o
	}
	return failed
}

func (t *serveTarget) single(b *bench, i int) (outcome, bool) {
	return decode(t.post(b, i))
}

func (t *serveTarget) close() { t.srv.Close() }

// offlineAligner binds a core.Aligner to the cache file the server maps,
// the way serve's registry does, for comparing served answers with
// AlignBatch and for timing the same reads with no serve layer at all.
func (b *bench) offlineAligner() (*core.Aligner, *indexio.Mapped, error) {
	cfg := b.w.config()
	path, err := indexio.CachePath(b.srv.dir, b.in.ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
	if err != nil {
		return nil, nil, err
	}
	m, err := indexio.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	cfg.Index = m.Index()
	al, err := core.New(m.Ref(), cfg)
	if err != nil {
		_ = m.Close() // core.New's error is the one to report
		return nil, nil, err
	}
	return al, m, nil
}

// checkOffline counts every served answer that differs from al's offline
// AlignBatch on the same reads as a failed operation, and returns that
// batch's work counters.
func (b *bench) checkOffline(al *core.Aligner, served []outcome) core.Stats {
	res, st := al.AlignBatch(b.in.seqs[:b.n])
	bad := 0
	for i, rr := range res {
		if toOutcome(rr) != served[i] {
			bad++
		}
	}
	b.attempted += b.n
	b.failed += bad
	if bad > 0 {
		b.violate("%d of %d served answers differ from offline AlignBatch", bad, b.n)
	}
	return st
}
