package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

// testWorkload returns a tiny genome + read set sized so the whole suite
// stays fast: k=8 dense tables are 256 KiB per segment, not the 64 MiB a
// paper-scale k=12 would cost.
func testWorkload(t *testing.T, seed int64) *sim.Workload {
	t.Helper()
	rp := sim.DefaultReadProfile()
	rp.Coverage = 2
	return sim.NewWorkload(seed, 20000, sim.DefaultVariantProfile(), rp)
}

func testCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.KmerLen = 8
	cfg.SegmentLen = 8192
	cfg.Overlap = 256
	return cfg
}

// writeFasta materializes ref as a FASTA file the registry can load.
func writeFasta(t *testing.T, path string, ref dna.Seq) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dna.WriteFasta(f, []dna.FastaRecord{{Name: "chr", Seq: ref}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a Server over freshly written FASTAs, one per
// workload, registered under g0, g1, ...
func newTestServer(t *testing.T, cfg Config, wls ...*sim.Workload) *Server {
	t.Helper()
	dir := t.TempDir()
	for i, wl := range wls {
		path := filepath.Join(dir, fmt.Sprintf("g%d.fasta", i))
		writeFasta(t, path, wl.Ref)
		cfg.Genomes = append(cfg.Genomes, GenomeConfig{Name: fmt.Sprintf("g%d", i), Fasta: path})
	}
	if cfg.Core.K == 0 {
		cfg.Core = testCore()
	}
	cfg.CacheDir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postRead(t *testing.T, client *http.Client, url string, read dna.Seq) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "text/plain", bytes.NewReader([]byte(read.String())))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// sameAsOffline checks one served response against the offline result for
// the same read.
func sameAsOffline(t *testing.T, i int, body []byte, want core.ReadResult) {
	t.Helper()
	var got AlignResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("read %d: bad response %q: %v", i, body, err)
	}
	if got.Aligned != want.Aligned {
		t.Fatalf("read %d: served aligned=%v, offline %v", i, got.Aligned, want.Aligned)
	}
	if !want.Aligned {
		return
	}
	if got.Pos != want.Result.RefPos || got.Score != want.Result.Score ||
		got.Cigar != want.Result.Cigar.String() || got.Reverse != want.Result.Reverse {
		t.Fatalf("read %d: served (%d,%d,%s,rev=%v), offline (%d,%d,%s,rev=%v)",
			i, got.Pos, got.Score, got.Cigar, got.Reverse,
			want.Result.RefPos, want.Result.Score, want.Result.Cigar.String(), want.Result.Reverse)
	}
}

// TestServeCoalescedMatchesOffline is the core identity claim: many
// concurrent single-read requests, coalesced into batches, produce results
// byte-identical to offline AlignBatch. A zero window arms no timer, so a
// flush takes only what is already queued, but every request still goes
// through a batch: /statsz must count each read in one and show the
// pipeline work the flushes did.
func TestServeCoalescedMatchesOffline(t *testing.T) {
	for _, window := range []time.Duration{2 * time.Millisecond, 0} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			wl := testWorkload(t, 42)
			s := newTestServer(t, Config{
				MaxBatch:       32,
				CoalesceWindow: window,
				QueueLimit:     1024, // above the read count: this test is about identity, not shedding
			}, wl)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			offline, err := core.New(wl.Ref, testCore())
			if err != nil {
				t.Fatal(err)
			}
			reads := make([]dna.Seq, len(wl.Reads))
			for i, r := range wl.Reads {
				reads[i] = r.Seq
			}
			want, _ := offline.AlignBatch(reads)

			var wg sync.WaitGroup
			bodies := make([][]byte, len(reads))
			codes := make([]int, len(reads))
			for i := range reads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, body := postRead(t, ts.Client(), ts.URL+"/align/g0", reads[i])
					codes[i], bodies[i] = resp.StatusCode, body
				}()
			}
			wg.Wait()
			for i := range reads {
				if codes[i] != http.StatusOK {
					t.Fatalf("read %d: status %d: %s", i, codes[i], bodies[i])
				}
				sameAsOffline(t, i, bodies[i], want[i])
			}

			resp, err := ts.Client().Get(ts.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			var snap Snapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Genomes) != 1 {
				t.Fatalf("snapshot has %d genomes, want 1", len(snap.Genomes))
			}
			g := snap.Genomes[0]
			if g.Admitted != int64(len(reads)) || g.BatchedReads != int64(len(reads)) {
				t.Fatalf("admitted=%d batched=%d, want both %d", g.Admitted, g.BatchedReads, len(reads))
			}
			if g.Batches == 0 {
				t.Fatal("batches=0, want >0")
			}
			if window > 0 && g.MaxBatch < 2 {
				t.Fatalf("max batch %d: concurrent requests never coalesced", g.MaxBatch)
			}
			if g.Pipeline.Extensions == 0 {
				t.Fatal("pipeline stats never accumulated across flushes")
			}
		})
	}
}

func TestServeUnknownGenome404(t *testing.T) {
	wl := testWorkload(t, 44)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRead(t, ts.Client(), ts.URL+"/align/nope", wl.Reads[0].Seq)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregistered genome: status %d (%s), want 404", resp.StatusCode, body)
	}
}

// TestServeBadBody400 pins the body checks: anything that is not one read
// of bases, a line-wrapped read included, gets 400, and a body past the
// 1 MiB bound gets 413.
func TestServeBadBody400(t *testing.T) {
	wl := testWorkload(t, 45)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty", "", http.StatusBadRequest},
		{"not bases", "not a read!", http.StatusBadRequest},
		{"line break inside", "ACGT\nACGT", http.StatusBadRequest},
		{"1 MiB + 1 bases", strings.Repeat("A", maxReadBytes+1), http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/align/g0", "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestServeOverloadSheds verifies the admission limit with and without a
// coalescing timer: the intake queue bounds admission either way, so
// excess requests get 429 with a Retry-After hint and are counted, instead
// of queuing unboundedly, and the requests that did queue leave in one
// flush rather than one by one.
func TestServeOverloadSheds(t *testing.T) {
	for _, window := range []time.Duration{100 * time.Millisecond, 0} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			wl := testWorkload(t, 46)
			s := newTestServer(t, Config{
				MaxBatch:       4,
				CoalesceWindow: window,
				QueueLimit:     2,
			}, wl)
			// The genome stays cold and the test holds the registry's load
			// lock, so no admitted request can finish before the whole burst
			// has met the admission limit, however the goroutines schedule.
			s.reg.load.Lock()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			const n = 12
			var wg sync.WaitGroup
			codes := make([]int, n)
			retryAfter := make([]string, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, _ := postRead(t, ts.Client(), ts.URL+"/align/g0", wl.Reads[0].Seq)
					codes[i] = resp.StatusCode
					retryAfter[i] = resp.Header.Get("Retry-After")
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if g := s.Snapshot().Genomes[0]; g.Admitted+g.Rejected == n {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("burst never reached admission")
				}
			}
			s.reg.load.Unlock()
			wg.Wait()
			ok, shed := 0, 0
			for i, c := range codes {
				switch c {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					shed++
					if retryAfter[i] == "" {
						t.Fatal("429 without Retry-After header")
					}
				default:
					t.Fatalf("unexpected status %d", c)
				}
			}
			if shed == 0 {
				t.Fatalf("queue limit 2 with %d concurrent requests shed nothing", n)
			}
			if ok == 0 {
				t.Fatal("every request was shed; admitted requests should still complete")
			}
			g := s.Snapshot().Genomes[0]
			if g.Rejected != int64(shed) {
				t.Fatalf("rejected counter %d, want %d", g.Rejected, shed)
			}
			// A shed means the queue was full while the dispatcher was
			// held, so its next flush found company already waiting.
			if g.MaxBatch < 2 {
				t.Fatalf("max batch %d: requests queued behind a held dispatcher were flushed one by one", g.MaxBatch)
			}
		})
	}
}

// TestServeResidentGenomeNotBlockedByLoad: a request for a resident genome
// is answered while another genome's load holds the registry's load lock;
// only a cold genome waits for it.
func TestServeResidentGenomeNotBlockedByLoad(t *testing.T) {
	wl := testWorkload(t, 50)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond, MaxResident: 2}, wl)
	if err := s.Preload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	offline, err := core.New(wl.Ref, testCore())
	if err != nil {
		t.Fatal(err)
	}
	read := wl.Reads[0].Seq
	want, _ := offline.AlignBatch([]dna.Seq{read})

	s.reg.load.Lock()
	defer s.reg.load.Unlock()
	client := ts.Client()
	client.Timeout = 5 * time.Second
	resp, body := postRead(t, client, ts.URL+"/align/g0", read)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	sameAsOffline(t, 0, body, want[0])
}

// TestServeExpiredRequestDropped: a request whose context is already dead
// when the dispatcher assembles its batch is dropped unaligned and
// answered with the context error.
func TestServeExpiredRequestDropped(t *testing.T) {
	wl := testWorkload(t, 47)
	s := newTestServer(t, Config{
		MaxBatch:       8,
		CoalesceWindow: 50 * time.Millisecond,
	}, wl)
	if err := s.Preload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	g := s.genomes["g0"]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := pending{ctx: ctx, read: wl.Reads[0].Seq, res: make(chan result, 1)}
	live := pending{ctx: context.Background(), read: wl.Reads[1].Seq, res: make(chan result, 1)}
	if !g.enqueue(dead) || !g.enqueue(live) {
		t.Fatal("enqueue refused with an empty queue")
	}
	select {
	case r := <-dead.res:
		if r.err == nil {
			t.Fatal("expired request was aligned anyway")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired request never answered")
	}
	select {
	case r := <-live.res:
		if r.err != nil {
			t.Fatalf("live request in the same batch failed: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live request never answered")
	}
	if got := g.expired.Load(); got != 1 {
		t.Fatalf("expired counter %d, want 1", got)
	}
}

// TestServeDrain: after StartDrain new requests get 503 and healthz flips,
// and Close after drain leaves no dispatcher running (Close would hang on
// a leaked one).
func TestServeDrain(t *testing.T) {
	wl := testWorkload(t, 48)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.StartDrain()
	resp, body := postRead(t, ts.Client(), ts.URL+"/align/g0", wl.Reads[0].Seq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("align while draining: status %d (%s), want 503", resp.StatusCode, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	s.Close() // must return promptly; t.Cleanup's second Close is a no-op
}

func TestServeStatszEndpoint(t *testing.T) {
	wl := testWorkload(t, 49)
	s := newTestServer(t, Config{CoalesceWindow: time.Millisecond}, wl)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRead(t, ts.Client(), ts.URL+"/align/g0", wl.Reads[0].Seq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: %d (%s)", resp.StatusCode, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("statsz is not valid JSON: %v\n%s", err, raw)
	}
	if len(snap.Genomes) != 1 || snap.Genomes[0].Name != "g0" {
		t.Fatalf("statsz genomes: %+v", snap.Genomes)
	}
	if snap.Registry.Loads == 0 {
		t.Fatal("statsz registry never counted the load")
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty genome set accepted")
	}
	if _, err := New(Config{Genomes: []GenomeConfig{{Name: "a", Fasta: "x"}, {Name: "a", Fasta: "y"}}}); err == nil {
		t.Fatal("duplicate genome names accepted")
	}
	if _, err := New(Config{Genomes: []GenomeConfig{{Name: "", Fasta: "x"}}}); err == nil {
		t.Fatal("empty genome name accepted")
	}
	if _, err := New(Config{Genomes: []GenomeConfig{{Name: "a"}}}); err == nil {
		t.Fatal("genome without FASTA accepted")
	}
}
