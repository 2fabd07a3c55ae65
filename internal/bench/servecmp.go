package bench

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/serve"
)

// serveModes fixes the measurement order: the per-session baseline first
// (its capacity calibrates the shared open-loop rate), then the pooled
// per-request mode, then coalescing.
var serveModes = []string{"session", "alignread", "coalesced"}

// serveOfferedFactor sets the shared open-loop rate as a multiple of the
// session baseline's measured capacity — above 1 so the per-request modes
// demonstrably saturate (queueing + 429 shedding) at a rate the coalesced
// mode is expected to sustain.
const serveOfferedFactor = 1.15

// ServeRun is one serving mode's measurement: a full-workload identity
// pass hashed against offline AlignBatch, a closed-loop capacity probe,
// and an open-loop phase at the shared offered rate recording latency
// percentiles, goodput and shedding behaviour.
type ServeRun struct {
	Mode string `json:"mode"`
	// Identity pass: every workload read served once, folded with the
	// same digest as the offline baseline.
	ResultHash uint64 `json:"result_hash"`
	Aligned    int    `json:"aligned"`
	HashMatch  bool   `json:"matches_offline"`
	// CapacityRPS is the closed-loop sustained throughput (fixed client
	// concurrency, no pacing).
	CapacityRPS float64 `json:"capacity_rps"`
	// Open-loop phase at the shared offered rate.
	OfferedRPS     float64       `json:"offered_rps"`
	Sent           int           `json:"sent"`
	OK             int           `json:"ok"`
	Rejected       int           `json:"rejected"`
	Errors         int           `json:"errors"`
	GoodputRPS     float64       `json:"goodput_rps"`
	P50            time.Duration `json:"p50_ns"`
	P90            time.Duration `json:"p90_ns"`
	P99            time.Duration `json:"p99_ns"`
	RetryAfterSeen bool          `json:"retry_after_seen"`
	// Overload burst (coalesced mode only): simultaneous posts far past a
	// deliberately tiny intake queue; the admission layer must shed the
	// excess with 429 + Retry-After instead of growing.
	BurstSent       int   `json:"burst_sent,omitempty"`
	BurstOK         int   `json:"burst_ok,omitempty"`
	BurstRejected   int   `json:"burst_rejected,omitempty"`
	BurstRetryAfter bool  `json:"burst_retry_after,omitempty"`
	PeakRSSBytes    int64 `json:"peak_rss_bytes"`
	// Coalescing shape, scraped from /statsz after the phases (coalesced
	// mode only).
	Batches      int64   `json:"batches,omitempty"`
	BatchedReads int64   `json:"batched_reads,omitempty"`
	MaxBatch     int64   `json:"max_batch,omitempty"`
	MeanBatch    float64 `json:"mean_batch,omitempty"`
}

// ServeComparison is the -compare-serve report: the same workload served
// by a real serve.Server (over HTTP, via httptest) in three modes — one
// AlignStream session per request (the architecture coalescing replaces),
// the pooled AlignRead per-request fast path, and coalesced batching —
// with every mode's results hash-gated against offline AlignBatch.
type ServeComparison struct {
	Reads      int `json:"reads"`
	Segments   int `json:"segments"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// HostNote records the measurement context the ratios must be read in.
	HostNote         string     `json:"host_note"`
	MaxBatchLimit    int        `json:"max_batch_limit"`
	QueueLimit       int        `json:"queue_limit"`
	OfflineHash      uint64     `json:"offline_hash"`
	OfflineAligned   int        `json:"offline_aligned"`
	PeakRSSSupported bool       `json:"peak_rss_supported"`
	Runs             []ServeRun `json:"runs"`
	// Capacity ratios of the coalesced mode against both uncoalesced
	// modes: reported, not gated. The per-request session used to build
	// a stage pool per request, which is what coalescing amortized and a
	// 1.25x floor checked; with lanes pooled on the aligner a one-read
	// session costs about an AlignRead, and on a host whose cores the
	// concurrent requests already fill, coalescing buys batching (one
	// table sweep per flush), not capacity.
	SpeedupVsSession   float64 `json:"coalesced_capacity_vs_session"`
	SpeedupVsAlignRead float64 `json:"coalesced_capacity_vs_alignread"`
	// Gates. HashOK is enforced on every run, ShedGate on the full run
	// (the quick workload is too small for stable rate measurements).
	HashOK       bool   `json:"all_modes_match_offline"`
	HashMismatch string `json:"mismatch,omitempty"`
	ShedGate     bool   `json:"overload_shed_with_retry_after"`
}

// serveSpec shapes the -compare-serve workload. The index is deliberately
// segment-heavy (small segments, small k) because the per-session cost a
// coalesced batch amortizes grows with the number of segments each
// pipeline window sweeps; k is small so three servers' worth of mapped
// caches stay tiny.
func serveSpec(quick bool) (WorkloadSpec, core.Config) {
	spec := WorkloadSpec{Seed: 11, GenomeLen: 200_000, Coverage: 5, ErrorRate: 0.02, ReadLen: 101}
	if quick {
		spec = WorkloadSpec{Seed: 11, GenomeLen: 50_000, Coverage: 2, ErrorRate: 0.02, ReadLen: 101}
	}
	cfg := core.DefaultConfig()
	cfg.KmerLen = 8
	cfg.SegmentLen = 2000
	cfg.Overlap = spec.ReadLen + cfg.K + 16
	return spec, cfg
}

// CompareServe builds the serving workload, computes the offline
// AlignBatch digest, then measures each serving mode end to end over HTTP:
// identity pass, closed-loop capacity, open-loop latency/shedding at a
// shared offered rate calibrated off the session baseline. All three
// servers share one cache directory, so the first pays the index rebuild
// and the rest map the same content-addressed file — the registry path a
// production restart takes.
func CompareServe(quick bool) (ServeComparison, error) {
	spec, cc := serveSpec(quick)
	wl := spec.Build()
	reads := ReadSeqs(wl)
	if len(reads) == 0 {
		return ServeComparison{}, fmt.Errorf("bench: workload produced no reads")
	}
	out := ServeComparison{
		Reads:      len(reads),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostNote: fmt.Sprintf("GOMAXPROCS=%d: every mode spends the same per-read alignment CPU on lanes pooled on the aligner; "+
			"concurrent per-request calls already fill the cores, so coalescing buys one table sweep per flush, not capacity",
			runtime.GOMAXPROCS(0)),
		MaxBatchLimit: 64,
		QueueLimit:    256,
	}

	// Offline baseline: one AlignBatch over the exact read set, digested
	// with the shared fold. Served responses must reproduce it bit for bit
	// in every mode.
	offline, err := core.New(wl.Ref, cc)
	if err != nil {
		return ServeComparison{}, err
	}
	out.Segments = offline.NumSegments()
	results, _ := offline.AlignBatch(reads)
	out.OfflineHash, out.OfflineAligned = digestResults(results)
	offline = nil

	dir, err := os.MkdirTemp("", "genax-bench-serve")
	if err != nil {
		return ServeComparison{}, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	fasta := filepath.Join(dir, "serve.fasta")
	f, err := os.Create(fasta)
	if err != nil {
		return ServeComparison{}, err
	}
	if err := dna.WriteFasta(f, []dna.FastaRecord{{Name: "serve", Seq: wl.Ref}}, 0); err != nil {
		_ = f.Close()
		return ServeComparison{}, err
	}
	if err := f.Close(); err != nil {
		return ServeComparison{}, err
	}

	out.PeakRSSSupported = resetPeakRSS()
	var offered float64 // calibrated from the session run
	for _, mode := range serveModes {
		run, err := measureServeMode(mode, fasta, dir, cc, reads, out, offered, quick)
		if err != nil {
			return ServeComparison{}, err
		}
		if mode == "session" {
			offered = run.CapacityRPS * serveOfferedFactor
		}
		out.Runs = append(out.Runs, run)
	}

	out.HashOK = true
	for i := range out.Runs {
		r := &out.Runs[i]
		r.HashMatch = r.ResultHash == out.OfflineHash && r.Aligned == out.OfflineAligned
		if !r.HashMatch && out.HashMismatch == "" {
			out.HashOK = false
			out.HashMismatch = fmt.Sprintf("%s served hash %016x (%d aligned) != offline %016x (%d aligned)",
				r.Mode, r.ResultHash, r.Aligned, out.OfflineHash, out.OfflineAligned)
		}
	}
	session, alignread, coalesced := &out.Runs[0], &out.Runs[1], &out.Runs[2]
	if session.CapacityRPS > 0 {
		out.SpeedupVsSession = coalesced.CapacityRPS / session.CapacityRPS
	}
	if alignread.CapacityRPS > 0 {
		out.SpeedupVsAlignRead = coalesced.CapacityRPS / alignread.CapacityRPS
	}
	// The coalescing admission queue must shed the overload burst, every
	// rejection carrying the Retry-After hint.
	out.ShedGate = coalesced.BurstRejected > 0 && coalesced.BurstRetryAfter
	return out, nil
}

// measureServeMode stands up one real server in the given mode and runs
// the three measurement phases against it over HTTP. offeredRPS of zero
// (the calibration run) makes the open-loop phase reuse the capacity
// probe's measured rate times serveOfferedFactor.
func measureServeMode(mode, fasta, cacheDir string, cc core.Config, reads []dna.Seq,
	cmp ServeComparison, offeredRPS float64, quick bool) (ServeRun, error) {
	run := ServeRun{Mode: mode}
	cfg := serve.Config{
		Genomes:           []serve.GenomeConfig{{Name: "g0", Fasta: fasta, Preload: true}},
		Core:              cc,
		CacheDir:          cacheDir,
		MaxBatch:          cmp.MaxBatchLimit,
		QueueLimit:        cmp.QueueLimit,
		MaxResident:       1,
		PerRequestSession: mode == "session",
		Logf:              func(string, ...any) {},
	}
	if mode == "coalesced" {
		cfg.CoalesceWindow = serve.DefaultCoalesceWindow
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return ServeRun{}, err
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if err := srv.Preload(context.Background(), true); err != nil {
		return ServeRun{}, err
	}
	client := newServeClient(hs.URL)

	// Phase 1 — identity: serve every workload read once (closed loop,
	// bounded concurrency) and fold the responses in read order. Doubles
	// as warmup for the rate phases.
	responses := make([]serveResponse, len(reads))
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reads) {
					return
				}
				resp, status, _, err := client.post(reads[i])
				if err != nil || status != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Errorf("identity pass read %d: status %d err %v", i, status, err))
					return
				}
				responses[i] = resp
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return ServeRun{}, fmt.Errorf("bench: %s: %w", mode, err)
	}
	run.ResultHash, run.Aligned = digestServed(responses)

	probeDur, loadDur := 1500*time.Millisecond, 2*time.Second
	if quick {
		probeDur, loadDur = 250*time.Millisecond, 300*time.Millisecond
	}

	// Phase 2 — capacity: closed loop, fixed concurrency, no pacing.
	run.CapacityRPS = serveCapacity(client, reads, 128, probeDur)

	// Phase 3 — open loop at the shared offered rate (calibrated from the
	// session baseline's capacity on the first run).
	if offeredRPS <= 0 {
		offeredRPS = run.CapacityRPS * serveOfferedFactor
	}
	serveOpenLoop(&run, client, reads, offeredRPS, loadDur)

	run.PeakRSSBytes = peakRSSBytes()
	resetPeakRSS()

	if mode == "coalesced" {
		if err := scrapeStats(client, &run); err != nil {
			return ServeRun{}, err
		}
		// Phase 4 — overload burst against a dedicated tiny-queue server.
		// The open-loop pacer cannot oversubscribe this server when client
		// and server share the host's cores (the pacer itself gets
		// starved), so back-pressure is verified directly: a burst far
		// wider than the intake queue must shed with 429 + Retry-After
		// while the dispatcher is busy flushing.
		if err := serveShedCheck(&run, fasta, cacheDir, cc, reads); err != nil {
			return ServeRun{}, err
		}
	}
	return run, nil
}

// serveShedCheck stands up a coalescing server whose intake queue holds
// only 4 requests and fires 64 at once. The dispatcher's first flush is
// still aligning when the queue refills, so most of the burst must be
// rejected at admission — quickly, with the Retry-After hint — rather
// than queued without bound.
func serveShedCheck(run *ServeRun, fasta, cacheDir string, cc core.Config, reads []dna.Seq) error {
	srv, err := serve.New(serve.Config{
		Genomes:        []serve.GenomeConfig{{Name: "g0", Fasta: fasta, Preload: true}},
		Core:           cc,
		CacheDir:       cacheDir,
		MaxBatch:       4,
		QueueLimit:     4,
		MaxResident:    1,
		CoalesceWindow: serve.DefaultCoalesceWindow,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if err := srv.Preload(context.Background(), true); err != nil {
		return err
	}
	client := newServeClient(hs.URL)

	const n = 64
	var mu sync.Mutex
	okN, rejN := 0, 0
	allHints := true
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, retryAfter, err := client.post(reads[i%len(reads)])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && status == http.StatusOK:
				okN++
			case err == nil && status == http.StatusTooManyRequests:
				rejN++
				if retryAfter == "" {
					allHints = false
				}
			}
		}()
	}
	wg.Wait()
	run.BurstSent, run.BurstOK, run.BurstRejected = n, okN, rejN
	run.BurstRetryAfter = rejN > 0 && allHints
	return nil
}

// serveCapacity measures closed-loop sustained throughput: conc workers
// post reads round-robin as fast as the server answers them for dur.
func serveCapacity(client *serveClient, reads []dna.Seq, conc int, dur time.Duration) float64 {
	var ok atomic.Int64
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(reads)
				if _, status, _, err := client.post(reads[i]); err == nil && status == http.StatusOK {
					ok.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(ok.Load()) / elapsed.Seconds()
}

// serveOpenLoop fires requests on a fixed schedule regardless of how the
// server is keeping up — the client population of an overloaded service —
// and records per-request latency (successful requests), goodput, and
// shedding behaviour. A full admission queue answers fast (429), so the
// in-flight population stays bounded by the server, not the pacer.
func serveOpenLoop(run *ServeRun, client *serveClient, reads []dna.Seq, rps float64, dur time.Duration) {
	if rps <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	run.OfferedRPS = rps

	var mu sync.Mutex
	var lats []time.Duration
	var okN, rejN, errN int
	retrySeen := false

	var wg sync.WaitGroup
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(dur)
	sent := 0
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		i := sent % len(reads)
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_, status, retryAfter, err := client.post(reads[i])
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && status == http.StatusOK:
				okN++
				lats = append(lats, lat)
			case err == nil && status == http.StatusTooManyRequests:
				rejN++
				if retryAfter != "" {
					retrySeen = true
				}
			default:
				errN++
			}
		}()
	}
	wg.Wait()
	run.Sent, run.OK, run.Rejected, run.Errors = sent, okN, rejN, errN
	run.RetryAfterSeen = retrySeen
	run.GoodputRPS = float64(okN) / dur.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	run.P50 = percentile(lats, 0.50)
	run.P90 = percentile(lats, 0.90)
	run.P99 = percentile(lats, 0.99)
}

// percentile reads the p-th quantile from an ascending latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// serveResponse is the decoded /align answer plus enough to digest it.
type serveResponse struct {
	Aligned bool   `json:"aligned"`
	Pos     int    `json:"pos"`
	Score   int    `json:"score"`
	Cigar   string `json:"cigar"`
	Reverse bool   `json:"reverse"`
}

// digestServed folds served responses with the same byte stream as
// digestResults folds core.ReadResult, so a served run and an offline
// AlignBatch over the same reads hash identically exactly when the
// alignments agree.
func digestServed(responses []serveResponse) (hash uint64, aligned int) {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range responses {
		if !r.Aligned {
			_, _ = h.Write([]byte{0})
			continue
		}
		aligned++
		_, _ = h.Write([]byte{1})
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.Pos)))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.Score)))
		_, _ = h.Write(buf[:])
		if r.Reverse {
			_, _ = h.Write([]byte{1})
		} else {
			_, _ = h.Write([]byte{0})
		}
		_, _ = h.Write([]byte(r.Cigar))
	}
	return h.Sum64(), aligned
}

// serveClient posts reads to one server over a connection-pooled client.
type serveClient struct {
	base string
	hc   *http.Client
}

func newServeClient(base string) *serveClient {
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	return &serveClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// post aligns one read; it returns the decoded response, the HTTP status,
// and the Retry-After header (when present).
func (c *serveClient) post(read dna.Seq) (serveResponse, int, string, error) {
	resp, err := c.hc.Post(c.base+"/align/g0", "text/plain", strings.NewReader(read.String()))
	if err != nil {
		return serveResponse{}, 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	var out serveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return serveResponse{}, resp.StatusCode, "", err
		}
	}
	return out, resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// scrapeStats pulls the coalescing shape out of /statsz.
func scrapeStats(client *serveClient, run *ServeRun) error {
	resp, err := client.hc.Get(client.base + "/statsz")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	for _, g := range snap.Genomes {
		if g.Name != "g0" {
			continue
		}
		run.Batches, run.BatchedReads, run.MaxBatch = g.Batches, g.BatchedReads, g.MaxBatch
		if g.Batches > 0 {
			run.MeanBatch = float64(g.BatchedReads) / float64(g.Batches)
		}
	}
	return nil
}

func (c ServeComparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving-mode comparison (%d reads, %d segments, GOMAXPROCS=%d, max batch %d, queue %d)\n",
		c.Reads, c.Segments, c.GOMAXPROCS, c.MaxBatchLimit, c.QueueLimit)
	fmt.Fprintf(&b, "%-10s %10s %10s %6s %6s %5s %9s %9s %9s %10s %8s\n",
		"mode", "capacity", "offered", "ok", "rej", "err", "p50", "p90", "p99", "peakrss", "=offline")
	for _, r := range c.Runs {
		rss := "n/a"
		if r.PeakRSSBytes > 0 {
			rss = fmt.Sprintf("%d MiB", r.PeakRSSBytes>>20)
		}
		fmt.Fprintf(&b, "%-10s %8.0f/s %8.0f/s %6d %6d %5d %9v %9v %9v %10s %8v\n",
			r.Mode, r.CapacityRPS, r.OfferedRPS, r.OK, r.Rejected, r.Errors,
			r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			rss, r.HashMatch)
	}
	for _, r := range c.Runs {
		if r.Batches > 0 {
			fmt.Fprintf(&b, "%s: %d flushes, %.1f reads/flush mean, %d max\n",
				r.Mode, r.Batches, r.MeanBatch, r.MaxBatch)
		}
	}
	for _, r := range c.Runs {
		if r.BurstSent > 0 {
			fmt.Fprintf(&b, "overload burst (queue 4): %d sent, %d ok, %d shed with 429 (Retry-After on all: %v)\n",
				r.BurstSent, r.BurstOK, r.BurstRejected, r.BurstRetryAfter)
		}
	}
	fmt.Fprintf(&b, "coalesced capacity: %.2fx vs per-request sessions, %.2fx vs AlignRead\n",
		c.SpeedupVsSession, c.SpeedupVsAlignRead)
	fmt.Fprintf(&b, "gates: hash %v, shed(429+Retry-After) %v\n", c.HashOK, c.ShedGate)
	if c.HashOK {
		b.WriteString("served results in every mode are byte-identical to offline AlignBatch")
	} else {
		b.WriteString("MISMATCH: " + c.HashMismatch)
	}
	return b.String()
}
