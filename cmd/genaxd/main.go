// Command genaxd serves alignment over HTTP: many concurrent single-read
// requests are coalesced into pipeline batches per genome (the batching
// the GenAx lanes are fast at), against a registry of mmap-backed index
// caches with LRU residency and warm preloading.
//
// Usage:
//
//	genaxd -listen :8844 -genome grch=ref/grch.fasta -genome ecoli=ref/ecoli.fasta
//
// Endpoints:
//
//	POST /align/{genome}   body: base string (ACGT...), response: JSON alignment
//	GET  /statsz           serve + pipeline counters
//	GET  /healthz          200 while serving, 503 while draining
//
// SIGINT/SIGTERM drains gracefully: new requests get 503, in-flight
// requests finish (bounded by -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genax/internal/core"
	"genax/internal/serve"
)

// genomeFlags collects repeated -genome name=path pairs.
type genomeFlags []serve.GenomeConfig

func (g *genomeFlags) String() string {
	names := make([]string, len(*g))
	for i, gc := range *g {
		names[i] = gc.Name
	}
	return strings.Join(names, ",")
}

func (g *genomeFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, serve.GenomeConfig{Name: name, Fasta: path, Preload: true})
	return nil
}

func main() {
	var genomes genomeFlags
	flag.Var(&genomes, "genome", "serve a genome as name=ref.fasta (repeatable)")
	listen := flag.String("listen", ":8844", "listen address")
	kmer := flag.Int("kmer", 12, "index k-mer length")
	segLen := flag.Int("segment", 1<<20, "index segment length (bases)")
	overlap := flag.Int("overlap", 256, "index segment overlap (must cover readLen+K)")
	k := flag.Int("k", 40, "SillaX edit bound")
	engine := flag.String("engine", "bitsilla", "extension engine: bitsilla, sillax, banded, genasm, or cascade")
	minScore := flag.Int("minscore", 30, "reporting score floor")
	workers := flag.Int("workers", 0, "lane budget per batch (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "coalesced batch size bound")
	window := flag.Duration("coalesce-window", serve.DefaultCoalesceWindow,
		"max wait for a batch to fill (0 = per-request serving, no coalescing)")
	queueLimit := flag.Int("queue-limit", 0, "admission limit per genome (0 = 4x max-batch); beyond it requests get 429")
	maxResident := flag.Int("max-resident", serve.DefaultMaxResident, "genomes resident (mapped + aligner) at once; LRU beyond")
	loadConc := flag.Int("load-concurrency", 1, "concurrent index builds/loads on registry miss")
	cacheDir := flag.String("cache-dir", "", "index cache directory (default: next to each FASTA)")
	shards := flag.Int("shards", 0, "shard groups for rebuilt caches (0 = one group)")
	preload := flag.Bool("preload", true, "warm-load all genomes before serving")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	flag.Parse()

	if len(genomes) == 0 {
		fmt.Fprintln(os.Stderr, "genaxd: at least one -genome name=ref.fasta is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.KmerLen = *kmer
	cfg.SegmentLen = *segLen
	cfg.Overlap = *overlap
	cfg.K = *k
	cfg.Engine = core.Engine(*engine)
	cfg.MinScore = *minScore
	cfg.Workers = *workers

	srv, err := serve.New(serve.Config{
		Genomes:         genomes,
		Core:            cfg,
		CacheDir:        *cacheDir,
		MaxBatch:        *maxBatch,
		CoalesceWindow:  *window,
		QueueLimit:      *queueLimit,
		MaxResident:     *maxResident,
		LoadConcurrency: *loadConc,
		Shards:          *shards,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatalf("genaxd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *preload {
		log.Printf("genaxd: preloading %d genome(s)", len(genomes))
		t0 := time.Now()
		if err := srv.Preload(ctx, true); err != nil {
			log.Fatalf("genaxd: %v", err)
		}
		log.Printf("genaxd: preload done in %v", time.Since(t0).Round(time.Millisecond))
	}

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("genaxd: serving %s on %s (coalesce window %v, max batch %d)",
		genomes.String(), *listen, *window, *maxBatch)

	select {
	case err := <-errc:
		log.Fatalf("genaxd: %v", err)
	case <-ctx.Done():
	}

	// Drain: reject new work, let admitted requests finish, then tear the
	// serve layer down (dispatchers stop, genomes unmap).
	log.Printf("genaxd: signal received, draining (timeout %v)", *drainTimeout)
	srv.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("genaxd: shutdown: %v", err)
	}
	srv.Close()
	log.Printf("genaxd: drained, exiting")
}
