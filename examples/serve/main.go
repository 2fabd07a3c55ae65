// Serve: align reads over HTTP the way genaxd does — a serve.Server is
// started in-process (the same layer `cmd/genaxd` mounts), single-read
// requests are POSTed against it concurrently, and every response is
// checked against the in-process AlignRead answer for the same read:
// served results are byte-identical to offline alignment, however the
// requests were batched. To run against a real daemon instead, start one
//
//	go run ./cmd/genaxd -genome demo=ref.fasta -kmer 8 -segment 4096
//
// and point the POSTs at http://localhost:8844/align/demo.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/serve"
	"genax/internal/sim"
)

// alignResponse mirrors the serve.AlignResponse JSON body.
type alignResponse struct {
	Aligned bool   `json:"aligned"`
	Pos     int    `json:"pos"`
	Score   int    `json:"score"`
	Cigar   string `json:"cigar"`
	Reverse bool   `json:"reverse"`
}

func main() {
	// 1. A synthetic genome plus reads, and the reference written to a
	//    FASTA file — the server builds (and caches) its index from the
	//    file exactly like genaxd would.
	wl := sim.NewWorkload(42, 60_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 0.3, ErrorRate: 0.02, ReverseFraction: 0.5})
	dir, err := os.MkdirTemp("", "genax-serve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fasta := filepath.Join(dir, "demo.fasta")
	f, err := os.Create(fasta)
	if err != nil {
		log.Fatal(err)
	}
	if err := dna.WriteFasta(f, []dna.FastaRecord{{Name: "demo", Seq: wl.Ref}}, 0); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// 2. The serving layer genaxd mounts: one genome, index cache in the
	//    temp dir. CoalesceWindow is left at 0, so the dispatcher arms no
	//    timer: each flush takes the posts already queued (up to MaxBatch)
	//    and aligns them as one batch. A second run against the same cache
	//    dir would map the index in microseconds instead of rebuilding.
	cfg := core.DefaultConfig()
	cfg.KmerLen = 8
	cfg.SegmentLen = 4096
	cfg.Overlap = 256
	srv, err := serve.New(serve.Config{
		Genomes:  []serve.GenomeConfig{{Name: "demo", Fasta: fasta, Preload: true}},
		Core:     cfg,
		CacheDir: dir,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Preload(context.Background(), true); err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// 3. The offline oracle for the check: the same aligner configuration
	//    over the same reference.
	oracle, err := core.New(wl.Ref, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Post every read concurrently — the traffic shape coalescing
	//    exists for — and compare each served response with AlignRead.
	var wg sync.WaitGroup
	var mu sync.Mutex
	aligned, mismatches := 0, 0
	for _, rd := range wl.Reads {
		wg.Add(1)
		go func(read dna.Seq) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/align/demo", "text/plain", strings.NewReader(read.String()))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			var got alignResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				log.Fatal(err)
			}
			res, ok := oracle.AlignRead(read)
			same := got.Aligned == ok &&
				(!ok || (got.Pos == res.RefPos && got.Score == res.Score &&
					got.Cigar == res.Cigar.String() && got.Reverse == res.Reverse))
			mu.Lock()
			if got.Aligned {
				aligned++
			}
			if !same {
				mismatches++
			}
			mu.Unlock()
		}(rd.Seq)
	}
	wg.Wait()

	fmt.Printf("served %d reads over HTTP: %d aligned, %d mismatches vs AlignRead\n",
		len(wl.Reads), aligned, mismatches)
	if mismatches > 0 {
		log.Fatal("served results diverged from offline alignment")
	}
	fmt.Println("every served response is byte-identical to the offline answer")
}
