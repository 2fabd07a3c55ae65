// Command genax is the read-alignment CLI over the GenAx pipeline model:
//
//	genax simulate -genome 200000 -coverage 5 -error 0.02 -out ./data
//	genax index    -ref ./data/ref.fasta
//	genax align    -ref ./data/ref.fasta -reads ./data/reads.fastq
//	genax eval     -aln aln.tsv -truth ./data/truth.tsv
//
// index writes a versioned, checksummed cache of the per-segment tables
// next to the reference (see internal/indexio); align auto-loads it when
// present, so repeated runs skip the table rebuild.
//
// align writes SAM-like records (QNAME FLAG RNAME POS MAPQ CIGAR AS:i:score)
// to stdout.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/extend"
	"genax/internal/indexio"
	"genax/internal/seed"
	"genax/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "align":
		err = cmdAlign(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: genax {simulate|index|align|eval} [flags]")
	os.Exit(2)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	genome := fs.Int("genome", 200_000, "reference length (bases)")
	coverage := fs.Float64("coverage", 5, "read coverage")
	errRate := fs.Float64("error", 0.02, "per-base sequencing error rate")
	readLen := fs.Int("readlen", 101, "read length")
	seed := fs.Int64("seed", 1, "RNG seed")
	out := fs.String("out", ".", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl := sim.NewWorkload(*seed, *genome, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: *readLen, Coverage: *coverage, ErrorRate: *errRate, ReverseFraction: 0.5})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	refPath := filepath.Join(*out, "ref.fasta")
	f, err := os.Create(refPath)
	if err != nil {
		return err
	}
	if err := dna.WriteFasta(f, []dna.FastaRecord{{Name: "synthetic", Seq: wl.Ref}}, 0); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	readsPath := filepath.Join(*out, "reads.fastq")
	g, err := os.Create(readsPath)
	if err != nil {
		return err
	}
	recs := make([]dna.FastqRecord, len(wl.Reads))
	truth := make([]string, len(wl.Reads))
	for i, rd := range wl.Reads {
		recs[i] = dna.FastqRecord{Name: rd.ID, Seq: rd.Seq}
		strand := "+"
		if rd.Reverse {
			strand = "-"
		}
		truth[i] = fmt.Sprintf("%s\t%d\t%s\t%d", rd.ID, rd.TruePos, strand, rd.Errors)
	}
	if err := dna.WriteFastq(g, recs); err != nil {
		_ = g.Close() // the write error is the one worth reporting
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	truthPath := filepath.Join(*out, "truth.tsv")
	t, err := os.Create(truthPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(t)
	// bufio errors are sticky; the checked Flush below surfaces them.
	_, _ = fmt.Fprintln(bw, "#read\ttrue_pos\tstrand\terrors")
	for _, line := range truth {
		_, _ = fmt.Fprintln(bw, line)
	}
	if err := bw.Flush(); err != nil {
		_ = t.Close()
		return err
	}
	if err := t.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bp), %s (%d reads), %s\n", refPath, len(wl.Ref), readsPath, len(wl.Reads), truthPath)
	return nil
}

func loadRef(path string) (dna.Seq, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	recs, err := dna.ReadFasta(f, dna.FastaOptions{ResolveN: rand.New(rand.NewSource(1))})
	if err != nil {
		return nil, "", err
	}
	// Concatenate contigs; alignment positions are reported against the
	// concatenation (single synthetic contigs in practice).
	var ref dna.Seq
	for _, r := range recs {
		ref = append(ref, r.Seq...)
	}
	return ref, recs[0].Name, nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA")
	kmer := fs.Int("kmer", 12, "k-mer length")
	segLen := fs.Int("segment", 1<<20, "segment length (bases)")
	shards := fs.Int("shards", 0, "partition the cache into N shard groups for bounded-residency streaming (0 = one group)")
	verify := fs.Bool("verify", false, "check the cache file (checksums, geometry, structure) and exit without building")
	out := fs.String("out", "auto",
		`index cache output: "auto" writes the keyed cache file next to -ref (the one align auto-loads), "" skips writing, anything else is an explicit path`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" {
		return fmt.Errorf("index: -ref is required")
	}
	ref, _, err := loadRef(*refPath)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.KmerLen = *kmer
	cfg.SegmentLen = *segLen
	path := *out
	if path == "auto" {
		path, err = indexio.CachePath(filepath.Dir(*refPath), ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if err != nil {
			return err
		}
	}
	if *verify {
		if path == "" {
			return fmt.Errorf("index: -verify needs a cache path (-out auto or explicit)")
		}
		if reason := indexio.Probe(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap); reason != "" {
			return fmt.Errorf("index: cache %s unusable: %s", path, reason)
		}
		// Probe proved the header matches; load fully so every structural
		// invariant (and the whole-file CRC) is exercised.
		sx, err := indexio.ReadFile(path, ref)
		if err != nil {
			return fmt.Errorf("index: cache %s failed verification: %w", path, err)
		}
		fmt.Printf("index cache %s OK (v%d, %d segments, hash %016x)\n", path, indexio.Version, sx.NumSegments(), sx.Hash())
		return nil
	}
	// Probe before building: a cache that already matches the reference,
	// geometry, and requested shard partition makes the rebuild pure waste;
	// a present-but-unusable one gets its staleness reason printed instead
	// of a silent rebuild.
	if path != "" {
		reason := indexio.Probe(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if reason == "" {
			if m, merr := indexio.OpenMapped(path); merr != nil {
				reason = merr.Error()
			} else {
				numSegs := len(m.Index().Samples)
				wantGS := indexio.GroupSizeForShards(numSegs, *shards)
				haveGS := m.ShardGroupSize()
				_ = m.Close()
				if numSegs > 0 && haveGS != wantGS {
					reason = fmt.Sprintf("shard partition mismatch (cache %d segments/group, want %d)", haveGS, wantGS)
				} else {
					fmt.Printf("index cache %s up to date, skipping rebuild\n", path)
					return nil
				}
			}
		}
		if reason != "" && reason != "no cache file" {
			fmt.Printf("rebuilding index cache %s: %s\n", path, reason)
		}
	}
	aligner, err := core.New(ref, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("reference: %d bp; segments: %d x %d bp (overlap %d); k-mer: %d\n",
		len(ref), aligner.NumSegments(), cfg.SegmentLen, cfg.Overlap, cfg.KmerLen)
	if path == "" {
		return nil
	}
	if err := indexio.WriteFileShards(path, aligner.Index(), ref, indexio.GroupSizeForShards(aligner.NumSegments(), *shards)); err != nil {
		return err
	}
	fmt.Printf("wrote index cache %s (hash %016x)\n", path, aligner.Index().Hash())
	return nil
}

// loadIndexCache resolves the align -index flag: "" disables the cache,
// "auto" probes the keyed cache file next to the reference (missing or
// stale files fall back to an in-process build with a note), and any other
// value is an explicit path whose load failures are fatal — the user asked
// for that file specifically.
func loadIndexCache(mode, refPath string, ref dna.Seq, cfg core.Config) (*seed.SegmentedIndex, error) {
	switch mode {
	case "":
		return nil, nil
	case "auto":
		path, err := indexio.CachePath(filepath.Dir(refPath), ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if err != nil {
			return nil, err
		}
		sx, err := indexio.ReadFile(path, ref)
		if err != nil {
			if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "genax: ignoring index cache %s: %v\n", path, err)
			}
			return nil, nil
		}
		fmt.Fprintf(os.Stderr, "genax: loaded index cache %s\n", path)
		return sx, nil
	default:
		return indexio.ReadFile(mode, ref)
	}
}

// openMappedIndex resolves the -index flag for the -mmap path. Unlike the
// heap loader there is no silent fallback: the user explicitly asked for
// the mapped cache, so a missing or mismatched file is fatal with a
// pointer at `genax index`.
func openMappedIndex(mode, refPath string, ref dna.Seq, cfg core.Config) (*indexio.Mapped, error) {
	path := mode
	switch mode {
	case "":
		return nil, fmt.Errorf("align: -mmap needs an index cache (-index auto or an explicit path)")
	case "auto":
		var err error
		path, err = indexio.CachePath(filepath.Dir(refPath), ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if err != nil {
			return nil, err
		}
	}
	m, err := indexio.OpenMapped(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("align: no index cache at %s (run genax index first)", path)
		}
		return nil, fmt.Errorf("align: cannot map index cache %s: %w", path, err)
	}
	// The mapping is internally consistent; now pin it to the inputs in
	// hand, exactly like the heap loader's hash and geometry checks.
	if len(ref) != len(m.Ref()) || m.RefHash() != indexio.RefHash(ref) {
		_ = m.Close()
		return nil, fmt.Errorf("align: index cache %s was built from a different reference", path)
	}
	if m.K() != cfg.KmerLen || m.SegLen() != cfg.SegmentLen || m.Overlap() != cfg.Overlap {
		_ = m.Close()
		return nil, fmt.Errorf("align: index cache %s geometry (k=%d seg=%d overlap=%d) does not match flags (k=%d seg=%d overlap=%d)",
			path, m.K(), m.SegLen(), m.Overlap(), cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
	}
	fmt.Fprintf(os.Stderr, "genax: mapped index cache %s (%d MiB, %d shard groups)\n",
		path, m.SizeBytes()>>20, m.NumShardGroups())
	return m, nil
}

func cmdAlign(args []string) error {
	fs := flag.NewFlagSet("align", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA")
	readsPath := fs.String("reads", "", "reads FASTQ")
	kmer := fs.Int("kmer", 12, "k-mer length")
	segLen := fs.Int("segment", 1<<20, "segment length (bases)")
	k := fs.Int("k", 40, "SillaX edit bound")
	engine := fs.String("engine", "bitsilla", "extension engine: bitsilla, sillax, banded, genasm, or cascade")
	stats := fs.Bool("stats", false, "print pipeline statistics to stderr")
	stream := fs.Bool("stream", false, "align via the streaming pipeline (bounded memory, results emitted as windows complete)")
	indexFlag := fs.String("index", "auto",
		`index cache: "auto" loads the genax-index cache next to -ref when present, "" always rebuilds, anything else is an explicit cache path`)
	mmapFlag := fs.Bool("mmap", false, "open the index cache in place (zero-copy mmap) instead of deserializing it; requires a cache written by genax index")
	shardsFlag := fs.Int("shards", 0, "with -mmap, bound residency to N shard groups at a time (0 = unbounded); the cache must have been written with a shard partition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *readsPath == "" {
		return fmt.Errorf("align: -ref and -reads are required")
	}
	if *shardsFlag > 0 && !*mmapFlag {
		return fmt.Errorf("align: -shards requires -mmap (a heap index has no residency to bound)")
	}
	ref, refName, err := loadRef(*refPath)
	if err != nil {
		return err
	}
	rf, err := os.Open(*readsPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	recs, err := dna.ReadFastq(rf, dna.FastaOptions{ResolveN: rand.New(rand.NewSource(2))})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.KmerLen = *kmer
	cfg.SegmentLen = *segLen
	cfg.K = *k
	cfg.Engine = core.Engine(*engine)
	// The reference the aligner runs against: the FASTA by default, the
	// cache's own mapped bytes under -mmap (out-of-core operation — the
	// FASTA copy is released to the GC once it has validated the mapping).
	alignRef := ref
	var res *indexio.ShardResidency
	if *mmapFlag {
		m, err := openMappedIndex(*indexFlag, *refPath, ref, cfg)
		if err != nil {
			return err
		}
		// Unmap only after the pipeline has fully drained (deferred past
		// the AlignBatch/AlignStream returns below) — every table and the
		// reference itself are views into this mapping.
		defer m.Close()
		cfg.Index = m.Index()
		alignRef = m.Ref()
		ref = nil
		if *shardsFlag > 0 {
			if m.NumShardGroups() <= 1 {
				fmt.Fprintf(os.Stderr, "genax: -shards %d ignored: cache has a single shard group (rebuild with genax index -shards)\n", *shardsFlag)
			} else {
				res = indexio.NewShardResidency(m, *shardsFlag)
				cfg.Residency = res
			}
		}
	} else {
		cfg.Index, err = loadIndexCache(*indexFlag, *refPath, ref, cfg)
		if err != nil {
			return err
		}
	}
	aligner, err := core.New(alignRef, cfg)
	if err != nil {
		return err
	}
	reads := make([]dna.Seq, len(recs))
	for i, r := range recs {
		reads[i] = r.Seq
	}
	out := bufio.NewWriter(os.Stdout)
	// bufio errors are sticky; the checked Flush below surfaces them.
	var st *core.Stats
	if *stream {
		// The streaming path holds only a bounded window of reads in
		// flight; records are written as each window completes, in input
		// order, and are byte-identical to the batch path's output.
		in := make(chan dna.Seq)
		results, streamStats := aligner.AlignStream(context.Background(), in)
		go func() {
			for _, rd := range reads {
				in <- rd
			}
			close(in)
		}()
		i := 0
		for rr := range results {
			writeRecord(out, recs[i].Name, refName, rr)
			i++
		}
		st = streamStats
	} else {
		results, batchStats := aligner.AlignBatch(reads)
		for i, rr := range results {
			writeRecord(out, recs[i].Name, refName, rr)
		}
		st = &batchStats
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "reads=%d aligned=%d exact=%d segments=%d extensions=%d extCycles=%d reruns=%d\n",
			st.Reads, st.Aligned, st.ExactReads, st.Segments, st.Extensions, st.ExtensionCycles, st.ReRuns)
		if st.ChainGroups > 0 {
			fmt.Fprintf(os.Stderr, "anchor chaining: groups=%d anchors=%d kept=%d\n",
				st.ChainGroups, st.ChainAnchors, st.ChainKept)
		}
		if st.Routing.Total() > 0 {
			fmt.Fprintf(os.Stderr, "cascade routing: total=%d certified=%d", st.Routing.Total(), st.Routing.Certified())
			for l := extend.Leg(0); l < extend.NumLegs; l++ {
				s := st.Routing.Legs[l]
				fmt.Fprintf(os.Stderr, " %s=%d/%d", l, s.Accepted, s.Routed)
			}
			fmt.Fprintln(os.Stderr)
		}
		if res != nil {
			fmt.Fprintln(os.Stderr, res.String())
		}
	}
	return nil
}

// writeRecord emits one SAM-like record for an alignment result.
func writeRecord(out *bufio.Writer, qname, refName string, rr core.ReadResult) {
	if !rr.Aligned {
		_, _ = fmt.Fprintf(out, "%s\t4\t*\t0\t0\t*\tAS:i:0\n", qname)
		return
	}
	flagv := 0
	if rr.Result.Reverse {
		flagv = 16
	}
	_, _ = fmt.Fprintf(out, "%s\t%d\t%s\t%d\t60\t%s\tAS:i:%d\n",
		qname, flagv, refName, rr.Result.RefPos+1, rr.Result.Cigar, rr.Result.Score)
}

// cmdEval scores an alignment file produced by `genax align` against the
// truth table produced by `genax simulate`, reporting the fraction of
// reads aligned, mapped near their true position, and on the right strand.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	alnPath := fs.String("aln", "", "alignment file (output of genax align)")
	truthPath := fs.String("truth", "", "truth table (truth.tsv from genax simulate)")
	tol := fs.Int("tol", 12, "position tolerance (bases)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *alnPath == "" || *truthPath == "" {
		return fmt.Errorf("eval: -aln and -truth are required")
	}
	truth := map[string]struct {
		pos    int
		strand string
	}{}
	tf, err := os.Open(*truthPath)
	if err != nil {
		return err
	}
	defer tf.Close()
	sc := bufio.NewScanner(tf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) < 3 {
			return fmt.Errorf("eval: malformed truth line %q", line)
		}
		pos, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("eval: bad position in %q: %v", line, err)
		}
		truth[f[0]] = struct {
			pos    int
			strand string
		}{pos, f[2]}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	af, err := os.Open(*alnPath)
	if err != nil {
		return err
	}
	defer af.Close()
	total, aligned, near, strandOK := 0, 0, 0, 0
	as := bufio.NewScanner(af)
	for as.Scan() {
		f := strings.Split(as.Text(), "\t")
		if len(f) < 6 {
			continue
		}
		tr, ok := truth[f[0]]
		if !ok {
			continue
		}
		total++
		if f[1] == "4" {
			continue
		}
		aligned++
		pos, err := strconv.Atoi(f[3])
		if err != nil {
			continue
		}
		d := pos - 1 - tr.pos
		if d < 0 {
			d = -d
		}
		if d <= *tol {
			near++
		}
		strand := "+"
		if f[1] == "16" {
			strand = "-"
		}
		if strand == tr.strand {
			strandOK++
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("eval: no alignment records matched the truth table")
	}
	fmt.Printf("reads evaluated: %d\n", total)
	fmt.Printf("aligned:         %d (%.2f%%)\n", aligned, 100*float64(aligned)/float64(total))
	fmt.Printf("within %-3d bp:   %d (%.2f%% of aligned)\n", *tol, near, 100*float64(near)/float64(max(1, aligned)))
	fmt.Printf("strand correct:  %d (%.2f%% of aligned)\n", strandOK, 100*float64(strandOK)/float64(max(1, aligned)))
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
