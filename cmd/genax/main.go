// Command genax is the read-alignment CLI over the GenAx pipeline model:
//
//	genax simulate -genome 200000 -coverage 5 -error 0.02 -out ./data
//	genax index    -ref ./data/ref.fasta
//	genax align    -ref ./data/ref.fasta -reads ./data/reads.fastq
//	genax eval     -aln aln.tsv -truth ./data/truth.tsv
//
// index writes a versioned, checksummed cache of the per-segment tables
// next to the reference (see internal/indexio); align maps that cache,
// writing it first when it is missing or stale, so repeated runs skip the
// table rebuild.
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
	"genax/internal/indexio"
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

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA")
	kmer := fs.Int("kmer", 12, "k-mer length")
	segLen := fs.Int("segment", 1<<20, "segment length (bases)")
	shards := fs.Int("shards", 0, "partition the cache into up to N shard groups for bounded-residency streaming; a group is whole runs of 8 segments, so the cache may get fewer than N (0 = keep any partition, one group when writing)")
	verify := fs.Bool("verify", false, "check the cache file (checksums, geometry, structure) and exit without building")
	out := fs.String("out", "auto",
		`index cache output: "auto" writes the keyed cache file next to -ref (the one align auto-loads), anything else is an explicit path`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" {
		return fmt.Errorf("index: -ref is required")
	}
	ref, _, err := dna.ReadRef(*refPath)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.KmerLen = *kmer
	cfg.SegmentLen = *segLen
	path := *out
	if path == "" {
		return fmt.Errorf("index: -out needs a cache path (auto or explicit)")
	}
	if path == "auto" {
		path, err = indexio.CachePath(filepath.Dir(*refPath), ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if err != nil {
			return err
		}
	}
	if *verify {
		if reason := indexio.Probe(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap); reason != "" {
			return fmt.Errorf("index: cache %s unusable: %s", path, reason)
		}
		m, err := indexio.Open(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
		if err != nil {
			return fmt.Errorf("index: cache %s: %w", path, err)
		}
		defer m.Close()
		// Every section CRC and every structural invariant, on top of the
		// whole-file CRC Probe checked.
		if err := m.Verify(); err != nil {
			return fmt.Errorf("index: cache %s failed verification: %w", path, err)
		}
		fmt.Printf("index cache %s OK (v%d, %d segments, %d shard groups, hash %016x)\n",
			path, indexio.Version, m.Index().NumSegments(), m.NumShardGroups(), m.Index().Hash())
		return nil
	}
	m, reason, err := indexio.Ensure(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap, *shards)
	if err != nil {
		return fmt.Errorf("index: cache %s: %w", path, err)
	}
	defer m.Close()
	switch reason {
	case "":
		fmt.Printf("index cache %s up to date, skipping rebuild\n", path)
		return nil
	case "no cache file":
	default:
		fmt.Printf("rebuilt index cache %s: %s\n", path, reason)
	}
	fmt.Printf("reference: %d bp; segments: %d x %d bp (overlap %d); k-mer: %d\n",
		len(ref), m.Index().NumSegments(), cfg.SegmentLen, cfg.Overlap, cfg.KmerLen)
	fmt.Printf("wrote index cache %s (%d MiB, %d shard groups)\n", path, m.SizeBytes()>>20, m.NumShardGroups())
	return nil
}

// openIndex resolves the align -index flag to a mapped cache. "auto" is
// the keyed cache next to the reference, built and written when missing or
// stale (indexio.Ensure, the decision genax index and genaxd make too);
// any other value is an explicit path that must already hold a cache for
// this reference and geometry — it is never rebuilt.
func openIndex(mode, refPath string, ref dna.Seq, cfg core.Config) (*indexio.Mapped, error) {
	path, reason := mode, ""
	var m *indexio.Mapped
	var err error
	if mode == "auto" {
		if path, err = indexio.CachePath(filepath.Dir(refPath), ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap); err != nil {
			return nil, err
		}
		m, reason, err = indexio.Ensure(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap, 0)
	} else {
		m, err = indexio.Open(path, ref, cfg.KmerLen, cfg.SegmentLen, cfg.Overlap)
	}
	if err != nil {
		return nil, fmt.Errorf("align: index cache %s: %w", path, err)
	}
	if reason != "" {
		fmt.Fprintf(os.Stderr, "genax: built index cache %s (%s)\n", path, reason)
	}
	fmt.Fprintf(os.Stderr, "genax: mapped index cache %s (%d MiB, %d shard groups)\n", path, m.SizeBytes()>>20, m.NumShardGroups())
	return m, nil
}

func cmdAlign(args []string) error {
	fs := flag.NewFlagSet("align", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA")
	readsPath := fs.String("reads", "", "reads FASTQ")
	kmer := fs.Int("kmer", 12, "k-mer length")
	segLen := fs.Int("segment", 1<<20, "segment length (bases)")
	k := fs.Int("k", 40, "SillaX edit bound")
	stats := fs.Bool("stats", false, "print pipeline statistics to stderr")
	indexFlag := fs.String("index", "auto",
		`index cache, always mapped: "auto" uses the keyed cache next to -ref and writes it when missing or stale, "" builds the tables in process without a cache, anything else is an explicit cache path`)
	shardsFlag := fs.Int("shards", 0, "bound residency to N of the cache's shard groups at a time (0 = unbounded); genax index -shards sets the partition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *readsPath == "" {
		return fmt.Errorf("align: -ref and -reads are required")
	}
	ref, refName, err := dna.ReadRef(*refPath)
	if err != nil {
		return err
	}
	rf, err := os.Open(*readsPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	cfg := core.DefaultConfig()
	cfg.KmerLen = *kmer
	cfg.SegmentLen = *segLen
	cfg.K = *k
	var res *indexio.ShardResidency
	if *indexFlag != "" {
		m, err := openIndex(*indexFlag, *refPath, ref, cfg)
		if err != nil {
			return err
		}
		// Unmap only after the pipeline has fully drained (deferred past
		// alignReads below) — every table and the reference itself are
		// views into this mapping.
		defer m.Close()
		// Out-of-core: the aligner runs against the cache's own mapped
		// reference, and the FASTA copy is left to the GC.
		cfg.Index = m.Index()
		ref = m.Ref()
		if *shardsFlag > 0 {
			res = indexio.NewShardResidency(m, *shardsFlag)
			cfg.Residency = res
		}
	}
	aligner, err := core.New(ref, cfg)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout) // sticky errors: the Flush below reports them
	st, err := alignReads(aligner, dna.NewFastqReader(rf, dna.FastaOptions{ResolveN: rand.New(rand.NewSource(2))}), refName, out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "reads=%d aligned=%d exact=%d segments=%d extensions=%d extCycles=%d reruns=%d\n",
			st.Reads, st.Aligned, st.ExactReads, st.Segments, st.Extensions, st.ExtensionCycles, st.ReRuns)
		if st.ChainGroups > 0 {
			fmt.Fprintf(os.Stderr, "anchor chaining: groups=%d anchors=%d kept=%d\n",
				st.ChainGroups, st.ChainAnchors, st.ChainKept)
		}
		if res != nil {
			fmt.Fprintln(os.Stderr, res.String())
		}
	}
	return nil
}

// alignReads streams fr's reads through the aligner and writes their
// records to out in input order as each window finishes. A parse error
// stops admission; the reads before it are still written, then it is
// returned.
func alignReads(a *core.Aligner, fr *dna.FastqReader, refName string, out *bufio.Writer) (*core.Stats, error) {
	in := make(chan dna.Seq)
	results, st := a.AlignStream(context.Background(), in)
	// names queues the reads sent but not yet written. AlignStream holds
	// at most two windows plus its 64-result buffer, which bounds it.
	var names []string
	send, more := in, fr.Next() // send is nil once the input is exhausted
	for {
		if !more && send != nil {
			close(in)
			send = nil
		}
		select {
		case send <- fr.Record().Seq:
			names = append(names, fr.Record().Name)
			more = fr.Next()
		case rr, ok := <-results:
			if !ok {
				return st, fr.Err()
			}
			writeRecord(out, names[0], refName, rr)
			names = names[1:]
		}
	}
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

const evalTol = 12 // bases from the true position that eval counts as near

// cmdEval scores an alignment file produced by `genax align` against the
// truth table produced by `genax simulate`, reporting the fraction of
// reads aligned, mapped near their true position, and on the right strand.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	alnPath := fs.String("aln", "", "alignment file (output of genax align)")
	truthPath := fs.String("truth", "", "truth table (truth.tsv from genax simulate)")
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
		if d <= evalTol {
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
	fmt.Printf("within %-3d bp:   %d (%.2f%% of aligned)\n", evalTol, near, 100*float64(near)/float64(max(1, aligned)))
	fmt.Printf("strand correct:  %d (%.2f%% of aligned)\n", strandOK, 100*float64(strandOK)/float64(max(1, aligned)))
	return nil
}
