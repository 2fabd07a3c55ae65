package dna

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
)

// FastaRecord is one sequence from a FASTA file.
type FastaRecord struct {
	Name string
	Seq  Seq
}

// FastaOptions controls FASTA parsing.
type FastaOptions struct {
	// ResolveN, when non-nil, substitutes a random base for every
	// ambiguity code (N and the other IUPAC letters), which is how
	// short-read pipelines typically treat them. When nil, ambiguity
	// codes cause a parse error.
	ResolveN *rand.Rand
}

// ReadFasta parses all records from r.
func ReadFasta(r io.Reader, opts FastaOptions) ([]FastaRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []FastaRecord
	var cur *FastaRecord
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '>' {
			recs = append(recs, FastaRecord{Name: string(bytes.Fields(raw[1:])[0])})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("dna: fasta line %d: sequence data before first header", line)
		}
		for _, ch := range raw {
			b, ok := BaseFromChar(ch)
			if !ok {
				if opts.ResolveN == nil {
					return nil, fmt.Errorf("dna: fasta line %d: invalid base %q", line, ch)
				}
				b = Base(opts.ResolveN.Intn(NumBases))
			}
			cur.Seq = append(cur.Seq, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dna: reading fasta: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("dna: fasta input contains no records")
	}
	return recs, nil
}

// ReadRef loads the reference FASTA at path the one way every binary does:
// ambiguity codes resolved from a fixed seed (1) and contigs concatenated
// in file order, with alignment positions reported against the
// concatenation. Two callers therefore see the same bases for the same
// file, which is what makes indexio.CachePath agree between genax and
// genaxd. name is the first record's.
func ReadRef(path string) (ref Seq, name string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	recs, err := ReadFasta(f, FastaOptions{ResolveN: rand.New(rand.NewSource(1))})
	if err != nil {
		return nil, "", err
	}
	for _, r := range recs {
		ref = append(ref, r.Seq...)
	}
	return ref, recs[0].Name, nil
}

// WriteFasta writes records to w with the given line width (60 if width<=0).
func WriteFasta(w io.Writer, recs []FastaRecord, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		s := rec.Seq.String()
		for len(s) > 0 {
			n := width
			if n > len(s) {
				n = len(s)
			}
			if _, err := bw.WriteString(s[:n]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return bw.Flush()
}

// FastqRecord is one read from a FASTQ file.
type FastqRecord struct {
	Name string
	Seq  Seq
	Qual []byte // Phred+33, same length as Seq
}

// ReadFastq parses all records from r. Ambiguity codes are handled per opts
// exactly as in ReadFasta.
func ReadFastq(r io.Reader, opts FastaOptions) ([]FastqRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []FastqRecord
	line := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			b := bytes.TrimSpace(sc.Bytes())
			if len(b) > 0 {
				return b, true
			}
		}
		return nil, false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if hdr[0] != '@' {
			return nil, fmt.Errorf("dna: fastq line %d: expected @header, got %q", line, hdr)
		}
		name := string(bytes.Fields(hdr[1:])[0])
		seqLine, ok := next()
		if !ok {
			return nil, fmt.Errorf("dna: fastq: truncated record %q", name)
		}
		plus, ok := next()
		if !ok || plus[0] != '+' {
			return nil, fmt.Errorf("dna: fastq line %d: expected '+' separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("dna: fastq: missing quality for %q", name)
		}
		if len(qual) != len(seqLine) {
			return nil, fmt.Errorf("dna: fastq record %q: quality length %d != sequence length %d", name, len(qual), len(seqLine))
		}
		seq := make(Seq, len(seqLine))
		for i, ch := range seqLine {
			b, ok := BaseFromChar(ch)
			if !ok {
				if opts.ResolveN == nil {
					return nil, fmt.Errorf("dna: fastq record %q: invalid base %q", name, ch)
				}
				b = Base(opts.ResolveN.Intn(NumBases))
			}
			seq[i] = b
		}
		recs = append(recs, FastqRecord{Name: name, Seq: seq, Qual: append([]byte(nil), qual...)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dna: reading fastq: %w", err)
	}
	return recs, nil
}

// WriteFastq writes records to w.
func WriteFastq(w io.Writer, recs []FastqRecord) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		qual := rec.Qual
		if qual == nil {
			qual = bytes.Repeat([]byte{'I'}, len(rec.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}
