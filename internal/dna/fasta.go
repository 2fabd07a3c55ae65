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
	in := newLines(r)
	var recs []FastaRecord
	var cur *FastaRecord
	for raw, ok := in.next(); ok; raw, ok = in.next() {
		if raw[0] == '>' {
			name, ok := recordName(raw)
			if !ok {
				return nil, fmt.Errorf("dna: fasta line %d: header has no name", in.n)
			}
			recs = append(recs, FastaRecord{Name: name})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("dna: fasta line %d: sequence data before first header", in.n)
		}
		var bad byte
		if cur.Seq, bad, ok = opts.appendBases(cur.Seq, raw); !ok {
			return nil, fmt.Errorf("dna: fasta line %d: invalid base %q", in.n, bad)
		}
	}
	if err := in.sc.Err(); err != nil {
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

// FastqReader reads FASTQ records one at a time, in the shape of
// bufio.Scanner, so any file reads in bounded memory. Ambiguity codes are
// handled per opts exactly as in ReadFasta, in file order.
type FastqReader struct {
	in   *lines
	opts FastaOptions
	rec  FastqRecord
	err  error
}

// NewFastqReader returns a reader over the FASTQ records of r.
func NewFastqReader(r io.Reader, opts FastaOptions) *FastqReader {
	return &FastqReader{in: newLines(r), opts: opts}
}

// Record returns the record the last true Next parsed; the caller may keep it.
func (fr *FastqReader) Record() FastqRecord { return fr.rec }

// Err returns the error that ended Next, or nil at a clean end of input.
func (fr *FastqReader) Err() error { return fr.err }

// Next parses the next record. It returns false at the end of input or on
// the first error.
func (fr *FastqReader) Next() bool {
	if fr.err == nil {
		fr.rec, fr.err = fr.parse()
	}
	return fr.err == nil && fr.rec.Name != ""
}

// parse reads one record; at a clean end of input it returns the zero
// record, whose Name is empty.
func (fr *FastqReader) parse() (FastqRecord, error) {
	hdr, ok := fr.in.next()
	if !ok {
		if err := fr.in.sc.Err(); err != nil {
			return FastqRecord{}, fmt.Errorf("dna: reading fastq: %w", err)
		}
		return FastqRecord{}, nil
	}
	if hdr[0] != '@' {
		return FastqRecord{}, fmt.Errorf("dna: fastq line %d: expected @header, got %q", fr.in.n, hdr)
	}
	name, ok := recordName(hdr)
	if !ok {
		return FastqRecord{}, fmt.Errorf("dna: fastq line %d: header has no name", fr.in.n)
	}
	seqLine, ok := fr.in.next()
	if !ok {
		return FastqRecord{}, fmt.Errorf("dna: fastq: truncated record %q", name)
	}
	// Convert now: the scanner may reuse seqLine's bytes for the lines below.
	seq, bad, ok := fr.opts.appendBases(make(Seq, 0, len(seqLine)), seqLine)
	if !ok {
		return FastqRecord{}, fmt.Errorf("dna: fastq record %q: invalid base %q", name, bad)
	}
	plus, ok := fr.in.next()
	if !ok || plus[0] != '+' {
		return FastqRecord{}, fmt.Errorf("dna: fastq line %d: expected '+' separator", fr.in.n)
	}
	qual, ok := fr.in.next()
	if !ok {
		return FastqRecord{}, fmt.Errorf("dna: fastq: missing quality for %q", name)
	}
	if len(qual) != len(seq) {
		return FastqRecord{}, fmt.Errorf("dna: fastq record %q: quality length %d != sequence length %d", name, len(qual), len(seq))
	}
	return FastqRecord{Name: name, Seq: seq, Qual: append([]byte(nil), qual...)}, nil
}

const lineBuffer = 1 << 20 // both readers' initial line buffer

// lines yields the trimmed, non-blank lines of FASTA or FASTQ input; n
// counts every line read, for error messages.
type lines struct {
	sc *bufio.Scanner
	n  int
}

func newLines(r io.Reader) *lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, lineBuffer), 1<<26)
	return &lines{sc: sc}
}

// next returns the next non-blank line, trimmed. The slice is valid only
// until the following call.
func (l *lines) next() ([]byte, bool) {
	for l.sc.Scan() {
		l.n++
		if b := bytes.TrimSpace(l.sc.Bytes()); len(b) > 0 {
			return b, true
		}
	}
	return nil, false
}

// recordName returns the first word after a header line's marker byte,
// and false when the header carries none.
func recordName(hdr []byte) (string, bool) {
	f := bytes.Fields(hdr[1:])
	if len(f) == 0 {
		return "", false
	}
	return string(f[0]), true
}

// appendBases appends raw's bases to dst, resolving ambiguity codes per
// o. It returns false and the offending byte when o forbids one.
func (o FastaOptions) appendBases(dst Seq, raw []byte) (Seq, byte, bool) {
	for _, ch := range raw {
		b, ok := BaseFromChar(ch)
		if !ok {
			if o.ResolveN == nil {
				return dst, ch, false
			}
			b = Base(o.ResolveN.Intn(NumBases))
		}
		dst = append(dst, b)
	}
	return dst, 0, true
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
