package dna

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadFasta(t *testing.T) {
	in := ">chr1 description here\nACGT\nacgt\n\n>chr2\nTTTT\n"
	recs, err := ReadFasta(strings.NewReader(in), FastaOptions{})
	if err != nil {
		t.Fatalf("ReadFasta: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "chr1" || recs[0].Seq.String() != "ACGTACGT" {
		t.Errorf("rec0 = %q %q", recs[0].Name, recs[0].Seq)
	}
	if recs[1].Name != "chr2" || recs[1].Seq.String() != "TTTT" {
		t.Errorf("rec1 = %q %q", recs[1].Name, recs[1].Seq)
	}
}

func TestReadFastaErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"ACGT\n", "line 1"},         // sequence before header
		{"", "no records"},           // empty input
		{">x\nACNT\n", "line 2"},     // N without ResolveN
		{">\nACGT\n", "line 1"},      // header with no name
		{">x\nAC\n> \t\n", "line 3"}, // blank header after a record
	} {
		_, err := ReadFasta(strings.NewReader(tc.in), FastaOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error %v, want one mentioning %q", tc.in, err, tc.want)
		}
	}
}

func TestReadFastaResolveN(t *testing.T) {
	recs, err := ReadFasta(strings.NewReader(">x\nANNT\n"), FastaOptions{ResolveN: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatalf("ReadFasta: %v", err)
	}
	if len(recs[0].Seq) != 4 {
		t.Fatalf("len = %d", len(recs[0].Seq))
	}
	if recs[0].Seq[0] != A || recs[0].Seq[3] != T {
		t.Errorf("non-N bases altered: %v", recs[0].Seq)
	}
}

// TestReadRef pins the one reference loader: contigs concatenated in file
// order, the first record's name, and ambiguity codes resolved the same way
// on every load, so two binaries hash the same file to the same cache key.
func TestReadRef(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ref.fasta")
	if err := os.WriteFile(path, []byte(">chr1\nACNNGT\n>chr2\nTTNA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ref, name, err := ReadRef(path)
	if err != nil {
		t.Fatalf("ReadRef: %v", err)
	}
	again, _, err := ReadRef(path)
	if err != nil {
		t.Fatalf("ReadRef: %v", err)
	}
	if name != "chr1" || len(ref) != 10 || !ref.Equal(again) {
		t.Fatalf("ReadRef = %q %v, then %v", name, ref, again)
	}
	if got := ref[:2].String() + ref[4:8].String() + ref[9:].String(); got != "ACGTTTA" {
		t.Errorf("unambiguous bases %q, want ACGTTTA", got)
	}
	if _, _, err := ReadRef(filepath.Join(t.TempDir(), "missing.fasta")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFastaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	recs := []FastaRecord{
		{Name: "a", Seq: randSeq(r, 137)},
		{Name: "b", Seq: randSeq(r, 60)},
		{Name: "c", Seq: randSeq(r, 1)},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 50); err != nil {
		t.Fatalf("WriteFasta: %v", err)
	}
	back, err := ReadFasta(&buf, FastaOptions{})
	if err != nil {
		t.Fatalf("ReadFasta: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || !back[i].Seq.Equal(recs[i].Seq) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// readFastq drains a FastqReader: the records it accepted, then its error.
func readFastq(r io.Reader, opts FastaOptions) ([]FastqRecord, error) {
	fr := NewFastqReader(r, opts)
	var recs []FastqRecord
	for fr.Next() {
		recs = append(recs, fr.Record())
	}
	return recs, fr.Err()
}

func TestReadFastq(t *testing.T) {
	in := "@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+anything\nJJ\n"
	recs, err := readFastq(strings.NewReader(in), FastaOptions{})
	if err != nil {
		t.Fatalf("FastqReader: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Name != "r1" || recs[0].Seq.String() != "ACGT" || string(recs[0].Qual) != "IIII" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].Name != "r2" || recs[1].Seq.String() != "TT" {
		t.Errorf("rec1 = %+v", recs[1])
	}
}

// TestReadFastqErrors checks that each malformed input stops the reader
// with an error, after it has yielded the records before it.
func TestReadFastqErrors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		good int // records accepted before the error
		want string
	}{
		{"ACGT\n", 0, "line 1"},                        // no header
		{"@r1\nACGT\n+\nIII\n", 0, "quality length"},   // qual length mismatch
		{"@r1\nACGT\nIIII\nIIII\n", 0, "line 3"},       // missing +
		{"@r1\n", 0, "truncated"},                      // truncated
		{"@r1\nACGT\n", 0, "line 2"},                   // no separator
		{"@r1\nACNT\n+\nIIII\n", 0, "invalid base"},    // N without ResolveN
		{"@\nACGT\n+\nIIII\n", 0, "line 1"},            // header with no name
		{"@r1\nA\n+\nI\n@ \t\nA\n+\nI\n", 1, "line 5"}, // blank header mid-file
	} {
		recs, err := readFastq(strings.NewReader(tc.in), FastaOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error %v, want one mentioning %q", tc.in, err, tc.want)
		}
		if len(recs) != tc.good {
			t.Errorf("input %q: %d records before the error, want %d", tc.in, len(recs), tc.good)
		}
	}
}

// TestFastqRoundTrip writes records and reads them back. The large set
// spans several refills of the reader's line buffer, and the first refill
// falls inside a quality line, after its record's sequence line was read:
// the sequence must not alias the buffer.
func TestFastqRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := []FastqRecord{
		{Name: "x", Seq: randSeq(r, 101), Qual: bytes.Repeat([]byte{'F'}, 101)},
		{Name: "y", Seq: randSeq(r, 5)}, // nil qual -> default
	}
	for i := 0; i < 12000; i++ {
		recs = append(recs, FastqRecord{Name: fmt.Sprintf("read%06d", i), Seq: randSeq(r, 101)})
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatalf("WriteFastq: %v", err)
	}
	if line := bytes.Count(buf.Bytes()[:lineBuffer], []byte("\n")); line%4 != 3 {
		t.Fatalf("the first buffer refill falls in line %d, want a quality line", line)
	}
	back, err := readFastq(&buf, FastaOptions{})
	if err != nil {
		t.Fatalf("FastqReader: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || !back[i].Seq.Equal(recs[i].Seq) {
			t.Fatalf("record %d: got %s %v, want %s %v", i, back[i].Name, back[i].Seq, recs[i].Name, recs[i].Seq)
		}
	}
	if string(back[1].Qual) != strings.Repeat("I", 5) {
		t.Errorf("default qual = %q", back[1].Qual)
	}
}
