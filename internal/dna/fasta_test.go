package dna

import (
	"bytes"
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
	if _, err := ReadFasta(strings.NewReader("ACGT\n"), FastaOptions{}); err == nil {
		t.Error("sequence before header accepted")
	}
	if _, err := ReadFasta(strings.NewReader(""), FastaOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadFasta(strings.NewReader(">x\nACNT\n"), FastaOptions{}); err == nil {
		t.Error("N accepted without ResolveN")
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

func TestReadFastq(t *testing.T) {
	in := "@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+anything\nJJ\n"
	recs, err := ReadFastq(strings.NewReader(in), FastaOptions{})
	if err != nil {
		t.Fatalf("ReadFastq: %v", err)
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

func TestReadFastqErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",                  // no header
		"@r1\nACGT\n+\nIII\n",     // qual length mismatch
		"@r1\nACGT\nIIII\nIIII\n", // missing +
		"@r1\nACGT\n",             // truncated
	}
	for _, in := range cases {
		if _, err := ReadFastq(strings.NewReader(in), FastaOptions{}); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestFastqRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := []FastqRecord{
		{Name: "x", Seq: randSeq(r, 101), Qual: bytes.Repeat([]byte{'F'}, 101)},
		{Name: "y", Seq: randSeq(r, 5)}, // nil qual -> default
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatalf("WriteFastq: %v", err)
	}
	back, err := ReadFastq(&buf, FastaOptions{})
	if err != nil {
		t.Fatalf("ReadFastq: %v", err)
	}
	if len(back) != 2 || !back[0].Seq.Equal(recs[0].Seq) || !back[1].Seq.Equal(recs[1].Seq) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if string(back[1].Qual) != strings.Repeat("I", 5) {
		t.Errorf("default qual = %q", back[1].Qual)
	}
}
