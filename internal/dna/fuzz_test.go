package dna

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzFastqReader feeds arbitrary bytes to the FASTQ reader, strict and
// with ambiguity codes resolved. It must not panic; every record it
// accepts has a name and a quality string as long as its sequence; and
// WriteFastq followed by a strict read gives back exactly those records.
// The checked-in corpus (testdata/fuzz/FuzzFastqReader) is replayed by a
// plain go test.
func FuzzFastqReader(f *testing.F) {
	f.Add([]byte("@r1 extra\nACGT\n+\nIIII\n@r2\nTT\n+anything\nJJ\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []FastaOptions{{}, {ResolveN: rand.New(rand.NewSource(1))}} {
			recs, _ := readFastq(bytes.NewReader(data), opts)
			for i, r := range recs {
				if r.Name == "" || len(r.Qual) != len(r.Seq) {
					t.Fatalf("record %d: name %q, %d quality bytes for %d bases", i, r.Name, len(r.Qual), len(r.Seq))
				}
			}
			var buf bytes.Buffer
			if err := WriteFastq(&buf, recs); err != nil {
				t.Fatal(err)
			}
			back, err := readFastq(&buf, FastaOptions{})
			if err != nil {
				t.Fatalf("re-reading %d written records: %v", len(recs), err)
			}
			if len(back) != len(recs) {
				t.Fatalf("wrote %d records, read back %d", len(recs), len(back))
			}
			for i := range recs {
				if back[i].Name != recs[i].Name || !back[i].Seq.Equal(recs[i].Seq) || !bytes.Equal(back[i].Qual, recs[i].Qual) {
					t.Fatalf("record %d: wrote %+v, read back %+v", i, recs[i], back[i])
				}
			}
		}
	})
}

// FuzzReadFasta is FuzzFastqReader for ReadFasta: no panic, every
// accepted record named, and WriteFasta followed by ReadFasta gives back
// the accepted records. Its corpus is testdata/fuzz/FuzzReadFasta.
func FuzzReadFasta(f *testing.F) {
	f.Add([]byte(">chr1 description here\nACGT\nacgt\n\n>chr2\nTTTT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []FastaOptions{{}, {ResolveN: rand.New(rand.NewSource(1))}} {
			recs, err := ReadFasta(bytes.NewReader(data), opts)
			if err != nil {
				continue
			}
			for i, r := range recs {
				if r.Name == "" {
					t.Fatalf("record %d has no name", i)
				}
			}
			var buf bytes.Buffer
			if err := WriteFasta(&buf, recs, 0); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFasta(&buf, FastaOptions{})
			if err != nil {
				t.Fatalf("re-reading %d written records: %v", len(recs), err)
			}
			if len(back) != len(recs) {
				t.Fatalf("wrote %d records, read back %d", len(recs), len(back))
			}
			for i := range recs {
				if back[i].Name != recs[i].Name || !back[i].Seq.Equal(recs[i].Seq) {
					t.Fatalf("record %d: wrote %+v, read back %+v", i, recs[i], back[i])
				}
			}
		}
	})
}
