package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

// TestAlignReadsMatchesBatch streams a FASTQ of many windows through
// alignReads and requires exactly the records the batch path gives for the
// same reads: every result under its own read's name, in input order.
// Appending a malformed record must end the run with an error only after
// every earlier record has been written.
func TestAlignReadsMatchesBatch(t *testing.T) {
	wl := sim.NewWorkload(5, 30_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 2, ErrorRate: 0.02, ReverseFraction: 0.5})
	cfg := core.DefaultConfig()
	cfg.SegmentLen = 8192
	cfg.StreamWindow = 7
	cfg.Workers = 2
	a, err := core.New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]dna.FastqRecord, len(wl.Reads))
	reads := make([]dna.Seq, len(wl.Reads))
	for i, rd := range wl.Reads {
		recs[i] = dna.FastqRecord{Name: rd.ID, Seq: rd.Seq}
		reads[i] = rd.Seq
	}
	var fq bytes.Buffer
	if err := dna.WriteFastq(&fq, recs); err != nil {
		t.Fatal(err)
	}
	results, batchStats := a.AlignBatch(reads)
	var want bytes.Buffer
	ww := bufio.NewWriter(&want)
	for i, rr := range results {
		writeRecord(ww, recs[i].Name, "ref", rr)
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}

	run := func(in string) (string, *core.Stats, error) {
		var got bytes.Buffer
		w := bufio.NewWriter(&got)
		st, err := alignReads(a, dna.NewFastqReader(strings.NewReader(in), dna.FastaOptions{}), "ref", w)
		if ferr := w.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		return got.String(), st, err
	}
	got, st, err := run(fq.String())
	if err != nil {
		t.Fatalf("alignReads: %v", err)
	}
	if got != want.String() {
		t.Fatalf("streamed records differ from the batch path's (%d vs %d bytes)", len(got), want.Len())
	}
	if st.Reads != batchStats.Reads || st.Aligned != batchStats.Aligned || st.Extensions != batchStats.Extensions {
		t.Errorf("stats %d reads %d aligned %d extensions, batch %d %d %d",
			st.Reads, st.Aligned, st.Extensions, batchStats.Reads, batchStats.Aligned, batchStats.Extensions)
	}

	got, _, err = run(fq.String() + "@broken\nACGT\n")
	if err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("malformed tail: error %v, want the missing separator", err)
	}
	if got != want.String() {
		t.Fatalf("malformed tail: %d bytes written before the error, want all %d", len(got), want.Len())
	}
}
