package bitsilla

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// wideSuffixBoundRef is the suffix table of wideSuffixBound filled cell by
// cell, every lattice edge tested at every cell: the plain recurrence the
// row kernel must reproduce exactly. It returns a fresh table in the same
// layout, (qPos*(2h+1) + j)*3 + state.
func wideSuffixBoundRef(cs sillax.Costs, h int, ref, query dna.Seq) []int32 {
	n, qn := len(ref), len(query)
	a, b, open, ext := cs.A, cs.B, cs.Open, cs.Ext
	w := 2*h + 1
	tab := make([]int32, (qn+1)*w*3)
	// Query exhausted: nothing can close (a close consumes query), so
	// gap states have no future and closed states gain nothing more.
	for j := 0; j < w; j++ {
		r := qn + j - h
		o := (qn*w + j) * 3
		if r < 0 || r > n {
			tab[o], tab[o+1], tab[o+2] = wideSuffixFree, wideSuffixFree, wideSuffixFree
			continue
		}
		tab[o], tab[o+1], tab[o+2] = 0, negScore, negScore
	}
	for q := qn - 1; q >= 0; q-- {
		row, nxt := q*w*3, (q+1)*w*3
		for j := w - 1; j >= 0; j-- {
			r := q + j - h
			o := row + j*3
			if r < 0 || r > n {
				tab[o], tab[o+1], tab[o+2] = wideSuffixFree, wideSuffixFree, wideSuffixFree
				continue
			}
			// Close: consume both, same diagonal in the next row.
			dg := int32(negScore)
			if r < n {
				nm := tab[nxt+j*3]
				if ref[r]&3 == query[q]&3 {
					dg = nm + a
				} else {
					dg = nm - b
				}
			}
			// Insertion entry: consume query, one diagonal down in the
			// next row. A band exit is machine-illegal, never bounded.
			uin := int32(negScore)
			if j > 0 {
				uin = tab[nxt+(j-1)*3+1]
			}
			// Deletion entry: consume ref, within this row; computed
			// first by the descending sweep.
			udn := int32(negScore)
			if r < n && j+1 < w {
				udn = tab[row+(j+1)*3+2]
			}
			um := int32(0)
			if dg > um {
				um = dg
			}
			ui, ud := dg, dg
			if v := uin - open; v > um {
				um = v
			}
			if v := udn - open; v > um {
				um = v
			}
			if v := uin - ext; v > ui {
				ui = v
			}
			if v := udn - open; v > ui {
				ui = v
			}
			if v := uin - open; v > ud {
				ud = v
			}
			if v := udn - ext; v > ud {
				ud = v
			}
			tab[o], tab[o+1], tab[o+2] = um, ui, ud
		}
	}
	return tab
}

// FuzzSuffixBoundVsRef compares the row kernel's suffix table with the
// reference recurrence cell for cell, over fuzzed sequences, edit bound,
// band half-width h <= K (mapped from its byte) and scoring (mapped as in
// FuzzBitsillaScoringVsSillaX). Each machine first fills a table of
// another shape, so a cell the kernel skips shows up as stale. The f.Add
// seeds are its checked-in corpus, replayed by plain go test.
func FuzzSuffixBoundVsRef(f *testing.F) {
	// A row's top cell at r == n, whose insertion and deletion entries
	// floor at negScore (the last query row reads the exhausted row's
	// negScore); rows wholly off the lattice (qn > n + h); h = 0; h = K;
	// an empty reference; an empty query; and a long-read-like shape.
	f.Add(uint8(8), uint8(2), uint8(0), uint8(3), uint8(5), uint8(0),
		fuzzBases("ACGTAC"), fuzzBases("ACGTACGT"))
	f.Add(uint8(8), uint8(1), uint8(0), uint8(3), uint8(5), uint8(0),
		fuzzBases("AC"), fuzzBases("ACGTACGTACGT"))
	f.Add(uint8(6), uint8(0), uint8(1), uint8(2), uint8(3), uint8(1),
		fuzzBases("ACGTTGCA"), fuzzBases("ACGATGCA"))
	f.Add(uint8(5), uint8(5), uint8(0), uint8(4), uint8(6), uint8(1),
		fuzzBases("ACGTACGTTT"), fuzzBases("ACGTTACGT"))
	f.Add(uint8(4), uint8(3), uint8(0), uint8(3), uint8(5), uint8(0),
		[]byte{}, fuzzBases("ACGT"))
	f.Add(uint8(4), uint8(3), uint8(0), uint8(3), uint8(5), uint8(0),
		fuzzBases("ACGT"), []byte{})
	f.Add(uint8(80), uint8(80), uint8(0), uint8(3), uint8(5), uint8(0),
		fuzzBases("ACGTACGTACGTACGTACGTAACCGGTTACGTACGTACGTACGTTTGCA"),
		fuzzBases("ACGTACGTACTACGTACGTAACCGGTTACGTACGGACGTACGTTTGC"))
	f.Fuzz(func(t *testing.T, kRaw, hRaw, ma, mm, gOpen, gExt uint8, refB, qB []byte) {
		k := int(kRaw) % 192
		h := int(hRaw) % (k + 1)
		sc := align.Scoring{
			Match:     1 + int(ma)%4,
			Mismatch:  int(mm) % 8,
			GapOpen:   int(gOpen) % 16,
			GapExtend: 1 + int(gExt)%4,
		}
		ref, query := fuzzSeq(refB, 300), fuzzSeq(qB, 300)
		m := New(k, sc)
		m.wide.band = k - h
		m.wideSuffixBound(query, ref)
		m.wide.band = h
		m.wideSuffixBound(ref, query)
		got, want := m.wide.stab, wideSuffixBoundRef(m.cs, h, ref, query)
		if len(got) != len(want) {
			t.Fatalf("k=%d h=%d: table has %d entries, want %d", k, h, len(got), len(want))
		}
		for o := range want {
			if got[o] != want[o] {
				w := 2*h + 1
				q, j := o/3/w, o/3%w
				t.Fatalf("k=%d h=%d %+v ref=%v query=%v: cell q=%d r=%d state %d is %d, want %d",
					k, h, sc, ref, query, q, q+j-h, o%3, got[o], want[o])
			}
		}
	})
}

// BenchmarkWideSuffixBound times the bound pass alone at long_k80's shape:
// a 1 200 bp query at 2 % error against 1 280 reference bases, K = h = 80,
// so the table is 1 201 rows of 161 cells. ns/op divided by 193 361 cells
// is the cost of one cell.
func BenchmarkWideSuffixBound(b *testing.B) {
	r := rand.New(rand.NewSource(100))
	ref := randSeq(r, 1280)
	query := mutateRate(r, ref[:1200], 0.02, 0.3)
	m := New(80, align.BWAMEMDefaults())
	m.wide.band = 80
	m.wideSuffixBound(ref, query) // size the table and the profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.wideSuffixBound(ref, query)
	}
}
