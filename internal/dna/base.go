// Package dna provides the DNA sequence substrate shared by the whole
// repository: the 2-bit base alphabet, the one-base-per-byte sequence type,
// reverse complement, k-mer encoding, and FASTA/FASTQ input and output.
//
// Every higher layer (the Silla automata, the seeding accelerator, the
// Smith-Waterman baselines, the read simulator) works on []Base values so
// that comparisons are single-byte equality checks, exactly like the 2-bit
// comparators in the GenAx hardware.
package dna

import "fmt"

// Base is a single nucleotide encoded in two bits: A=0, C=1, G=2, T=3.
// The zero value is 'A'.
type Base byte

// The four nucleotides.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

var baseToChar = [NumBases]byte{'A', 'C', 'G', 'T'}

// charToBase maps ASCII to Base; 0xFF marks invalid characters.
var charToBase [256]byte

func init() {
	for i := range charToBase {
		charToBase[i] = 0xFF
	}
	for b, c := range baseToChar {
		charToBase[c] = byte(b)
		charToBase[c+'a'-'A'] = byte(b)
	}
}

// Char returns the upper-case ASCII letter for b.
func (b Base) Char() byte { return baseToChar[b&3] }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseToChar[b&3]) }

// Complement returns the Watson-Crick complement (A<->T, C<->G).
// With the 2-bit encoding this is simply the bitwise NOT of the low bits.
func (b Base) Complement() Base { return b ^ 3 }

// BaseFromChar converts an ASCII nucleotide letter (either case) to a Base.
// It reports ok=false for any character outside ACGTacgt (including 'N').
func BaseFromChar(c byte) (Base, bool) {
	v := charToBase[c]
	if v == 0xFF {
		return 0, false
	}
	return Base(v), true
}

// Seq is an unpacked DNA sequence, one Base per byte: the representation
// used throughout the aligners.
type Seq []Base

// ParseSeq converts an ASCII string to a Seq. Characters outside ACGT
// (case-insensitive) cause an error identifying the offending position.
func ParseSeq(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		b, ok := BaseFromChar(s[i])
		if !ok {
			return nil, fmt.Errorf("dna: invalid base %q at position %d", s[i], i)
		}
		out[i] = b
	}
	return out, nil
}

// MustParseSeq is ParseSeq that panics on error; intended for tests and
// example programs with literal inputs.
func MustParseSeq(s string) Seq {
	q, err := ParseSeq(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the sequence as ASCII.
func (s Seq) String() string {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = b.Char()
	}
	return string(out)
}

// Clone returns a copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// RevComp returns the reverse complement of s as a new sequence.
func (s Seq) RevComp() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// Equal reports whether two sequences are identical.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Reverse returns the plain reversal of s (no complementing) — used when a
// left extension is run on reversed strings.
func (s Seq) Reverse() Seq {
	return AppendReverse(make(Seq, 0, len(s)), s)
}

// AppendReverse appends the plain reversal of s to dst and returns the
// extended slice, letting hot paths reverse into a reused scratch buffer.
func AppendReverse(dst, s Seq) Seq {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, s[i])
	}
	return dst
}

// AppendRevComp appends the reverse complement of s to dst and returns the
// extended slice — the scratch-reusing form of RevComp for hot paths that
// complement many reads into one backing buffer.
func AppendRevComp(dst, s Seq) Seq {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, s[i].Complement())
	}
	return dst
}
