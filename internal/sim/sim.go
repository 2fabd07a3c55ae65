// Package sim generates the synthetic workloads that stand in for the
// paper's GRCh38 reference and Illumina platinum reads (§VII): a random
// reference genome, a donor genome derived from it by variant injection
// (SNPs and short indels), and Illumina-style reads sampled from the donor
// with a per-base sequencing-error model and ground-truth labels.
package sim

import (
	"fmt"
	"math/rand"

	"genax/internal/dna"
)

// RandomGenome returns a uniform random genome of n bases.
func RandomGenome(r *rand.Rand, n int) dna.Seq {
	g := make(dna.Seq, n)
	for i := range g {
		g[i] = dna.Base(r.Intn(dna.NumBases))
	}
	return g
}

// VariantType distinguishes injected variants.
type VariantType int

// Variant kinds.
const (
	SNP VariantType = iota
	Insertion
	Deletion
)

// Variant is one difference between the donor and the reference.
type Variant struct {
	// RefPos is the 0-based reference position the variant applies at.
	RefPos int
	Type   VariantType
	// Alt is the substituted or inserted sequence (nil for deletions).
	Alt dna.Seq
	// DelLen is the number of reference bases deleted.
	DelLen int
}

// VariantProfile controls variant injection rates (events per base).
type VariantProfile struct {
	SNPRate   float64 // human-like default ~0.001
	IndelRate float64 // ~0.0001
	MaxIndel  int     // maximum indel length (default 8)
}

// DefaultVariantProfile matches human germline variation rates.
func DefaultVariantProfile() VariantProfile {
	return VariantProfile{SNPRate: 0.001, IndelRate: 0.0001, MaxIndel: 8}
}

// Donor is a variant-carrying genome with the reference coordinate map
// needed to score alignments against ground truth.
type Donor struct {
	Seq      dna.Seq
	Variants []Variant
	// refPosOf[i] = reference coordinate that donor base i aligns to
	// (for inserted bases: the position of the next reference base).
	refPosOf []int32
}

// RefPos maps a donor coordinate to its reference coordinate.
func (d *Donor) RefPos(donorPos int) int {
	if donorPos < 0 || donorPos >= len(d.refPosOf) {
		return -1
	}
	return int(d.refPosOf[donorPos])
}

// MakeDonor injects variants into ref according to the profile.
func MakeDonor(r *rand.Rand, ref dna.Seq, p VariantProfile) *Donor {
	if p.MaxIndel < 1 {
		p.MaxIndel = 8
	}
	d := &Donor{}
	i := 0
	for i < len(ref) {
		roll := r.Float64()
		switch {
		case roll < p.SNPRate:
			alt := dna.Base((int(ref[i]) + 1 + r.Intn(3)) % 4)
			d.Variants = append(d.Variants, Variant{RefPos: i, Type: SNP, Alt: dna.Seq{alt}})
			d.Seq = append(d.Seq, alt)
			d.refPosOf = append(d.refPosOf, int32(i))
			i++
		case roll < p.SNPRate+p.IndelRate/2:
			l := 1 + r.Intn(p.MaxIndel)
			ins := RandomGenome(r, l)
			d.Variants = append(d.Variants, Variant{RefPos: i, Type: Insertion, Alt: ins})
			for _, b := range ins {
				d.Seq = append(d.Seq, b)
				d.refPosOf = append(d.refPosOf, int32(i))
			}
		case roll < p.SNPRate+p.IndelRate:
			l := 1 + r.Intn(p.MaxIndel)
			if i+l > len(ref) {
				l = len(ref) - i
			}
			d.Variants = append(d.Variants, Variant{RefPos: i, Type: Deletion, DelLen: l})
			i += l
		default:
			d.Seq = append(d.Seq, ref[i])
			d.refPosOf = append(d.refPosOf, int32(i))
			i++
		}
	}
	return d
}

// ReadProfile configures read simulation.
type ReadProfile struct {
	Length    int     // 101 for Illumina short reads in the paper
	Coverage  float64 // mean coverage depth (50x in the paper's dataset)
	ErrorRate float64 // per-base sequencing error (~2% worst case)
	// IndelErrorFrac is the fraction of sequencing errors that are
	// single-base indels instead of substitutions (small on Illumina;
	// raise it to stress CIGAR-diverse traceback paths).
	IndelErrorFrac float64
	// ReverseFraction of reads are drawn from the reverse strand (0.5).
	ReverseFraction float64
}

// DefaultReadProfile matches the paper's ERR194147 workload shape.
func DefaultReadProfile() ReadProfile {
	return ReadProfile{Length: 101, Coverage: 5, ErrorRate: 0.02, ReverseFraction: 0.5}
}

// Read is a simulated read with ground truth.
type Read struct {
	ID  string
	Seq dna.Seq
	// TruePos is the reference coordinate of the read's first donor base
	// (of the forward-strand orientation).
	TruePos int
	// Reverse marks reverse-strand reads (Seq is the reverse complement
	// of the donor fragment).
	Reverse bool
	// Errors is the number of sequencing errors injected.
	Errors int
}

// Simulate draws reads from the donor at the configured coverage.
func Simulate(r *rand.Rand, donor *Donor, p ReadProfile) []Read {
	if p.Length <= 0 || len(donor.Seq) < p.Length {
		return nil
	}
	n := int(p.Coverage * float64(len(donor.Seq)) / float64(p.Length))
	margin := 8 // slack so indel errors keep the read at full length
	if len(donor.Seq) < p.Length+margin {
		margin = 0
	}
	reads := make([]Read, 0, n)
	for i := 0; i < n; i++ {
		start := r.Intn(len(donor.Seq) - p.Length - margin + 1)
		src := donor.Seq[start : start+p.Length+margin]
		frag := make(dna.Seq, 0, p.Length)
		errs := 0
		for si := 0; len(frag) < p.Length && si < len(src); {
			if r.Float64() >= p.ErrorRate {
				frag = append(frag, src[si])
				si++
				continue
			}
			errs++
			if margin > 0 && r.Float64() < p.IndelErrorFrac {
				if r.Intn(2) == 0 {
					// Insertion error: emit a random base, keep cursor.
					frag = append(frag, dna.Base(r.Intn(dna.NumBases)))
				} else {
					// Deletion error: skip a donor base.
					si++
				}
				continue
			}
			frag = append(frag, dna.Base((int(src[si])+1+r.Intn(3))%4))
			si++
		}
		for len(frag) < p.Length { // ran off the margin: pad randomly
			frag = append(frag, dna.Base(r.Intn(dna.NumBases)))
		}
		rd := Read{
			ID:      fmt.Sprintf("read%06d", i),
			TruePos: donor.RefPos(start),
			Errors:  errs,
		}
		if r.Float64() < p.ReverseFraction {
			rd.Seq = frag.RevComp()
			rd.Reverse = true
		} else {
			rd.Seq = frag
		}
		reads = append(reads, rd)
	}
	return reads
}

// LongReadProfile configures long-read simulation (PacBio/ONT-style:
// kilobase fragments, error rates an order of magnitude above Illumina,
// indel-dominated error spectra).
type LongReadProfile struct {
	// MeanLength is the target mean read length; individual reads are
	// drawn uniformly from [MeanLength/2, 3*MeanLength/2).
	MeanLength int
	// MinLength floors the draw (default MeanLength/2).
	MinLength int
	Coverage  float64 // mean coverage depth
	ErrorRate float64 // per-base sequencing error (~10% on older chemistry)
	// IndelErrorFrac is the fraction of errors that are single-base
	// indels; long-read platforms are indel-dominated (~0.7).
	IndelErrorFrac float64
	// ReverseFraction of reads are drawn from the reverse strand (0.5).
	ReverseFraction float64
}

// SimulateLong draws variable-length long reads from the donor. The error
// loop is the Illumina model's, applied per base over kilobase spans with
// a proportional margin, so indel-heavy reads still come out full length.
func SimulateLong(r *rand.Rand, donor *Donor, p LongReadProfile) []Read {
	if p.MeanLength <= 0 {
		return nil
	}
	minLen := p.MinLength
	if minLen <= 0 {
		minLen = p.MeanLength / 2
		if minLen < 1 {
			minLen = 1
		}
	}
	if len(donor.Seq) < minLen {
		return nil
	}
	n := int(p.Coverage * float64(len(donor.Seq)) / float64(p.MeanLength))
	reads := make([]Read, 0, n)
	for i := 0; i < n; i++ {
		length := minLen + r.Intn(p.MeanLength+1)
		if length > len(donor.Seq) {
			length = len(donor.Seq)
		}
		// Margin proportional to the expected deletion-error count, so a
		// read drawn near the donor end still fills without random pad.
		margin := int(float64(length)*p.ErrorRate*p.IndelErrorFrac) + 8
		if length+margin > len(donor.Seq) {
			margin = len(donor.Seq) - length
		}
		start := r.Intn(len(donor.Seq) - length - margin + 1)
		src := donor.Seq[start : start+length+margin]
		frag := make(dna.Seq, 0, length)
		errs := 0
		for si := 0; len(frag) < length && si < len(src); {
			if r.Float64() >= p.ErrorRate {
				frag = append(frag, src[si])
				si++
				continue
			}
			errs++
			if margin > 0 && r.Float64() < p.IndelErrorFrac {
				if r.Intn(2) == 0 {
					frag = append(frag, dna.Base(r.Intn(dna.NumBases)))
				} else {
					si++
				}
				continue
			}
			frag = append(frag, dna.Base((int(src[si])+1+r.Intn(3))%4))
			si++
		}
		for len(frag) < length { // ran off the margin: pad randomly
			frag = append(frag, dna.Base(r.Intn(dna.NumBases)))
		}
		rd := Read{
			ID:      fmt.Sprintf("long%06d", i),
			TruePos: donor.RefPos(start),
			Errors:  errs,
		}
		if r.Float64() < p.ReverseFraction {
			rd.Seq = frag.RevComp()
			rd.Reverse = true
		} else {
			rd.Seq = frag
		}
		reads = append(reads, rd)
	}
	return reads
}

// Workload bundles a complete synthetic experiment input.
type Workload struct {
	Ref   dna.Seq
	Donor *Donor
	Reads []Read
}

// NewWorkload builds a reference, donor and read set from one seed.
func NewWorkload(seed int64, genomeLen int, vp VariantProfile, rp ReadProfile) *Workload {
	r := rand.New(rand.NewSource(seed))
	ref := RandomGenome(r, genomeLen)
	donor := MakeDonor(r, ref, vp)
	return &Workload{Ref: ref, Donor: donor, Reads: Simulate(r, donor, rp)}
}

// NewLongReadWorkload builds a reference, donor and long-read set from
// one seed.
func NewLongReadWorkload(seed int64, genomeLen int, vp VariantProfile, lp LongReadProfile) *Workload {
	r := rand.New(rand.NewSource(seed))
	ref := RandomGenome(r, genomeLen)
	donor := MakeDonor(r, ref, vp)
	return &Workload{Ref: ref, Donor: donor, Reads: SimulateLong(r, donor, lp)}
}
