package main

import (
	"genax/internal/core"
	"genax/internal/serve"
	"genax/internal/sim"
)

// outcome is one read's result in the form both paths can produce: the
// offline aligner's ReadResult renders into it, and the served JSON body
// decodes into it. It is comparable, so "same result" is ==.
type outcome = serve.AlignResponse

func toOutcome(rr core.ReadResult) outcome {
	if !rr.Aligned {
		return outcome{}
	}
	return outcome{
		Aligned: true,
		Pos:     rr.Result.RefPos,
		Score:   rr.Result.Score,
		Cigar:   rr.Result.Cigar.String(),
		Reverse: rr.Result.Reverse,
	}
}

// leadingClip parses the soft clip a cigar string starts with ("12S89="
// gives 12); zero when it starts with anything else.
func leadingClip(cigar string) int {
	n := 0
	for i := 0; i < len(cigar); i++ {
		c := cigar[i]
		switch {
		case c >= '0' && c <= '9':
			n = n*10 + int(c-'0')
		case c == 'S':
			return n
		default:
			return 0
		}
	}
	return 0
}

// atTrueLocus judges a placement against the simulator's ground truth: an
// unaligned read is wrong, the strand must match, and the position of the
// read's first base (alignment start minus the leading soft clip) must lie
// within 8 + len/50 bases of where the read was drawn — the slack covers
// indels inside a clipped or gapped prefix.
func atTrueLocus(o outcome, rd sim.Read) bool {
	if !o.Aligned || o.Reverse != rd.Reverse {
		return false
	}
	d := o.Pos - leadingClip(o.Cigar) - rd.TruePos
	if d < 0 {
		d = -d
	}
	return d <= 8+len(rd.Seq)/50
}

func trueLocusFrac(outs []outcome, reads []sim.Read) float64 {
	ok := 0
	for i, o := range outs {
		if atTrueLocus(o, reads[i]) {
			ok++
		}
	}
	return float64(ok) / float64(len(outs))
}

// mismatches counts reads whose outcome differs from the reference pass.
func mismatches(got, want []outcome) int {
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
		}
	}
	return bad
}
