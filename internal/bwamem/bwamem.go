// Package bwamem is a from-scratch software read aligner in the BWA-MEM
// mould: SMEM seeding over an FM-index followed by banded affine-gap
// Smith-Waterman extension with clipping. It plays the role the real
// BWA-MEM plays in the paper — the gold standard GenAx is validated
// against (§VIII-A) and the CPU baseline it is benchmarked against
// (Fig 15).
package bwamem

import (
	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/extend"
	"genax/internal/fmindex"
	"genax/internal/sw"
)

// Options configure the aligner.
type Options struct {
	Scoring    align.Scoring
	Band       int // banded-SW radius (the edit budget), 40 like GenAx
	MinSeedLen int // minimum SMEM length, BWA-MEM default 19
	MaxHits    int // per-seed hit cap (0 = unlimited)
	MinScore   int // do not report alignments below this (BWA default 30)
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Scoring:    align.BWAMEMDefaults(),
		Band:       40,
		MinSeedLen: 19,
		MaxHits:    512,
		MinScore:   30,
	}
}

// Stats counts aligner work.
type Stats struct {
	Reads      int
	Extensions int // seed extensions performed
	Aligned    int // reads with a reported alignment
}

// Aligner is a single-threaded alignment engine: its extension scratch and
// Stats are not safe for concurrent use.
type Aligner struct {
	ref  dna.Seq
	idx  *fmindex.SMEMIndex
	st   extend.Stitcher
	opts Options
	// Stats accumulates across Align calls.
	Stats Stats
}

// New indexes ref and returns an aligner.
func New(ref dna.Seq, opts Options) *Aligner {
	if opts.MinSeedLen < 1 {
		opts.MinSeedLen = 19
	}
	if opts.Band < 1 {
		opts.Band = 40
	}
	return &Aligner{
		ref:  ref,
		idx:  fmindex.BuildSMEMIndex(ref),
		st:   extend.Stitcher{Eng: extend.BandedEngine{A: sw.NewBandedAligner(opts.Scoring, opts.Band)}},
		opts: opts,
	}
}

// Options returns the configuration.
func (a *Aligner) Options() Options { return a.opts }

// Ref returns the indexed reference.
func (a *Aligner) Ref() dna.Seq { return a.ref }

// Align maps one read against both strands and returns the best
// alignment. ok is false when no alignment reaches MinScore.
func (a *Aligner) Align(read dna.Seq) (align.Result, bool) {
	a.Stats.Reads++
	best := align.Result{Score: -1 << 30}
	found := false
	for _, strand := range []bool{false, true} {
		q := read
		if strand {
			q = read.RevComp()
		}
		res, ok := a.alignStrand(q)
		if !ok {
			continue
		}
		res.Reverse = strand
		if !found || res.Better(best) {
			best, found = res, true
		}
	}
	if !found || best.Score < a.opts.MinScore {
		return align.Result{}, false
	}
	a.Stats.Aligned++
	return best, true
}

// alignStrand seeds and extends one orientation of the read.
func (a *Aligner) alignStrand(q dna.Seq) (align.Result, bool) {
	smems := a.idx.SMEMs(q, a.opts.MinSeedLen, a.opts.MaxHits)
	if len(smems) == 0 {
		return align.Result{}, false
	}
	seen := make(map[int]struct{})
	best := align.Result{Score: -1 << 30}
	found := false
	for _, s := range smems {
		for _, h := range s.Hits {
			anchor := int(h) - s.Start
			if _, dup := seen[anchor]; dup {
				continue
			}
			seen[anchor] = struct{}{}
			res := a.st.AlignAt(a.opts.Scoring, a.ref, q, s.Start, s.End, int(h), a.opts.Band)
			a.Stats.Extensions++
			if !found || res.Better(best) {
				best, found = res, true
			}
		}
	}
	return best, found
}
