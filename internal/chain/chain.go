// Package chain implements deterministic anchor chaining for long reads.
//
// Seeding a long read yields many anchors per locus: every seed hit lands
// on a slightly different diagonal whenever an indel sits between two
// seeds, and the diagonal dedup in the filter stage — exact by design for
// short reads — keeps all of them, so one 10 kb alignment costs dozens of
// redundant gapped extensions. Chaining is minimap2's answer (and its
// single hot spot, ~70% of runtime): collinear anchors whose query and
// reference advances agree within the edit budget are one alignment, so
// only one representative per chain needs to reach the extend stage.
//
// The Chainer runs the classic one-dimensional DP over anchors sorted by
// (reference position, query position): f(i) = max(w_i, max_j f(j) +
// min(w_i, Q1_i - Q1_j, R_i + w_i - R_j - w_j) - len(|qAdv - rAdv|)) over
// valid predecessors j: starts advance on both axes (qAdv, rAdv > 0) and
// the diagonal drift stays within maxGap. The gain counts bases past j's
// end, minimap2's α, so a short anchor just before a long one joins its
// locus's chain instead of being extended on its own.
// The gap cost is logarithmic (bit length of the drift), as in minimap2's
// concave γ: a linear cost would out-price the anchors themselves for any
// K-scale indel, and the hard maxGap bound already rejects drifts one
// gapped extension cannot absorb. The
// lookback is bounded (chainLookback sorted predecessors), chains are
// peeled greedily best-first, and every tie-break is fixed — highest
// score then lowest sorted index for heads, longest anchor then lowest
// sorted index for representatives — so the kept set is a pure
// function of the anchor multiset: serial and parallel pipelines, and any
// lane split, collapse identically.
//
// Everything is flat int32 slices reused across Reset; the warm path
// allocates nothing and contains no maps, closures or library sorts
// (insertion sorts are open-coded: groups are small and mostly sorted).
package chain

import "math/bits"

// chainLookback bounds the DP to this many sorted predecessors per
// anchor, minimap2-style; drift beyond maxGap prunes most of them anyway.
const chainLookback = 64

// Anchor is one seed hit in chain coordinates: query span [Q0, Q1) and
// the reference position R of the span's start.
type Anchor struct {
	Q0, Q1, R int32
}

// Chainer chains one candidate group at a time. Zero value is ready; all
// storage is retained across Reset for reuse.
type Chainer struct {
	anchors []Anchor
	orig    []int32 // original Add order per sorted slot
	f       []int32 // best chain score ending at the slot
	parent  []int32 // DP predecessor, -1 for chain start
	used    []uint8
	keep    []int32
}

// Reset drops the previous group's anchors, keeping capacity.
//
//genax:hotpath
func (c *Chainer) Reset() {
	c.anchors = c.anchors[:0]
	c.orig = c.orig[:0]
}

// Add appends one anchor; its index in Add order is what Collapse reports
// back in the keep set.
//
//genax:hotpath
func (c *Chainer) Add(q0, q1, r int32) {
	c.orig = append(c.orig, int32(len(c.anchors)))
	c.anchors = append(c.anchors, Anchor{Q0: q0, Q1: q1, R: r})
}

// Len reports the number of anchors added since the last Reset.
func (c *Chainer) Len() int { return len(c.anchors) }

// Collapse chains the added anchors and returns the representatives'
// Add-order indices, ascending: one anchor per chain — the longest, with
// the lowest sorted slot breaking ties. maxGap bounds the diagonal
// drift a chain may absorb between consecutive anchors; the edit budget K
// is the natural choice, since that is what one gapped extension can
// reconcile. The returned slice is borrowed from the Chainer and valid
// until the next call.
//
//genax:hotpath
func (c *Chainer) Collapse(maxGap int32) []int32 {
	n := len(c.anchors)
	c.keep = c.keep[:0]
	if n == 0 {
		return c.keep
	}

	// Insertion sort by (R, Q0, insertion index). Groups arrive nearly
	// sorted — candidates are emitted in reference order per segment — so
	// this is close to linear.
	a, orig := c.anchors, c.orig
	for i := 1; i < n; i++ {
		ai, oi := a[i], orig[i]
		j := i - 1
		for j >= 0 && (a[j].R > ai.R || (a[j].R == ai.R && (a[j].Q0 > ai.Q0 || (a[j].Q0 == ai.Q0 && orig[j] > oi)))) {
			a[j+1], orig[j+1] = a[j], orig[j]
			j--
		}
		a[j+1], orig[j+1] = ai, oi
	}

	for len(c.f) < n {
		c.f = append(c.f, 0)
		c.parent = append(c.parent, 0)
		c.used = append(c.used, 0)
	}
	f, parent, used := c.f[:n], c.parent[:n], c.used[:n]

	// DP over bounded lookback. Predecessors are scanned nearest-first and
	// accepted on strictly-greater score, so among equal-scoring parents
	// the nearest (then, for equal positions, the latest-sorted — i.e.
	// deterministic) one wins.
	for i := 0; i < n; i++ {
		wi := a[i].Q1 - a[i].Q0
		f[i] = wi
		parent[i] = -1
		used[i] = 0
		lo := i - chainLookback
		if lo < 0 {
			lo = 0
		}
		for j := i - 1; j >= lo; j-- {
			qAdv := a[i].Q0 - a[j].Q0
			rAdv := a[i].R - a[j].R
			if qAdv <= 0 || rAdv <= 0 {
				continue
			}
			gap := qAdv - rAdv
			if gap < 0 {
				gap = -gap
			}
			if gap > maxGap {
				continue
			}
			// Gain: the bases i adds past j's end on each axis.
			gain := wi
			if qEnd := a[i].Q1 - a[j].Q1; qEnd < gain {
				gain = qEnd
			}
			if rEnd := rAdv + wi - (a[j].Q1 - a[j].Q0); rEnd < gain {
				gain = rEnd
			}
			sc := f[j] + gain - int32(bits.Len32(uint32(gap)))
			if sc > f[i] {
				f[i] = sc
				parent[i] = int32(j)
			}
		}
	}

	// Greedy best-first peel: take the highest-scoring unused head (ties
	// to the lowest sorted index), walk its chain until it meets an
	// already-claimed anchor, and keep the chain's longest anchor.
	remaining := n
	for remaining > 0 {
		head := -1
		var bestF int32
		for i := 0; i < n; i++ {
			if used[i] == 0 && (head < 0 || f[i] > bestF) {
				head, bestF = i, f[i]
			}
		}
		rep := head
		repW := a[head].Q1 - a[head].Q0
		for i := head; i >= 0 && used[i] == 0; i = int(parent[i]) {
			used[i] = 1
			remaining--
			// Ties go to the lowest sorted slot, which is a pure function
			// of the anchor coordinates — Add order never matters.
			if w := a[i].Q1 - a[i].Q0; w > repW || (w == repW && i < rep) {
				rep, repW = i, w
			}
		}
		c.keep = append(c.keep, orig[rep])
	}

	// Ascending Add order, so callers can compact their group in place
	// with forward copies.
	k := c.keep
	for i := 1; i < len(k); i++ {
		v := k[i]
		j := i - 1
		for j >= 0 && k[j] > v {
			k[j+1] = k[j]
			j--
		}
		k[j+1] = v
	}
	return c.keep
}
