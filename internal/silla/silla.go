// Package silla implements Silla, the String Independent Local Levenshtein
// Automaton of §III — the paper's core algorithmic contribution.
//
// Unlike a classical Levenshtein automaton (package la), whose K*N states
// encode positions of one fixed pattern, a Silla state (i,d) encodes only
// the number of insertions and deletions taken so far. The automaton is
// driven by retro comparisons: at cycle c, state (i,d) compares R[c-i] with
// Q[c-d] (the indel offsets realign the two cursors). One automaton
// therefore processes any pair of strings ("string independent"), has only
// O(K²) states, and every transition is between physically adjacent states
// ("local") — the properties the SillaX hardware (package sillax) builds on.
//
// Substitutions are handled with the collapsed-3D construction of §III-C:
// a second layer counts one substitution and a wait state merges the
// two-substitution case into state (i+1,d+1) of the first layer one cycle
// later, because both have the same total edit count and the same relative
// indel offset.
package silla

import "genax/internal/dna"

// Automaton is a Silla instance for a fixed maximum edit distance K.
// Distance runs its one collapsed-3D loop over DNA. The activation grids
// are reused between calls, so an Automaton is not safe for concurrent
// use; allocate one per goroutine (they are small: O(K²)).
type Automaton struct {
	k int
	// Activation grids, flattened (K+1)x(K+1), indexed i*(k+1)+d.
	// layer0: zero recorded substitutions on the current parity;
	// layer1: one pending substitution; wait: the collapse buffer.
	layer0, layer1, wait []bool
	next0, next1, nextW  []bool
}

// New returns a Silla automaton with edit bound k >= 0.
func New(k int) *Automaton {
	if k < 0 {
		panic("silla: negative edit bound")
	}
	n := (k + 1) * (k + 1)
	return &Automaton{
		k:      k,
		layer0: make([]bool, n), layer1: make([]bool, n), wait: make([]bool, n),
		next0: make([]bool, n), next1: make([]bool, n), nextW: make([]bool, n),
	}
}

// K returns the edit bound.
func (a *Automaton) K() int { return a.k }

// NumStates returns the total number of automaton states, 3(K+1)²/2 per
// §III-C (regular states in two layers plus wait states, each a triangle
// of (K+1)²/2).
func (a *Automaton) NumStates() int { return 3 * (a.k + 1) * (a.k + 1) / 2 }

// NumStates3D returns the state count of the uncollapsed 3D Silla,
// (K+1)³/2, for the ablation comparison of §III-B.
func NumStates3D(k int) int { return (k + 1) * (k + 1) * (k + 1) / 2 }

func (a *Automaton) clear() {
	for i := range a.layer0 {
		a.layer0[i], a.layer1[i], a.wait[i] = false, false, false
		a.next0[i], a.next1[i], a.nextW[i] = false, false, false
	}
}

// Distance computes the Levenshtein distance between r and q with the
// collapsed-3D Silla. It reports ok=false when the distance exceeds K, in
// which case dist is unspecified.
func (a *Automaton) Distance(r, q dna.Seq) (dist int, ok bool) {
	k := a.k
	n, m := len(r), len(q)
	if diff := n - m; diff > k || -diff > k {
		return 0, false
	}
	a.clear()
	w := k + 1
	a.layer0[0] = true
	// Acceptance for state (i,d) happens at cycle c with c-i == n and
	// c-d == m; the last possible acceptance is at c = n + k.
	maxCycle := n + k
	if m+k > maxCycle {
		maxCycle = m + k
	}
	for c := 0; c <= maxCycle; c++ {
		// Acceptance check: the unique candidate this cycle.
		ai, ad := c-n, c-m
		if ai >= 0 && ai <= k && ad >= 0 && ad <= k {
			idx := ai*w + ad
			if a.layer0[idx] {
				return ai + ad, true
			}
			if a.layer1[idx] {
				return ai + ad + 1, ai+ad+1 <= k
			}
		}
		// Transition step.
		anyNext := false
		for i := 0; i <= k; i++ {
			riPos := c - i
			for d := 0; d+i <= k; d++ {
				idx := i*w + d
				l0, l1, wt := a.layer0[idx], a.layer1[idx], a.wait[idx]
				if !l0 && !l1 && !wt {
					continue
				}
				if wt && i+d+2 <= k {
					// Wait state fires into (i+1,d+1) of layer 0.
					a.next0[(i+1)*w+d+1] = true
					anyNext = true
				}
				if !l0 && !l1 {
					continue
				}
				qdPos := c - d
				match := riPos >= 0 && riPos < n && qdPos >= 0 && qdPos < m && r[riPos] == q[qdPos]
				if match {
					if l0 {
						a.next0[idx] = true
					}
					if l1 {
						a.next1[idx] = true
					}
					anyNext = true
					continue
				}
				if l0 && i+d+1 <= k {
					if i+1 <= k {
						a.next0[(i+1)*w+d] = true // insertion
					}
					if d+1 <= k {
						a.next0[i*w+d+1] = true // deletion
					}
					a.next1[idx] = true // substitution into layer 1
					anyNext = true
				}
				if l1 && i+d+2 <= k {
					if i+1 <= k {
						a.next1[(i+1)*w+d] = true
					}
					if d+1 <= k {
						a.next1[i*w+d+1] = true
					}
					a.nextW[idx] = true // second substitution: wait, then merge
					anyNext = true
				}
			}
		}
		a.layer0, a.next0 = a.next0, a.layer0
		a.layer1, a.next1 = a.next1, a.layer1
		a.wait, a.nextW = a.nextW, a.wait
		for i := range a.next0 {
			a.next0[i], a.next1[i], a.nextW[i] = false, false, false
		}
		if !anyNext {
			break
		}
	}
	return 0, false
}
