// Package la implements the classical string-dependent Levenshtein
// Automaton that §II of the paper contrasts Silla against. An LA is built
// for one fixed pattern and accepts exactly the strings within edit
// distance K of it; it has (K+1)·(N+1) states, so its size grows with the
// pattern and the automaton must be reprogrammed ("context switched") for
// every new read — the costs that motivated Silla.
package la

import "genax/internal/dna"

// Automaton is a Levenshtein automaton compiled for one pattern.
type Automaton struct {
	pattern dna.Seq
	k       int
	// programmed counts how many states were configured when the
	// automaton was built — the hardware context-switch cost model.
	programmed int
	cur, next  []int
}

const inf = 1 << 29

// New compiles an automaton accepting strings within edit distance k of
// pattern. Compilation touches every state once, which is the per-read
// reprogramming cost a hardware LA accelerator pays (§II: "the hardware
// needs to be reprogrammed every time the string changes").
func New(pattern dna.Seq, k int) *Automaton {
	if k < 0 {
		panic("la: negative edit bound")
	}
	a := &Automaton{
		pattern:    pattern.Clone(),
		k:          k,
		programmed: (k + 1) * (len(pattern) + 1),
		cur:        make([]int, len(pattern)+1),
		next:       make([]int, len(pattern)+1),
	}
	return a
}

// K returns the edit bound.
func (a *Automaton) K() int { return a.k }

// NumStates returns the automaton size, (K+1)·(N+1) — linear in the
// pattern length, unlike Silla's (K+1)² (§II, Figure 1).
func (a *Automaton) NumStates() int { return a.programmed }

// Match runs the automaton over input and reports the edit distance
// between input and the pattern when it is at most K.
func (a *Automaton) Match(input dna.Seq) (dist int, ok bool) {
	p := a.pattern
	n := len(p)
	cur := a.cur
	// Initial epsilon closure: deleting leading pattern characters.
	for j := 0; j <= n; j++ {
		if j <= a.k {
			cur[j] = j
		} else {
			cur[j] = inf
		}
	}
	for _, c := range input {
		next := a.next
		// Insertion: consume input without advancing the pattern.
		next[0] = cur[0] + 1
		for j := 1; j <= n; j++ {
			v := cur[j] + 1 // insertion
			step := cur[j-1]
			if p[j-1] != c {
				step++ // substitution
			}
			if step < v {
				v = step
			}
			next[j] = v
		}
		// Epsilon closure: deletions advance the pattern for free input.
		for j := 1; j <= n; j++ {
			if d := next[j-1] + 1; d < next[j] {
				next[j] = d
			}
		}
		// Prune states beyond the bound so the active set stays honest.
		for j := 0; j <= n; j++ {
			if next[j] > a.k {
				next[j] = inf
			}
		}
		a.cur, a.next = next, cur
		cur = a.cur
	}
	if cur[n] <= a.k {
		return cur[n], true
	}
	return 0, false
}
