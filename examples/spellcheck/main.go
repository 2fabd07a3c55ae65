// Spellcheck: Silla beyond genomics. §VIII-C notes that the automaton
// "can also be easily extended to solve other important problems such as
// ... automatic spell correction" — nothing in Silla depends on the DNA
// alphabet. This example fuzzy-matches misspelled words against a
// dictionary with Silla's automaton, whose structure depends on the edit
// bound alone, contrasted with the classical Levenshtein automaton, which
// would need a freshly compiled machine per dictionary word.
package main

import (
	"fmt"
	"sort"

	"genax/internal/la"
	"genax/internal/silla"
)

var dictionary = []string{
	"accelerator", "algorithm", "alignment", "automaton", "bandwidth",
	"comparison", "deletion", "distance", "genome", "hardware",
	"insertion", "levenshtein", "machine", "matching", "mutation",
	"pipeline", "processor", "reference", "register", "segment",
	"sequence", "substitution", "throughput", "traceback", "variant",
}

func main() {
	queries := []string{"alignmnet", "sequnce", "travceback", "genom", "automata", "xyzzy"}
	const k = 2

	fmt.Printf("Silla spell correction (edit bound %d, %d-word dictionary)\n\n", k, len(dictionary))
	for _, q := range queries {
		type hit struct {
			word string
			dist int
		}
		var hits []hit
		for _, w := range dictionary {
			// DistanceStrings builds a fresh automaton for each pair. Its
			// structure depends only on k, never on the two strings —
			// the string independence that makes SillaX practical.
			if d, ok := silla.DistanceStrings(q, w, k); ok {
				hits = append(hits, hit{w, d})
			}
		}
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].dist != hits[j].dist {
				return hits[i].dist < hits[j].dist
			}
			return hits[i].word < hits[j].word
		})
		fmt.Printf("%-12s ->", q)
		if len(hits) == 0 {
			fmt.Printf(" (no suggestion within %d edits)", k)
		}
		for _, h := range hits {
			fmt.Printf(" %s(%d)", h.word, h.dist)
		}
		fmt.Println()
	}

	// The cost contrast of §II: a hardware LA must be reprogrammed per
	// pattern, while one Silla serves the whole dictionary.
	lens := make([]int, len(dictionary))
	for i, w := range dictionary {
		lens[i] = len(w)
	}
	laStates, sillaStates := la.ContextSwitchStates(lens, k)
	fmt.Printf("\nstates programmed to scan the dictionary once:\n")
	fmt.Printf("  classical Levenshtein automata: %5d (K+1)(N+1) states per word\n", laStates)
	fmt.Printf("  Silla:                          %5d states, programmed once\n", sillaStates)
}
