package silla

// DistanceOf runs the collapsed-3D Silla over any comparable alphabet —
// the §VIII-C observation that Silla generalizes beyond genomics (spell
// correction, longest-common-subsequence-style problems): nothing in the
// automaton depends on the alphabet, only retro-comparison equality.
// It reports the edit distance between r and q when it is at most k.
func DistanceOf[T comparable](r, q []T, k int) (dist int, ok bool) {
	if k < 0 {
		panic("silla: negative edit bound")
	}
	return distance(New(k), r, q)
}

// DistanceStrings is DistanceOf over the bytes of two strings.
func DistanceStrings(a, b string, k int) (int, bool) {
	return DistanceOf([]byte(a), []byte(b), k)
}
