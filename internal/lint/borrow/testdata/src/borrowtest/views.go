// views.go pins the mapped-index accessor pattern introduced with the
// GAXI loader: thin view accessors that lend the index's backing store
// wholesale (seed.SegmentIndex.Tables) instead of a window of it, possibly
// aliasing an mmap-ed file. The registry pre-pass keys on the //genax:borrowed annotation
// alone, so new accessors join the contract with no analyzer changes —
// this file is the regression proving the pre-pass picks them up, for a
// second element type too.
package borrowtest

// startTable mimics Tables().Start: the whole backing array, not a window.
//
//genax:borrowed
func (ix *index) startTable() []int32 { return ix.start }

// presence mimics Tables().Presence: a different element type through the
// same pre-pass.
//
//genax:borrowed
func (ix *index) presence() []uint64 { return ix.words }

var globalWords []uint64

func holdTable(ix *index, s *sink) {
	s.held = ix.startTable() // want `borrowed slice stored to a struct field`
}

func holdWords(ix *index) {
	globalWords = ix.presence() // want `borrowed slice stored to package-level variable`
}

func writeTable(ix *index) {
	t := ix.startTable()
	t[0] = 1 // want `write through a borrowed slice`
}

// scanWords is the legal shape the seed stage uses: scalar elements
// copied out of the view carry no reference.
func scanWords(ix *index) int {
	n := 0
	for _, w := range ix.presence() {
		n += int(w & 1)
	}
	return n
}

// emitTables mirrors the cache writer (indexio.WriteShards): the views flow
// down a call as arguments — a re-borrow in the callee's frame, not a
// leak.
func emitTables(ix *index) int32 {
	return sum(ix.startTable())
}
