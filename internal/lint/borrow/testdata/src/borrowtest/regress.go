// regress.go pins the real aligner call-site patterns the analyzer
// guards in internal/core/seedstage.go: the seed stage copies every
// borrowed hit into the batch before the batch crosses a queue, and the
// regression here is a lane retaining the seeder's scratch instead.
package borrowtest

type batch struct {
	cands []int32
}

// copyOut mirrors seedLane.seedOne: scalar elements copied out of the
// view carry no reference, so filling the batch is clean.
func copyOut(ix *index, b *batch) {
	hits := ix.Lookup(0)
	for _, h := range hits {
		b.cands = append(b.cands, h)
	}
}

type seedLane struct {
	ix   *index
	held []int32
}

// retain is the leak the gate exists for: the lane keeps the view past
// the next Lookup, which reuses the backing store.
func (l *seedLane) retain() {
	l.held = l.ix.Lookup(0) // want `borrowed slice stored to a struct field`
}
