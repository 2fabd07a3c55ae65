// Package serve (testdata) is the golden matrix for the stagecontract
// analyzer over the serving layer; the import path impersonates the real
// serve package so the contract applies. The shapes mirror the admission
// path: a bounded intake queue of value-typed pending requests, signal
// slots, a WaitGroup-tracked dispatcher, and context-bounded registry
// build goroutines.
package serve

import (
	"context"
	"sync"
)

type pending struct {
	read string
	res  chan result
}

type result struct{ err error }

type batcher struct {
	in    chan pending
	slots chan struct{}
	wg    sync.WaitGroup
}

// newBatcher states every data channel's capacity: the admission bound is
// the queue limit, and slots is a struct{} semaphore (exempt only when
// unbuffered-for-broadcast; as a semaphore its capacity is stated).
func newBatcher(queueLimit int) *batcher {
	return &batcher{
		in:    make(chan pending, queueLimit),
		slots: make(chan struct{}, queueLimit),
	}
}

// unboundedIntake drops the capacity: admission would be unbounded and
// the 429 backpressure path unreachable.
func unboundedIntake() chan pending {
	return make(chan pending) // want `unbounded make\(chan .*pending\)`
}

// drainSignal is close-broadcast only: exempt.
func drainSignal() chan struct{} {
	return make(chan struct{})
}

// startDispatcher is the accounted form: StartDrain's shutdown sequencing
// can wait for it.
func (b *batcher) startDispatcher() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for p := range b.in {
			p.res <- result{}
		}
	}()
}

// rogueDispatcher would outlive drain invisibly.
func (b *batcher) rogueDispatcher() {
	go func() { // want `unaccounted goroutine`
		for p := range b.in {
			p.res <- result{}
		}
	}()
}

// buildEntry mirrors the registry's build-on-miss goroutine: handing the
// spawned call a context bounds it.
func buildEntry(ctx context.Context) {
	go func(ctx context.Context) {
		<-ctx.Done()
	}(ctx)
}
