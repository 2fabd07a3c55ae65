// Package pipeline (testdata) is the golden matrix for the stagecontract
// analyzer; the import path impersonates the real pipeline package so the
// contract applies.
package pipeline

import (
	"context"
	"sync"
)

type pool struct {
	wg sync.WaitGroup
}

func unbounded() chan int {
	return make(chan int) // want `unbounded make\(chan int\)`
}

func bounded() chan int {
	return make(chan int, 4)
}

// signal channels carry no data and are closed for broadcast: exempt.
func signal() chan struct{} {
	return make(chan struct{})
}

func spawnBad() {
	go func() { // want `unaccounted goroutine`
		println("x")
	}()
}

func spawnTracked(p *pool) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		println("x")
	}()
}

func worker(ctx context.Context) { _ = ctx }

func spawnCtx(ctx context.Context) {
	go worker(ctx)
}

// trackedWorker declares its accounting at the top of its own body, so a
// bare `go trackedWorker(p)` is visible as WaitGroup-tracked.
func trackedWorker(p *pool) {
	defer p.wg.Done()
	println("x")
}

func spawnTrackedDecl(p *pool) {
	p.wg.Add(1)
	go trackedWorker(p)
}
