// Package otherpkg holds the same unbounded-channel and bare-goroutine
// shapes with no expectations: the contract is scoped to
// genax/internal/core and genax/internal/serve and must stay silent here.
package otherpkg

func unbounded() chan int {
	return make(chan int)
}

func spawn() {
	go func() {
		println("x")
	}()
}
