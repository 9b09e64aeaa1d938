// Package a seeds snapshotonly violations: a torn read across two
// snapshot loads and a write through a published snapshot pointer, on
// fields found by their //alarmvet:snapshot directive, not their name.
package a

import "sync/atomic"

type model struct {
	version int
	score   float64
}

type verifier struct {
	snap atomic.Pointer[model] //alarmvet:snapshot
}

func (v *verifier) tornRead() (int, float64) {
	a := v.snap.Load().version
	b := v.snap.Load().score // want `second load of v\.snap in one function`
	return a, b
}

func (v *verifier) mutateShared(n int) {
	s := v.snap.Load()
	s.version = n // want `write to s\.version mutates a published model snapshot`
}

func (v *verifier) sampleSwapRate() (int, int) {
	a := v.snap.Load().version
	b := v.snap.Load().version //alarmvet:ignore metrics probe reads two versions on purpose to observe swaps
	return a, b
}

type registry struct {
	// current is the published model, under another name.
	//
	//alarmvet:snapshot
	current atomic.Pointer[model]
}

func (r *registry) tornRead() (int, float64) {
	a := r.current.Load().version
	b := r.current.Load().score // want `second load of r\.current in one function`
	return a, b
}
