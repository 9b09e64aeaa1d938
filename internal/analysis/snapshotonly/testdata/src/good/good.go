// Package good mirrors the verifier's correct snapshot idioms: one
// load per operation and the copy-then-CompareAndSwap publish, and a
// field named snap that declares no snapshot. No findings are expected.
package good

import "sync/atomic"

type model struct {
	version int
	score   float64
}

type verifier struct {
	snap atomic.Pointer[model] //alarmvet:snapshot
}

func (v *verifier) read() (int, float64) {
	s := v.snap.Load()
	return s.version, s.score
}

func (v *verifier) withVersion(n int) {
	for {
		old := v.snap.Load()
		next := *old
		next.version = n
		if v.snap.CompareAndSwap(old, &next) {
			return
		}
	}
}

func (v *verifier) publish(m *model) {
	v.snap.Store(m)
}

// cache is no published snapshot: its name alone guards nothing.
type cache struct {
	snap atomic.Pointer[model]
}

func (c *cache) refresh() (int, int) {
	return c.snap.Load().version, c.snap.Load().version
}
