// Package a seeds batchlife violations against a miniature of the
// repository's pooled-batch machinery: double release, use after
// release, scratch-slice escape, and a path that leaks the batch.
package a

// Batch is a pooled result carrier, as on the hot-path pipeline.
type Batch struct {
	Verified []int
	scratch  []byte
}

// Lease is a pooled fetch lease.
type Lease struct {
	released bool
}

// Release returns the lease to its pool.
func (l *Lease) Release() {
	l.released = true
}

type pool struct {
	free []*Batch
}

func (p *pool) getBatch() *Batch {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Batch{}
}

// ReleaseBatch returns a batch to the pool.
func (p *pool) ReleaseBatch(b *Batch) {
	b.Verified = b.Verified[:0]
	b.scratch = b.scratch[:0]
	p.free = append(p.free, b)
}

func (p *pool) doubleRelease() {
	b := p.getBatch()
	p.ReleaseBatch(b)
	p.ReleaseBatch(b) // want `pooled b released twice on this path`
}

func (p *pool) useAfterRelease() int {
	b := p.getBatch()
	p.ReleaseBatch(b)
	return len(b.Verified) // want `use of pooled b after its release`
}

func (p *pool) escapedScratch() []int {
	b := p.getBatch()
	out := b.Verified
	p.ReleaseBatch(b)
	return out // want `use of out, a scratch slice of pooled b, after the batch was released`
}

func (p *pool) leakOnErrPath(fail bool) {
	b := p.getBatch()
	if fail {
		return // want `pooled b is released on another path but not on this one`
	}
	p.ReleaseBatch(b)
}

func doubleLeaseRelease(get func() *Lease) {
	l := get()
	l.Release()
	l.Release() // want `pooled l released twice on this path`
}

func (p *pool) auditRelease() int {
	b := p.getBatch()
	p.ReleaseBatch(b)
	return cap(b.scratch) //alarmvet:ignore pool telemetry samples the retained capacity right after release
}

// A case-list expression is evaluated on the path: it reads the batch
// after its release.
func (p *pool) caseListAfterRelease() int {
	b := p.getBatch()
	p.ReleaseBatch(b)
	switch {
	case len(b.Verified) > 0: // want `use of pooled b after its release`
		return 1
	}
	return 0
}

// A switch with no default can run no clause: the entry path leaks.
func (p *pool) switchNoDefaultLeak(k int) {
	b := p.getBatch()
	switch k {
	case 0:
		p.ReleaseBatch(b)
		return
	}
} // want `pooled b is released on another path but not on this one`

// A clause's release reaches the code after the switch.
func (p *pool) useAfterClauseRelease(k int) int {
	b := p.getBatch()
	switch k {
	case 0:
		p.ReleaseBatch(b)
	default:
		b.Verified = b.Verified[:0]
	}
	return len(b.Verified) // want `use of pooled b after its release`
}

func (p *pool) typeSwitchDoubleRelease(v any) {
	b := p.getBatch()
	switch v.(type) {
	case int:
		p.ReleaseBatch(b)
	}
	p.ReleaseBatch(b) // want `pooled b released twice on this path`
}

// A select clause that returns without the release leaks the batch.
func (p *pool) selectClauseLeak(done chan struct{}, in chan int) {
	b := p.getBatch()
	select {
	case <-done:
		return // want `pooled b is released on another path but not on this one`
	case v := <-in:
		b.Verified = append(b.Verified, v)
	}
	p.ReleaseBatch(b)
}

// A labeled break carries the release out of both loops.
func (p *pool) breakOutReleased(rows [][]int) int {
	b := p.getBatch()
outer:
	for _, r := range rows {
		for _, v := range r {
			if v < 0 {
				p.ReleaseBatch(b)
				break outer
			}
		}
	}
	return len(b.Verified) // want `use of pooled b after its release`
}

// A var declaration tracks its batch like an assignment does.
func (p *pool) varDeclUseAfterRelease() int {
	var b = p.getBatch()
	p.ReleaseBatch(b)
	var n = len(b.Verified) // want `use of pooled b after its release`
	return n
}

func (p *pool) getBatchErr() (*Batch, error) { return p.getBatch(), nil }

func (p *pool) varTupleLeak(fail bool) {
	var b, err = p.getBatchErr()
	if err != nil || fail {
		return // want `pooled b is released on another path but not on this one`
	}
	p.ReleaseBatch(b)
}

// Where paths meet, a release on either one counts.
func (p *pool) useAfterElseRelease(c bool) int {
	b := p.getBatch()
	if c {
		b.Verified = nil
	} else {
		p.ReleaseBatch(b)
	}
	return len(b.Verified) // want `use of pooled b after its release`
}

func (p *pool) tupleLeak(fail bool) {
	b, err := p.getBatchErr()
	if err != nil || fail {
		return // want `pooled b is released on another path but not on this one`
	}
	p.ReleaseBatch(b)
}

func consume(n int) {}

// The arguments of go and defer statements are evaluated on the path.
func (p *pool) goArgAfterRelease() {
	b := p.getBatch()
	p.ReleaseBatch(b)
	go consume(len(b.Verified)) // want `use of pooled b after its release`
}

func (p *pool) deferArgAfterRelease() {
	b := p.getBatch()
	p.ReleaseBatch(b)
	defer consume(len(b.Verified)) // want `use of pooled b after its release`
}

func (p *pool) incAfterRelease() {
	b := p.getBatch()
	p.ReleaseBatch(b)
	b.Verified[0]++ // want `use of pooled b after its release`
}

// A round's release reaches the next round's start: the append uses
// the batch the previous round released, and the release is a second.
func (p *pool) releaseInLoop(n int) {
	b := p.getBatch()
	for i := 0; i < n; i++ {
		b.Verified = append(b.Verified, i) // want `use of pooled b after its release`
		p.ReleaseBatch(b)                  // want `pooled b released twice on this path`
	}
}
