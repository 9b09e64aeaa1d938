// Package good mirrors the repository's correct pooled-batch idioms:
// deferred release, branch-balanced release, ownership transfer by
// channel send or return, and element copies instead of aliases. No
// findings are expected.
package good

// Batch is a pooled result carrier.
type Batch struct {
	Verified []int
}

type item struct {
	b *Batch
}

type pool struct {
	free []*Batch
	out  chan item
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
	p.free = append(p.free, b)
}

func (p *pool) deferred() int {
	b := p.getBatch()
	defer p.ReleaseBatch(b)
	return len(b.Verified)
}

func (p *pool) branchesBalanced(fail bool) {
	b := p.getBatch()
	if fail {
		p.ReleaseBatch(b)
		return
	}
	b.Verified = append(b.Verified, 1)
	p.ReleaseBatch(b)
}

func (p *pool) handoff() {
	b := p.getBatch()
	if len(b.Verified) == 0 {
		p.ReleaseBatch(b)
		return
	}
	p.out <- item{b: b} // ownership transfers to the consumer
}

func (p *pool) drain() *Batch {
	return p.getBatch() // ownership transfers to the caller
}

func (p *pool) copyOut(dst []int) []int {
	b := p.getBatch()
	dst = append(dst, b.Verified...) // element copy, not an alias
	p.ReleaseBatch(b)
	return dst
}

// Every clause of a switch with a default releases and returns, so no
// path reaches the closing brace holding the batch.
func (p *pool) switchAllReturn(k int) int {
	b := p.getBatch()
	switch k {
	case 0:
		p.ReleaseBatch(b)
		return 0
	default:
		p.ReleaseBatch(b)
		return 1
	}
}

func (p *pool) typeSwitchAllReturn(v any) int {
	b := p.getBatch()
	switch v.(type) {
	case int:
		p.ReleaseBatch(b)
		return 0
	default:
		p.ReleaseBatch(b)
		return 1
	}
}

// A select whose clauses all return ends every path too; one clause
// hands the batch on by its send.
func (p *pool) selectAllReturn(done chan struct{}) {
	b := p.getBatch()
	select {
	case p.out <- item{b: b}:
		return
	case <-done:
		p.ReleaseBatch(b)
		return
	}
}

// Case lists read the batch before its release; a fallthrough carries
// no release into the next clause.
func (p *pool) switchThenRelease(k int) int {
	b := p.getBatch()
	n := 0
	switch {
	case len(b.Verified) > k:
		n = k
		fallthrough
	case len(b.Verified) > 0:
		n++
	}
	p.ReleaseBatch(b)
	return n
}

// A continue to an outer label goes round again with the batch live.
func (p *pool) labeledContinue(rows [][]int) {
	b := p.getBatch()
outer:
	for _, r := range rows {
		for _, v := range r {
			if v < 0 {
				continue outer
			}
			b.Verified = append(b.Verified, v)
		}
	}
	p.ReleaseBatch(b)
}

// A loop with no condition is left only by the return in its select.
func (p *pool) loopUntilDone(done chan struct{}) {
	var b = p.getBatch()
	for {
		select {
		case <-done:
			p.ReleaseBatch(b)
			return
		default:
		}
		b.Verified = append(b.Verified, 1)
	}
}

// A variable assigned something else is no longer the pooled handle.
func (p *pool) reassigned(fresh *Batch) int {
	b := p.getBatch()
	p.ReleaseBatch(b)
	b = fresh
	return len(b.Verified)
}
