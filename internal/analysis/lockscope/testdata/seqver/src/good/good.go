// Package good mirrors the repository's correct write-section idioms:
// the mu.Lock/mu.Unlock pair, the Locked-suffix caller-holds
// contract, and unpublished fresh values; and a struct whose fields
// carry a guarded partition's names but no directive. No findings are
// expected.
package good

import "sync"

// column holds one field's row data; set and gather write it.
type column struct{ vals []string }

func (c *column) set(v string)  { c.vals = append(c.vals, v) }
func (c *column) gather(lo int) { c.vals = c.vals[:lo] }

// lane holds the id column; push and truncate write it.
type lane []string

func (l *lane) push(v string)  { *l = append(*l, v) }
func (l *lane) truncate(n int) { *l = (*l)[:n] }

// slab is where chunks are carved from; a carve hands out memory.
type slab struct{ block []string }

func (s *slab) carve(n int) []string {
	c := s.block[:n:n]
	s.block = s.block[n:]
	return c
}

type slabs struct{ strs slab }

type partition struct {
	mu    sync.RWMutex
	cols  map[string]*column //alarmvet:guardedby mu
	ids   lane               //alarmvet:guardedby mu
	slabs slabs              //alarmvet:guardedby mu
}

func (p *partition) colLocked(k string) *column { return p.cols[k] }

func (p *partition) guardedInsert(k, v string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cols[k] = &column{vals: []string{v}}
	p.ids = append(p.ids, k)
}

func (p *partition) insertLocked(k, v string) {
	p.cols[k] = &column{vals: []string{v}}
	p.ids = append(p.ids, k)
}

func (p *partition) guardedIDPush(k string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids.push(k)
	p.ids.truncate(0)
}

func (p *partition) pushIDLocked(k string) {
	p.ids.push(k)
	p.ids.truncate(0)
}

func (p *partition) guardedCarve() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slabs.strs.carve(1)
}

func (p *partition) carveLocked() { p.slabs.strs.carve(1) }

func (p *partition) guardedCellWrite(k, v string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cols[k].set(v)
	p.colLocked(k).set(v)
	for _, col := range p.cols {
		col.gather(0)
	}
}

func (p *partition) compactLocked() {
	for _, col := range p.cols {
		col.gather(0)
	}
}

// A column's own methods, and reads, carry no obligation.
func (c *column) reset() { c.gather(0); c.set("") }

func newPartition() *partition {
	p := &partition{cols: make(map[string]*column)}
	p.cols["boot"] = &column{}
	p.cols["boot"].set("x")
	p.ids = append(p.ids, "boot")
	return p
}

// A lock taken on both branches covers the write after them.
func (p *partition) lockedOnEveryBranch(fast bool, k string) {
	if fast {
		p.mu.Lock()
	} else {
		p.mu.Lock()
	}
	p.ids.push(k)
	p.mu.Unlock()
}

// Names alone guard nothing: this struct declares no guarded field.
type scratch struct {
	mu   sync.Mutex
	ids  lane
	cols map[string]*column
}

func (s *scratch) fill(k string) {
	s.ids.push(k)
	s.cols[k] = &column{}
}

// A guarded element's own mutex is locked, not written.
type entry struct {
	mu sync.Mutex
	n  int
}

type table struct {
	mu   sync.RWMutex
	rows []*entry //alarmvet:guardedby mu
}

func (t *table) peek(i int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.rows[i]
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}
