// Package a seeds guardedby violations: partition-state mutations (the
// field columns, the id column, the slabs) outside a write section,
// where the primitives that invalidate cached partials cannot vouch
// for them. These are the findings of the name-keyed checker lockscope's
// guardedby rule replaced, plus the writes it let through: a write after
// the lock is released, a write the lock covers on one branch only, and
// a guarded field under another name.
package a

import (
	"strings"
	"sync"
)

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

// A read lock opens no write section.
func (p *partition) unguardedInsert(k, v string) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.cols[k] = &column{vals: []string{v}} // want `mutation of p\.cols outside a write section`
	p.ids = append(p.ids, k)               // want `mutation of p\.ids outside a write section`
}

// Nor does another partition's write lock.
func (p *partition) unguardedDelete(q *partition, k string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(p.cols, k) // want `mutation of p\.cols outside a write section`
}

func (p *partition) sectionAfterMutation(k, v string) {
	p.cols[k] = &column{vals: []string{v}} // want `mutation of p\.cols outside a write section`
	p.mu.Lock()
	p.mu.Unlock()
}

// Row data changes through the columns' own methods, however the
// column was reached.
func (p *partition) unguardedCellWrite(k, v string) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.cols[k].set(v)      // want `mutation of p\.cols outside a write section`
	p.colLocked(k).set(v) // want `mutation of p\.cols outside a write section`
	col := p.colLocked(k)
	col.gather(0) // want `mutation of p\.cols outside a write section`
}

func (p *partition) unguardedCompact() {
	for _, col := range p.cols {
		col.gather(0) // want `mutation of p\.cols outside a write section`
	}
}

// The id column changes through its lane's own methods too.
func (p *partition) unguardedIDPush(k string) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.ids.push(k)     // want `mutation of p\.ids outside a write section`
	p.ids.truncate(0) // want `mutation of p\.ids outside a write section`
}

// So does a carve from the partition's slabs.
func (p *partition) unguardedCarve() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.slabs.strs.carve(1) // want `mutation of p\.slabs outside a write section`
}

func (p *partition) recoveryRebuild(k, v string) {
	p.cols[k] = &column{vals: []string{v}} //alarmvet:ignore recovery rebuild runs before the partition is published to readers
}

// The lock is released before the write.
func (p *partition) writeAfterUnlock(k, v string) {
	p.mu.Lock()
	p.mu.Unlock()
	p.cols[k] = &column{vals: []string{v}} // want `mutation of p\.cols outside a write section`
}

// The lock covers the write on one branch only.
func (p *partition) writeOnOtherBranch(lock bool, k string) {
	if lock {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	p.ids.push(k) // want `mutation of p\.ids outside a write section`
}

// A guarded field is found by its directive, not its name.
type shard struct {
	mu   sync.Mutex
	rows lane //alarmvet:guardedby mu
}

func (s *shard) unguardedPush(k string) {
	s.rows.push(k) // want `mutation of s\.rows outside a write section`
}

// A method of another package writes its receiver too: its body is out
// of sight, so a pointer receiver counts as a write.
type journal struct {
	mu  sync.Mutex
	buf strings.Builder //alarmvet:guardedby mu
}

func (j *journal) unguardedAppend(line string) {
	j.buf.WriteString(line) // want `mutation of j\.buf outside a write section`
}
