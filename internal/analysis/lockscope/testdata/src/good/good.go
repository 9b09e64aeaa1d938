// Package good mirrors the repository's correct locking idioms:
// deferred unlocks, wrapper pairs, branch-balanced unlocks, and
// non-blocking select-with-default under a lock. No findings are
// expected.
package good

import (
	"sync"
	"time"
)

type part struct {
	mu    sync.RWMutex
	ch    chan int
	items map[string]int
	seq   int
	rows  []int //alarmvet:guardedby mu
}

func (p *part) writeLock() {
	p.mu.Lock()
	p.seq++
}

func (p *part) writeUnlock() {
	p.seq++
	p.mu.Unlock()
}

func (p *part) set(k string, v int) {
	p.writeLock()
	defer p.writeUnlock()
	p.items[k] = v
}

func (p *part) get(k string) (int, bool) {
	p.mu.RLock()
	v, ok := p.items[k]
	p.mu.RUnlock()
	return v, ok
}

func (p *part) balanced(k string) int {
	p.mu.RLock()
	if v, ok := p.items[k]; ok {
		p.mu.RUnlock()
		return v
	}
	p.mu.RUnlock()
	return 0
}

func (p *part) tryNotify() {
	p.mu.Lock()
	select {
	case p.ch <- 1:
	default:
	}
	p.mu.Unlock()
}

func (p *part) sendOutsideLock(v int) {
	p.mu.Lock()
	p.items["last"] = v
	p.mu.Unlock()
	p.ch <- v
}

// each runs fn over the rows before it returns.
func (p *part) each(fn func(r int)) {
	for r := range p.rows {
		fn(r)
	}
}

// A callback handed straight to a call under the write lock writes
// inside the write section.
func (p *part) writeInCallbackUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.each(func(r int) { p.rows[0] = r })
}

// A callback a go statement runs holds none of its spawner's locks, and
// may sleep.
func (p *part) sleepInGoCallbackUnderLock(d time.Duration) {
	p.mu.Lock()
	go p.each(func(int) { time.Sleep(d) })
	p.mu.Unlock()
}
