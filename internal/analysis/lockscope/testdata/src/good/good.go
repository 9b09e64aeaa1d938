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

// Every clause of a switch or type switch with a default returns, so no
// path reaches the closing brace holding the lock.
func (p *part) switchAllReturn(k int) int {
	p.mu.Lock()
	switch k {
	case 0:
		p.mu.Unlock()
		return 0
	default:
		p.mu.Unlock()
		return 1
	}
}

func (p *part) typeSwitchAllReturn(v any) int {
	p.mu.RLock()
	switch v.(type) {
	case int:
		p.mu.RUnlock()
		return 0
	default:
		p.mu.RUnlock()
		return 1
	}
}

// A select whose clauses all return ends every path too.
func (p *part) selectAllReturn(done chan struct{}) int {
	p.mu.Lock()
	p.seq++
	p.mu.Unlock()
	select {
	case v := <-p.ch:
		return v
	case <-done:
		return 0
	}
}

// Each path out of the loop, the break included, has unlocked.
func (p *part) unlockThenBreak(ks []string) int {
	n := 0
	for {
		p.mu.Lock()
		if _, ok := p.items[ks[n]]; ok {
			p.mu.Unlock()
			break
		}
		p.mu.Unlock()
		n++
	}
	return n
}

// A write after a switch whose every clause takes the write lock is in
// the write section.
func (p *part) writeAfterBalancedSwitch(k, r int) {
	switch k {
	case 0:
		p.mu.Lock()
	default:
		p.mu.Lock()
	}
	p.rows[0] = r
	p.mu.Unlock()
}
