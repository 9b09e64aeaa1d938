// Package a seeds lockscope violations: locks held across blocking
// operations and lock/unlock pairs broken on a return path.
package a

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

type part struct {
	mu    sync.RWMutex
	f     *os.File
	ch    chan int
	items map[string]int
	seq   int
	rows  []int //alarmvet:guardedby mu
}

// writeLock and writeUnlock mirror the docstore seqlock wrapper pair;
// lockscope classifies them by body and tracks their call sites.
func (p *part) writeLock() {
	p.mu.Lock()
	p.seq++
}

func (p *part) writeUnlock() {
	p.seq++
	p.mu.Unlock()
}

// flush blocks transitively: fsync behind one call hop.
func (p *part) flush() error {
	return p.f.Sync()
}

func (p *part) sleepUnderLock(d time.Duration) {
	p.mu.Lock()
	time.Sleep(d) // want `p\.mu held across time\.Sleep`
	p.mu.Unlock()
}

func (p *part) sendUnderLock(v int) {
	p.mu.Lock()
	p.ch <- v // want `p\.mu held across channel send`
	p.mu.Unlock()
}

func (p *part) selectUnderLock() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want `p\.mu held across blocking select`
	case v := <-p.ch:
		return v
	}
}

func (p *part) syncUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.f.Sync() // want `p\.mu held across fsync`
}

func (p *part) transitiveFlushUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.flush() // want `p\.mu held across call to flush, which fsyncs`
}

// wire mirrors the net broker's connection state: network I/O is the
// wire analogue of fsync and must never run under a mutex.
type wire struct {
	mu   sync.Mutex
	conn net.Conn
}

// sendFrame blocks transitively: a stream write behind one call hop
// (the frame codec writes conns through io.Writer).
func sendFrame(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

func (c *wire) writeUnderLock(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = c.conn.Write(b) // want `c\.mu held across network/stream I/O: performs conn I/O \(net\.Conn\)`
}

func (c *wire) readUnderLock(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = io.ReadFull(c.conn, b) // want `c\.mu held across network/stream I/O: reads from a stream \(io\.ReadFull\)`
}

func (c *wire) frameUnderLock(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = sendFrame(c.conn, b) // want `c\.mu held across call to sendFrame, which writes to a stream \(io\.Writer\.Write\)`
}

func (c *wire) dialUnderLock(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn, _ = net.DialTimeout("tcp", addr, time.Second) // want `c\.mu held across network/stream I/O: dials the network \(net\.Dial\)`
}

func (p *part) leakOnEarlyReturn(k string) int {
	p.mu.RLock()
	if v, ok := p.items[k]; ok {
		return v // want `p\.mu acquired at .* may still be held on this return path \(missing RUnlock\)`
	}
	p.mu.RUnlock()
	return 0
}

func (p *part) wrapperWithoutUnlock(k string, v int) {
	p.writeLock()
	p.items[k] = v
} // want `p\.mu acquired at .* may still be held on this return path \(missing Unlock\)`

// each runs fn over the rows before it returns.
func (p *part) each(fn func(r int)) {
	for r := range p.rows {
		fn(r)
	}
}

// A callback handed straight to a call runs under the locks its call
// site holds.
func (p *part) sleepInCallbackUnderLock(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.each(func(int) {
		time.Sleep(d) // want `p\.mu held across time\.Sleep`
	})
}

// A callback run with no lock held writes outside a write section, and
// so does one a go statement runs on another goroutine.
func (p *part) writeInCallbackUnlocked() {
	p.each(func(r int) {
		p.rows[0] = r // want `mutation of p\.rows outside a write section`
	})
}

func (p *part) writeInGoCallbackUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go p.each(func(r int) {
		p.rows[0] = r // want `mutation of p\.rows outside a write section`
	})
}

// When every clause of a switch with a default returns, the switch is
// the end of every path: the clause that keeps the lock is reported at
// its return, and nothing at the closing brace.
func (p *part) switchClauseKeepsLock(k int) int {
	p.mu.Lock()
	switch k {
	case 0:
		p.mu.Unlock()
		return 0
	default:
		return 1 // want `p\.mu acquired at .* may still be held on this return path \(missing Unlock\)`
	}
}

func (p *part) typeSwitchClauseKeepsLock(v any) int {
	p.mu.RLock()
	switch v.(type) {
	case int:
		p.mu.RUnlock()
		return 0
	default:
		return 1 // want `p\.mu acquired at .* may still be held on this return path \(missing RUnlock\)`
	}
}

// A labeled break carries the lock it holds out of both loops.
func (p *part) breakOutHolding(rows [][]int) {
outer:
	for _, r := range rows {
		for _, v := range r {
			p.mu.Lock()
			if v < 0 {
				break outer
			}
			p.mu.Unlock()
		}
	}
} // want `p\.mu acquired at .* may still be held on this return path \(missing Unlock\)`

// A guarded write after a switch is in the write section only if every
// clause that reaches it holds the lock.
func (p *part) writeAfterOneSidedSwitch(k, r int) {
	switch k {
	case 0:
		p.mu.Lock()
		defer p.mu.Unlock()
	default:
	}
	p.rows[0] = r // want `mutation of p\.rows outside a write section`
}

// A continue skips the unlock, so the next round sleeps holding the
// lock, and a return after the loop may hold it too.
func (p *part) continueKeepsLock(d time.Duration, rows []int) {
	for _, r := range rows {
		time.Sleep(d) // want `p\.mu held across time\.Sleep`
		p.mu.Lock()
		if r < 0 {
			continue
		}
		p.rows[0] = r
		p.mu.Unlock()
	}
} // want `p\.mu acquired at .* may still be held on this return path \(missing Unlock\)`
