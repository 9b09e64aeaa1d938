package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// leaseCheckMode is SetLeaseCheck's switch.
var leaseCheckMode atomic.Bool

// SetLeaseCheck toggles the lease-checking mode globally, a test
// facility: with checking on, every leased fetch copies record values
// into lease-owned buffers, and Lease.Release overwrites those and a wire
// consumer's receive buffer with the 0xDB poison byte and retires the
// lease, turning use-after-release bugs into immediate, deterministic
// data corruption the aliasing tests assert on. Production mode (off, the
// default) hands out views with no extra copy and recycles leases.
func SetLeaseCheck(on bool) { leaseCheckMode.Store(on) }

// leasePoison fills released check-mode buffers.
const leasePoison = 0xDB

// valueArena owns the payload bytes of a partition's in-memory log.
// Append copies each record's key and value into fixed-size blocks, so
// the log never aliases producer buffers (producers may reuse theirs)
// and a fetched Record's views borrow from arena memory. Each block is
// tagged with the last offset it holds bytes for, and numbered: an
// entry names its block by that number. Once the log start passes a
// block's tag the block is released (release): it carries the next
// appends once no view of it can still be read. A block released with
// no pin out goes straight to spare; one released under a pin waits on
// held until the partition's last pin ends (unhold). Both lists are
// short (maxSpare), and a block either cannot take goes to the garbage
// collector, as does a payload's dedicated block. Lease-check mode
// poisons a block with 0xDB as it becomes spare, so a stale view of a
// reused block reads the poison or a later record, never its own.
type valueArena struct {
	blocks []arenaBlock // oldest first; the last is being filled
	first  uint32       // the number of blocks[0]
	spare  blockList    // released, no view left: the next appends' blocks
	held   blockList    // released under a pin: spare once the pins end
}

// blockList is a short stack of released blocks, kept in place so that
// no release allocates.
type blockList struct {
	bufs [maxSpare][]byte
	n    int
}

// arenaBlock is one block of the arena and the offset of the last
// record it holds bytes for.
type arenaBlock struct {
	buf  []byte
	last int64
}

// arenaBlockSize is the allocation unit of the value arena; payloads
// larger than a block get a dedicated block.
const arenaBlockSize = 64 << 10

// maxSpare bounds spare and held each: 1 MB of blocks, more than a
// drained batch of 512-byte records releases at once.
const maxSpare = 16

// hold copies key and value, the payload of the record at offset off,
// into one block, key first, and returns the block's number and where
// the key starts in it. An empty payload touches nothing.
//
//alarmvet:hotpath
func (a *valueArena) hold(key, value []byte, off int64) (block, at uint32) {
	size := len(key) + len(value)
	if size == 0 {
		return 0, 0
	}
	n := len(a.blocks)
	if n == 0 || cap(a.blocks[n-1].buf)-len(a.blocks[n-1].buf) < size {
		a.open(size)
		n++
	}
	blk := &a.blocks[n-1]
	at = uint32(len(blk.buf))
	blk.buf = append(blk.buf, key...)
	blk.buf = append(blk.buf, value...)
	blk.last = off
	return a.first + uint32(n-1), at
}

// block returns the bytes of block number n, one an entry at or above
// the log start names.
func (a *valueArena) block(n uint32) []byte { return a.blocks[n-a.first].buf }

// open starts a block for a payload of size bytes. The block list is
// made room for sixteen blocks with its first, and moves down in place
// as blocks are released, so it grows only with the blocks live.
func (a *valueArena) open(size int) {
	if a.blocks == nil {
		a.blocks = make([]arenaBlock, 0, maxSpare)
	}
	a.blocks = append(a.blocks, arenaBlock{buf: a.fresh(size)})
}

// fresh returns an empty block for a payload of size bytes: a spare one
// when one waits and the payload fits, else a new one.
func (a *valueArena) fresh(size int) []byte {
	if s := &a.spare; s.n > 0 && size <= arenaBlockSize {
		s.n--
		b := s.bufs[s.n]
		s.bufs[s.n] = nil
		return b[:0]
	}
	return make([]byte, 0, max(size, arenaBlockSize))
}

// release lets go of every block but the last whose records all lie
// below start: to held when pinned, else to spare. It allocates
// nothing.
func (a *valueArena) release(start int64, pinned bool) {
	k := 0
	for k < len(a.blocks)-1 && a.blocks[k].last < start {
		if pinned {
			a.held.keep(a.blocks[k].buf, false)
		} else {
			a.spare.keep(a.blocks[k].buf, true)
		}
		k++
	}
	if k > 0 {
		m := copy(a.blocks, a.blocks[k:])
		clear(a.blocks[m:])
		a.blocks = a.blocks[:m]
		a.first += uint32(k)
	}
}

// unhold moves the blocks released under pins to spare: the last pin
// has ended, so nothing views them.
func (a *valueArena) unhold() {
	h := &a.held
	for ; h.n > 0; h.n-- {
		a.spare.keep(h.bufs[h.n-1], true)
		h.bufs[h.n-1] = nil
	}
}

// keep adds a released block to l when it is a standard one and l has
// room; poison fills it with 0xDB in lease-check mode first.
func (l *blockList) keep(b []byte, poison bool) {
	if cap(b) != arenaBlockSize || l.n == maxSpare {
		return
	}
	if poison && leaseCheckMode.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = leasePoison
		}
	}
	l.bufs[l.n] = b
	l.n++
}

// bytes counts the arena's blocks, live and released alike.
func (a *valueArena) bytes() int64 {
	n := a.spare.n + a.held.n
	var live int64
	for _, b := range a.blocks {
		live += int64(cap(b.buf))
	}
	return live + int64(n)*arenaBlockSize
}

// Pins holds the partitions whose arena memory a reader's records view:
// a read that returns records pins its partition, and no block the
// partition releases carries new appends until the pin ends. A Lease
// carries the pins of its poll; the wire server keeps one per
// connection, released once a response is encoded. The zero value is
// empty; a Pins is used in place, never copied.
type Pins struct {
	parts []*partition
	// first backs parts until more partitions are pinned at once than
	// it holds, so the usual few pins allocate nothing.
	first [8]*partition
}

// add records a pin of p.
func (ps *Pins) add(p *partition) {
	if ps.parts == nil {
		ps.parts = ps.first[:0]
	}
	ps.parts = append(ps.parts, p)
}

// take moves every pin of from into ps.
func (ps *Pins) take(from *Pins) {
	for _, p := range from.parts {
		ps.add(p)
	}
	clear(from.parts)
	from.parts = from.parts[:0]
}

// Release ends every pin and empties the set.
//
//alarmvet:hotpath
func (ps *Pins) Release() {
	for _, p := range ps.parts {
		p.unpin()
	}
	clear(ps.parts)
	ps.parts = ps.parts[:0]
}

// Lease is the borrow handle of a leased fetch: every Record returned
// alongside it has a Value (and Key) that borrows from memory valid only
// until Release — the broker's arena in process, whose blocks the
// lease's pins keep from reuse, the lease's own receive buffer over the
// wire, where the next fetch overwrites it. Callers must
// call Release exactly once, after the last touch of any borrowed
// Record; the pipeline releases when a batch's scratch is recycled,
// after its offsets are committed. Release is safe from any goroutine.
type Lease struct {
	// live is set while the lease is lent: the zero Lease is released.
	live atomic.Bool
	// pool is the free list Release returns the lease to; nil for
	// noLease, which nothing recycles.
	pool *LeasePool
	// buf is the memory the lease owns (a wire consumer's receive
	// buffer), bufs the check-mode private copies of an in-process fetch.
	buf  []byte
	bufs [][]byte
	// pins are the partitions an in-process poll's records view.
	pins Pins
}

// Release returns the borrowed memory — and, from a consumer's poll,
// the lease itself — for reuse. After Release the values of the records
// fetched under this lease must not be touched: over the wire they read
// the next fetch, and in lease-check mode they are poisoned to make the
// violation deterministic. A second Release is absorbed only until the
// lease is lent again; after that a stale holder's Release ends the new
// holder's borrow, which no flag on a recycled handle can tell apart.
// Check mode therefore retires a released lease instead of recycling it
// and panics on its second Release.
//
//alarmvet:hotpath
func (l *Lease) Release() {
	if l == nil {
		return
	}
	check := leaseCheckMode.Load()
	if !l.live.Swap(false) {
		if check && l.pool != nil {
			panic("broker: pooled lease released twice")
		}
		return
	}
	if check {
		for _, b := range append(l.bufs, l.buf) {
			for i := range b {
				b[i] = leasePoison
			}
		}
	}
	l.bufs = nil
	l.pins.Release()
	if p := l.pool; p != nil {
		p.mu.Lock()
		p.stats.Active--
		if check {
			p.stats.Bytes -= int64(cap(l.buf))
		} else {
			p.free = append(p.free, l)
		}
		p.mu.Unlock()
	}
}

// Released reports whether the lease has been released.
func (l *Lease) Released() bool { return !l.live.Load() }

// LeaseStats is a LeasePool's occupancy: leases lent, leases on the free
// list, and the bytes of buffer the two own between them.
type LeaseStats struct{ Active, Free, Bytes int64 }

// LeasePool is the free list a consumer's polls draw their leases from,
// in this package and in internal/netbroker. Nothing caps it: it holds
// what was once lent at the same time, which the batches a shard's
// pipeline can hold bound. The zero value is ready to use.
type LeasePool struct {
	mu    sync.Mutex
	free  []*Lease
	stats LeaseStats
}

// Lend hands out a lease that owns buf until its Release, off the free
// list when one waits there, and returns the buffer that lease owned
// before, emptied, for the caller's next read.
//
//alarmvet:hotpath
func (p *LeasePool) Lend(buf []byte) (*Lease, []byte) {
	p.mu.Lock()
	var l *Lease
	if n := len(p.free); n > 0 {
		l, p.free = p.free[n-1], p.free[:n-1]
	} else {
		l = p.grow()
	}
	spare := l.buf[:0]
	l.buf = buf
	p.stats.Active++
	p.stats.Bytes += int64(cap(buf) - cap(spare))
	p.mu.Unlock()
	l.live.Store(true)
	return l, spare
}

// grow makes the lease of a Lend that found the free list empty.
func (p *LeasePool) grow() *Lease { return &Lease{pool: p} }

// Stats snapshots the pool's occupancy.
func (p *LeasePool) Stats() LeaseStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Free = int64(len(p.free))
	return st
}

// noLease is the lease of a poll that fetched nothing: it guards no
// memory, counts as no outstanding lease and is already released, so
// idle polls share it instead of allocating one each.
var noLease Lease

// NoLease returns that shared, already released lease.
func NoLease() *Lease { return &noLease }

// PollLeased fetches up to max records across the assigned partitions,
// appending them to dst (typically a batch's slice with retained
// capacity), and advances the consumer's positions past them. The
// records' payload bytes are borrowed from the broker under the
// returned lease, which must be released after the batch is fully
// processed; until then the values are stable. When no partition has
// data it parks until an append, a raised visible limit, a refreshed
// assignment or a close on this consumer or one of its partitions
// wakes it, for at most timeout (see waitAny). A poll that fetched
// nothing — the timeout elapsed, or the poll was parked when a
// partition or the consumer closed — returns dst with a shared,
// already-released lease and allocates nothing; a nil lease is
// returned only with an error. A poll that starts on partitions already
// closed still waits out its timeout, so a caller looping on PollLeased
// after Broker.Close stays paced.
func (c *Consumer) PollLeased(max int, timeout time.Duration, dst []Record) ([]Record, *Lease, error) {
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(timeout)
	for {
		out, lease, err := c.pollLeasedOnce(max, dst)
		if err != nil || len(out) > len(dst) {
			return out, lease, err
		}
		if !c.waitAny(deadline) {
			return dst, &noLease, nil
		}
	}
}

// pollLeasedOnce sweeps the assigned partitions once, starting at the
// round-robin cursor so one hot partition cannot starve the others,
// and appends into dst under one lease, made when the first record is
// read (nil when none was), which takes the pins of the partitions
// read. In check mode the lease owns a private copy of the values read.
//
//alarmvet:hotpath
func (c *Consumer) pollLeasedOnce(max int, dst []Record) ([]Record, *Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return dst, nil, ErrClosed
	}
	var lease *Lease
	var err error
	base := len(dst)
	n := len(c.assigned)
	for i := 0; i < n && len(dst)-base < max; i++ {
		p := c.assigned[(c.next+i)%n]
		part := c.topic.partitions[p]
		from := len(dst)
		var out []Record
		out, err = part.read(c.positions[p], max-(from-base), true, dst, &c.pins)
		for errors.Is(err, ErrBelowLogStart) {
			// Only a stale assignment's position falls below the log
			// start: the group has committed past it. Resume at the
			// start, as a refresh would.
			c.positions[p], _ = part.logStart()
			out, err = part.read(c.positions[p], max-(from-base), true, dst, &c.pins)
		}
		if err != nil {
			break
		}
		if got := len(out) - from; got > 0 {
			c.positions[p] += int64(got)
			if lease == nil {
				lease, _ = c.leases.Lend(nil)
			}
			if leaseCheckMode.Load() {
				lease.copyValues(out[from:])
			}
		}
		dst = out
	}
	if lease != nil {
		lease.pins.take(&c.pins)
	}
	if n > 0 && err == nil {
		c.next = (c.next + 1) % n
	}
	return dst, lease, err
}

// copyValues moves recs' values into one buffer the lease owns and
// Release poisons: check mode's private copy of an in-process read.
func (l *Lease) copyValues(recs []Record) {
	total := 0
	for _, r := range recs {
		total += len(r.Value)
	}
	buf := make([]byte, 0, total)
	for i := range recs {
		n := len(buf)
		buf = append(buf, recs[i].Value...)
		recs[i].Value = buf[n:len(buf):len(buf)]
	}
	l.bufs = append(l.bufs, buf)
}

// LeaseStats snapshots the consumer's lease free list; its Active count
// is the leases handed out and not yet released — the leak detector the
// aliasing tests (and operators watching for buffer leaks) read.
func (c *Consumer) LeaseStats() LeaseStats { return c.leases.Stats() }
