package docstore

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Reads beside writes: cached partials that advance.
//
// A standing aggregation (/stats, a dashboard panel) asks the same
// question of a store that, between two asks, has almost only grown at
// its tail. So a partition keeps the partial it computed for a group
// count — its groups, keyed by the plan's signature (countGroups,
// pushdown.go) — together with a mark: the number of rows folded into
// it. The next ask, under the partition's read lock, folds only rows
// [mark, ids.len()) through the plan's filter and moves the mark to the
// tail; an ask costs the rows appended since the last one plus the
// groups it copies out, whatever the history's size. Rows arrive in
// ascending id order, so the advanced partial — a group's identity is
// its first row's value — is the one a scan from row 0 would build. The
// insert path does nothing for this: the advance is lazy, on the
// reader.
//
// A cached partial is folded again from row 0 only when something
// other than a tail append touched a row below its mark. There are two
// such writes, and they pass through one primitive (partition.go):
//
//   - an out-of-order batch merged back into id order
//     (restoreOrderLocked → gatherLocked),
//   - a delete, a retention prune included (deleteLocked → gatherLocked),
//
// which marks stale the partials whose mark lies past the first row it
// rewrites (invalidatePartialsLocked). Creating an index moves no row
// and leaves the partials alone.
//
// Readers hold the partition's read lock for the whole of an ask, share
// the cache through cacheMu and take a partial's own lock to advance it
// and copy it into their sweep — the merge then works on the copy, so
// readers of one signature never see each other's folds half-done. A
// writer holds the partition's write lock, which keeps every reader
// out, and needs neither.

// aggCacheBound caps the per-partition partial cache; at the bound an
// arbitrary entry is evicted (the working set of repeating group counts
// — /stats' noisiest devices and alarms per ZIP, the per-type true-alarm
// counts — is a handful of plan signatures).
const aggCacheBound = 32

// stale marks a cached partial that holds nothing to build on: new,
// invalidated, or left half-folded by a failed scan.
const stale = -1

// aggEntry is one partition's cached group partial for one plan
// signature: rows [0, mark) are folded into it.
type aggEntry struct {
	mu     sync.Mutex
	mark   int
	groups []pGroup         // in ascending minID order
	index  map[string]int32 // class key → position in groups
	// kbuf is the slab built class keys are copied into. A sweep's copy
	// of a group still reads its key after the entry's lock is gone, so
	// reset drops the slab rather than write over it.
	kbuf []byte
}

// reset empties a stale entry to fold into from row 0.
func (e *aggEntry) reset() {
	e.groups, e.kbuf = e.groups[:0], nil
	clear(e.index)
	if e.index == nil {
		e.index = make(map[string]int32)
	}
}

// classKey returns a copy of a built class key out of the entry's byte
// slab. A slab without room for it is replaced by a fresh chunk, twice
// the last one's size (up to 1 KB), and the old chunk is left to the
// keys already made from it: no key's bytes are ever rewritten.
func (e *aggEntry) classKey(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(e.kbuf)-len(e.kbuf) < len(b) {
		e.kbuf = make([]byte, 0, max(len(b), min(2*cap(e.kbuf), 1024), 8))
	}
	at := len(e.kbuf)
	e.kbuf = append(e.kbuf, b...)
	return unsafe.String(&e.kbuf[at], len(b))
}

// entryFor returns the partition's cached partial for a signature — a
// stale one the first time it is asked for. Caller holds the read
// lock, and keeps holding it for as long as it uses the entry.
func (p *partition) entryFor(sig []byte) *aggEntry {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	e := p.agg[string(sig)]
	if e == nil {
		if p.agg == nil {
			p.agg = make(map[string]*aggEntry)
		}
		if len(p.agg) >= aggCacheBound {
			for k := range p.agg {
				delete(p.agg, k)
				break
			}
		}
		e = &aggEntry{mark: stale}
		p.agg[string(sig)] = e
	}
	return e
}

// invalidatePartialsLocked marks stale every cached partial that has
// folded a row at or past lo: the caller is about to rewrite those
// rows. Caller holds the write lock.
func (p *partition) invalidatePartialsLocked(lo int) {
	for _, e := range p.agg {
		if e.mark > lo {
			e.mark = stale
		}
	}
}

// advance answers a group plan from the partition's cached partial,
// folding in the rows appended since it was last asked (every row, when
// it is stale), and copies the result into out. Caller holds the read
// lock.
//
//alarmvet:hotpath
func (p *partition) advance(plan *aggPlan, out *aggPartial, sc *partialScratch, st *aggCounters) error {
	e := p.entryFor(plan.sig)
	e.mu.Lock()
	defer e.mu.Unlock()
	from, n := e.mark, p.ids.Len()
	switch from {
	case n:
		st.served.Add(1)
	case stale:
		from = 0
		e.reset()
		st.recomputed.Add(1)
	default:
		st.advanced.Add(1)
	}
	st.rowsFolded.Add(int64(n - from))
	e.mark = stale // until the fold has gone through
	err := groupPartial(p, plan, e, from, sc, out)
	if err == nil {
		e.mark = n
	}
	return err
}

// aggCounters counts, per collection, how its cached partials were
// brought up to date, and the rows its histogram sweeps counted
// (AggPartialStats).
type aggCounters struct {
	served, advanced, recomputed, rowsFolded, rowsBucketed atomic.Int64
}

// AggPartialStats reports how often a partition's cached partial
// answered an aggregation as it stood (Served: no row since the last
// ask), after folding in appended rows (Advanced), or only after a
// fold from row 0 (Recomputed: the first ask of a signature, or the
// first after a write below the partial's mark), and how many rows
// those folds read — the fallback rate of the optimistic design. One
// aggregation counts once per partition it visits. RowsBucketed is the
// rows the histogram sweeps (BucketCounts), which keep no partial,
// counted into their bars: a sweep reads every row it counts, so what
// it costs grows with it.
type AggPartialStats struct {
	Served, Advanced, Recomputed, RowsFolded, RowsBucketed int64
}

// AggPartialStats returns the collection's cached-partial counters.
func (c *Collection) AggPartialStats() AggPartialStats {
	st := &c.aggStats
	return AggPartialStats{
		Served:       st.served.Load(),
		Advanced:     st.advanced.Load(),
		Recomputed:   st.recomputed.Load(),
		RowsFolded:   st.rowsFolded.Load(),
		RowsBucketed: st.rowsBucketed.Load(),
	}
}
