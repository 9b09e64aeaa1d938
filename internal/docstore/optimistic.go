package docstore

// Optimistic reads.
//
// A repeated bounded aggregation (/stats, dashboards) does not need to
// take a partition's RWMutex on every call. Each partition carries a
// seqlock-style version counter: odd while a writer holds the
// partition lock, bumped to a new even value when the writer releases
// it. A reader captures its partial result under the read lock once,
// publishes it with the version it was computed at (pushdown.go), and
// on later calls serves the published partial after validating that
// the version is even (no writer in progress) and unchanged (no write
// since the capture) — loading the version before and after the cache
// probe, retrying briefly on conflict, and falling back to the locked
// path when the partition is write-hot.
//
// Unlike a textbook seqlock, the optimistic read never dereferences
// the live columns outside the lock — reading slices that a writer
// may be appending to is undefined behavior (and a -race report) — it
// only reads immutable published snapshots, with the version counter
// deciding their freshness.

// writeLock acquires the partition's write lock and marks the version
// counter odd: every optimistic reader that loads the counter while a
// write is in progress backs off to the locked path.
func (p *partition) writeLock() {
	p.mu.Lock()
	p.seq.Add(1)
}

// writeUnlock bumps the version counter to the next even value and
// releases the write lock, invalidating every snapshot captured at an
// earlier version.
func (p *partition) writeUnlock() {
	p.seq.Add(1)
	p.mu.Unlock()
}
