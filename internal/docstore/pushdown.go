package docstore

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Analytics pushdown.
//
// The batch component asks the store three kinds of question (§4.1,
// §4.3): recent alarms and verdicts (TailRows), per-device alarm
// histograms (BucketCounts) and group counts — the noisiest devices,
// alarms per ZIP (GroupCounts, and Aggregate's one pipeline shape). The
// answer to the last two is a handful of bars or groups, so this file
// computes them inside the partitions, off the typed columns, as
// per-partition partials plus a central merge:
//
//   - a group count is, per partition, its groups in first-seen order
//     with their counts; the merge draws them in ascending first id;
//   - a histogram is, per partition, sorted (bucket index, count) runs;
//     the merge draws them in bucket order.
//
// Partials and their merge stay typed; Aggregate boxes its documents
// from the merged groups as the last step. Partials execute with one
// lock acquisition per touched partition (execPlans). Group partials
// stay behind in the partition and are advanced over the rows appended
// since, not computed again (optimistic.go); histograms are typed asks
// of one device each and are computed on every call. The streaming
// reference every answer is pinned against — matching documents built
// out of the rows, counted centrally — lives in the test files
// (pushdown_test.go).

// aggPlan is one pushed aggregation bound to a collection: its compiled
// filter, the field it groups or buckets by, and the key its partials
// are cached under.
type aggPlan struct {
	filter *filter
	slot   int
	bucket *Bucket // nil: a group count
	sig    []byte  // group counts: the cache key; nil for a histogram
}

// pGroup is one group's mergeable state — in a partition's partial and,
// after the merge, in the typed result. Its key is a copy of a cell, so
// a partial outlives the partition lock and may stay behind in the
// partition's cache.
type pGroup struct {
	ks    string // the group's equivalence class: the reference's %v key
	key   Cell   // the field's value in the group's smallest-id document
	minID int64  // that document's id
	count int
}

// bucketCount is one histogram bar: the bucket index and its count.
type bucketCount struct{ idx, n int }

// aggPartial is one partition's contribution to a pushed aggregation:
// groups (in ascending minID order) or bars (in ascending index order).
// It belongs to the sweep that asked for it: both are views into the
// sweep's slabs — of a cached partial, a copy taken under its lock — so
// the merge may take them apart.
type aggPartial struct {
	groups  []pGroup
	buckets []bucketCount
}

// partialScratch is what a sweep's partition visits, one after another,
// reuse across the plans they compute, and where their partials live: a
// sweep of several hundred per-device histograms then allocates nothing
// per query. Each slab holds the sweep's partials back to back; a view
// taken before a slab grew keeps the old array.
type partialScratch struct {
	idx    []int         // a bucket plan's rows' bucket indexes
	key    []byte        // a group's class key under construction
	bars   []bucketCount // the bucket partials
	groups []pGroup      // the group partials
}

// groupPartial folds the rows from row from on into the cached partial
// e — rows come in ascending id order, so the fold is the tail of the
// one a scan from row 0 performs — and copies the result into out.
func groupPartial(p *partition, plan *aggPlan, e *aggEntry, from int, sc *partialScratch, out *aggPartial) error {
	err := p.forEachMatch(plan.filter, from, func(r int) {
		// The class key is what the streaming reference builds with fmt's
		// %v — except that a string is its own key, with nothing to build.
		v := p.cell(r, plan.slot)
		var gi int32
		var ok bool
		if v.kind == kindString {
			gi, ok = e.index[v.str]
		} else {
			sc.key = appendGroupKey(sc.key[:0], v)
			gi, ok = e.index[string(sc.key)]
		}
		if !ok {
			// Rows come in ascending id order, so a group's first row is
			// its smallest id: its value is the group's identity.
			g := pGroup{ks: v.str, key: v, minID: p.ids.At(r)}
			if v.kind != kindString {
				g.ks = e.classKey(sc.key)
			}
			gi = int32(len(e.groups))
			e.index[g.ks] = gi
			e.groups = append(e.groups, g)
		}
		e.groups[gi].count++
	})
	if err != nil {
		return err
	}
	start := len(sc.groups)
	sc.groups = append(sc.groups, e.groups...)
	out.groups = sc.groups[start:len(sc.groups):len(sc.groups)]
	return nil
}

// appendGroupKey appends a group key in exactly the representation the
// streaming reference uses (fmt's %v verb) — grouping equivalence
// classes must match it bit for bit — without boxing or allocating.
func appendGroupKey(b []byte, c Cell) []byte {
	switch c.kind {
	case kindString:
		return append(b, c.str...)
	case kindInt, kindInt64:
		return strconv.AppendInt(b, int64(c.num), 10)
	case kindFloat:
		// fmt's %v for float64 is strconv's shortest 'g' form.
		return strconv.AppendFloat(b, c.Num(), 'g', -1, 64)
	default:
		return append(b, "<nil>"...)
	}
}

// bucketPartial counts the matching rows as sorted runs of bucket
// indexes — a run of one index is a bar — and writes their bars into the
// sweep's slab.
//
//alarmvet:hotpath
func bucketPartial(p *partition, plan *aggPlan, sc *partialScratch, out *aggPartial) error {
	b := plan.bucket
	sc.idx = sc.idx[:0]
	err := p.forEachMatch(plan.filter, 0, func(r int) {
		if v := p.cell(r, plan.slot); v.rank() == 2 {
			sc.idx = append(sc.idx, int((v.Num()-b.Origin)/b.Width))
		}
	})
	if err != nil {
		return err
	}
	slices.Sort(sc.idx)
	start := len(sc.bars)
	for idx := sc.idx; len(idx) > 0; {
		bar := bucketCount{idx[0], 1}
		for bar.n < len(idx) && idx[bar.n] == bar.idx {
			bar.n++
		}
		idx = idx[bar.n:]
		sc.bars = append(sc.bars, bar)
	}
	out.buckets = sc.bars[start:len(sc.bars):len(sc.bars)]
	return nil
}

// mergeGroups folds the partitions' groups together, in the order the
// streaming reference emits them: first-seen over the id-ordered stream
// — exactly ascending smallest-member id. Every partial is in that order
// already, so the merge draws the group with the smallest first id
// among the partials' heads: groups arrive in the merged order, and a
// class's first sighting is its smallest id. The result lives in the
// sweep until its next merge.
func mergeGroups(sw *Sweep, partials []aggPartial) []pGroup {
	if len(partials) == 1 {
		return partials[0].groups
	}
	if sw.index == nil {
		sw.index = make(map[string]int32)
	}
	clear(sw.index)
	sw.heads = resized(sw.heads, len(partials))
	clear(sw.heads)
	merged := sw.merged[:0]
	for {
		var pg *pGroup
		from := -1
		for pi := range partials {
			if h := sw.heads[pi]; h < len(partials[pi].groups) {
				if g := &partials[pi].groups[h]; pg == nil || g.minID < pg.minID {
					pg, from = g, pi
				}
			}
		}
		if pg == nil {
			break
		}
		sw.heads[from]++
		if mi, ok := sw.index[pg.ks]; ok {
			merged[mi].count += pg.count
			continue
		}
		sw.index[pg.ks] = int32(len(merged))
		merged = append(merged, *pg)
	}
	sw.merged = merged
	return merged
}

// BucketCount is one bar of a histogram: the bucket's lower bound and
// how many documents fell into it.
type BucketCount struct {
	Start float64
	Count int
}

// mergeBuckets appends the merged bars, in ascending bucket order, to
// out, drawing them from the heads of the partials' bars (consumed).
//
//alarmvet:hotpath
func mergeBuckets(b *Bucket, partials []aggPartial, out []BucketCount) []BucketCount {
	for {
		var head *bucketCount
		for i := range partials {
			if bars := partials[i].buckets; len(bars) > 0 && (head == nil || bars[0].idx < head.idx) {
				head = &bars[0]
			}
		}
		if head == nil {
			return out
		}
		idx, n := head.idx, 0
		for i := range partials {
			if bars := partials[i].buckets; len(bars) > 0 && bars[0].idx == idx {
				n, partials[i].buckets = n+bars[0].n, bars[1:]
			}
		}
		out = append(out, BucketCount{Start: b.Origin + float64(idx)*b.Width, Count: n})
	}
}

// ---------------------------------------------------------------------------
// Execution

// planRun is one bound plan in flight: its n target partitions
// (c.parts[lo:lo+n]) and one partial per target.
type planRun struct {
	plan     *aggPlan
	lo, n    int
	partials []aggPartial
}

// Sweep is the reusable memory of one execPlans sweep. A sweep's fixed
// cost — all there is to a sweep of one filter, which is what a
// micro-batch of one alarm asks for — is paid out of it, and so are the
// partials themselves (partialScratch). Every slice of a sweep at rest
// is zero up to its capacity (reset sees to it). The store's calls draw
// theirs from a pool; a caller that runs one sweep at a time and keeps
// its own (NewSweep, BucketCountsWith) holds its memory across a GC,
// which empties the pool.
type Sweep struct {
	runs     []planRun
	partials []aggPartial   // one slab for every run's partials
	touched  []bool         // per partition: it has partials to supply
	scratch  partialScratch // every visit's: they run one after another

	// What execPlans hands forEach: the collection being swept, and two
	// closures over the sweep itself, made once with it — a sweep costs
	// no closure.
	c     *Collection
	busy  func(pi int) bool
	visit func(pi int, p *partition) error

	// mergeGroups' memory: the merged groups, their positions by key and
	// how far into each partial the merge has drawn.
	merged []pGroup
	index  map[string]int32
	heads  []int

	// BucketCounts' plans: compiled conditions, filters and plans in one
	// slab each, the shared bucket, and the merged bars; countGroups'
	// plan, its filter and its signature.
	sig     []byte
	nodes   []node
	filters []filter
	plans   []aggPlan
	bound   []*aggPlan
	bucket  Bucket
	bars    []BucketCount
}

// NewSweep makes a sweep for BucketCountsWith, its two closures made
// once with it, so a sweep costs no closure.
func NewSweep() *Sweep {
	sw := new(Sweep)
	sw.busy = func(pi int) bool { return sw.touched[pi] }
	sw.visit = func(pi int, _ *partition) error { return sw.c.visit(sw, pi) }
	return sw
}

var sweepPool = sync.Pool{New: func() any { return NewSweep() }}

// reset drops what the sweep references (plans, partials, filter
// literals, group keys), keeping its memory.
func (sw *Sweep) reset() {
	sw.c = nil
	clear(sw.runs)
	clear(sw.partials)
	sc := &sw.scratch
	clear(sc.groups)
	sc.bars, sc.groups = sc.bars[:0], sc.groups[:0]
	clear(sw.merged)
	sw.merged = sw.merged[:0]
	clear(sw.index)
	clear(sw.nodes)
	clear(sw.plans)
	clear(sw.bound)
}

// release resets a pooled sweep and returns it to the pool.
func (sw *Sweep) release() {
	sw.reset()
	sweepPool.Put(sw)
}

// resized returns s with length n: its memory when large enough, else
// at least twice as much; the elements are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// execPlans prepares one run per plan and computes the partials of every
// run in one store sweep: filters pinned to one partition by a shard-key
// equality only visit that partition, and each touched partition's lock
// is taken once for the whole batch.
func (c *Collection) execPlans(sw *Sweep, plans []*aggPlan) ([]planRun, error) {
	runs := resized(sw.runs, len(plans))
	total := 0
	for i, plan := range plans {
		lo, hi := c.targetRange(plan.filter)
		runs[i] = planRun{plan: plan, lo: lo, n: hi - lo}
		total += hi - lo
	}
	sw.partials = resized(sw.partials, total)
	slab := sw.partials
	for i := range runs {
		n := runs[i].n
		runs[i].partials, slab = slab[:n:n], slab[n:]
	}
	sw.runs = runs
	sw.touched = resized(sw.touched, len(c.parts))
	clear(sw.touched)
	for ri := range runs {
		for pi := runs[ri].lo; pi < runs[ri].lo+runs[ri].n; pi++ {
			sw.touched[pi] = true
		}
	}
	sw.c = c
	return runs, c.forEach(0, len(c.parts), sw.busy, sw.visit)
}

// visit computes, under one read lock, every partial partition pi owes
// the sweep.
func (c *Collection) visit(sw *Sweep, pi int) error {
	runs, p, sc := sw.runs, c.parts[pi], &sw.scratch
	p.mu.RLock()
	defer p.mu.RUnlock()
	for ri := range runs {
		run := &runs[ri]
		slot := pi - run.lo
		if slot < 0 || slot >= run.n {
			continue
		}
		var err error
		if out := &run.partials[slot]; run.plan.bucket == nil {
			err = p.advance(run.plan, out, sc, &c.aggStats)
		} else {
			err = bucketPartial(p, run.plan, sc, out)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// BucketCounts histograms the documents of each conjunctive typed
// filter by b, all in one store sweep, with neither a filter document
// going in nor a result document coming out. visit is called once per
// filter, in order, with its bars in ascending bucket order; bars is
// reused between calls.
func (c *Collection) BucketCounts(filters [][]Cond, b Bucket, visit func(i int, bars []BucketCount)) error {
	sw := sweepPool.Get().(*Sweep)
	defer sw.release()
	return c.bucketCounts(sw, filters, b, visit)
}

// BucketCountsWith is BucketCounts out of the caller's sweep, which
// must not run two sweeps at once.
//
//alarmvet:hotpath
func (c *Collection) BucketCountsWith(sw *Sweep, filters [][]Cond, b Bucket, visit func(i int, bars []BucketCount)) error {
	defer sw.reset()
	return c.bucketCounts(sw, filters, b, visit)
}

// bucketCounts is BucketCounts' sweep in sw.
func (c *Collection) bucketCounts(sw *Sweep, filters [][]Cond, b Bucket, visit func(i int, bars []BucketCount)) error {
	if b.Width <= 0 {
		return fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
	}
	nodes := 0
	for _, conds := range filters {
		nodes += len(conds)
	}
	// One slab each for the compiled conditions, the filters and the
	// plans, all out of the sweep: a sweep of N filters allocates per
	// result, not per query, and nothing for being run.
	sw.bucket = b
	slot := c.dict.ref(b.Field)
	slab := resized(sw.nodes, nodes)[:0]
	sw.filters = resized(sw.filters, len(filters))
	sw.plans = resized(sw.plans, len(filters))
	sw.bound = resized(sw.bound, len(filters))
	for i, conds := range filters {
		start := len(slab)
		slab = compileConds(c.dict, conds, slab)
		sw.filters[i] = filter{nodes: slab[start:len(slab):len(slab)]}
		sw.plans[i] = aggPlan{filter: &sw.filters[i], slot: slot, bucket: &sw.bucket}
		sw.bound[i] = &sw.plans[i]
	}
	sw.nodes = slab
	runs, err := c.execPlans(sw, sw.bound)
	if err != nil {
		return err
	}
	rows := 0
	for i, run := range runs {
		sw.bars = mergeBuckets(&sw.bucket, run.partials, sw.bars[:0])
		for _, bar := range sw.bars {
			rows += bar.Count
		}
		visit(i, sw.bars)
	}
	c.aggStats.rowsBucketed.Add(int64(rows))
	return nil
}

// GroupCount is one group of a single-field count aggregation.
type GroupCount struct {
	Key   Cell // the group's field value (absent when its documents lack the field)
	Count int
}

// GroupCounts counts the documents per value of one field —
// Aggregate(nil, Group{By: {field}, Accs: {n: count}}) for typed
// callers, in the same order, from the same partials — and appends the
// groups to dst. The caller owns dst: one reused across asks makes an
// ask allocate nothing.
func (c *Collection) GroupCounts(field string, dst []GroupCount) ([]GroupCount, error) {
	err := c.countGroups(nil, field, func(groups []pGroup) {
		dst = slices.Grow(dst, len(groups))
		for i := range groups {
			dst = append(dst, GroupCount{Key: groups[i].key, Count: groups[i].count})
		}
	})
	return dst, err
}

// countGroups counts the documents matching conds per value of field
// from the partitions' cached partials and hands the merged groups to
// emit, which must copy out what it keeps: they live in a pooled sweep.
// The partials are cached under a signature of the field and the
// conditions that prints numbers filters treat as equal (1 and 1.0)
// alike: equal signatures mean equal answers.
func (c *Collection) countGroups(conds []Cond, field string, emit func([]pGroup)) error {
	sw := sweepPool.Get().(*Sweep)
	defer sw.release()
	// The plan, its filter and its signature live in the sweep, so an
	// ask allocates none of them.
	sig := strconv.AppendQuote(sw.sig[:0], field)
	for _, cd := range conds {
		sig = strconv.AppendQuote(append(sig, '|'), cd.Field)
		sig = append(append(sig, cd.Op...), byte('0'+cd.Value.rank()))
		if cd.Value.rank() == 2 {
			sig = strconv.AppendFloat(sig, cd.Value.Num(), 'g', -1, 64)
		} else {
			sig = strconv.AppendQuote(sig, cd.Value.str)
		}
	}
	sw.sig = sig
	sw.nodes = compileConds(c.dict, conds, sw.nodes[:0])
	sw.filters = resized(sw.filters, 1)
	sw.filters[0] = filter{nodes: sw.nodes}
	sw.plans = resized(sw.plans, 1)
	sw.plans[0] = aggPlan{filter: &sw.filters[0], slot: c.dict.ref(field), sig: sig}
	sw.bound = resized(sw.bound, 1)
	sw.bound[0] = &sw.plans[0]
	runs, err := c.execPlans(sw, sw.bound)
	if err != nil {
		return err
	}
	emit(mergeGroups(sw, runs[0].partials))
	return nil
}
