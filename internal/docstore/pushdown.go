package docstore

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Analytics pushdown.
//
// Streaming a pipeline — building a document for every matched row of
// every partition and running the stages centrally — is the executable
// specification of Aggregate, and lives on as the test battery's oracle
// (aggregateStreaming, pushdown_test.go). For the batch analytics of
// §4.1 (per-device alarm histograms, group-by statistics, top-device
// queries) the answer is a handful of groups or buckets, so this file
// computes it inside the partitions instead, off the typed columns. The
// planner decomposes a pipeline into a per-partition PARTIAL plan plus
// a central MERGE:
//
//   - leading Match stages fold into the compiled scan filter;
//   - Group accumulators compute as mergeable partials — count/sum as
//     sums, avg as (sum, n) pairs, min/max by pairwise compare with
//     document-id tie-breaks, first by smallest document id;
//   - Bucket histograms compute as per-partition sorted (index, count) runs;
//   - SortStage+Limit compute as per-partition top-K heaps, so only K
//     documents per partition are ever built;
//   - a bare scan prefix (optional Limit) builds only the selected
//     documents.
//
// Partials and their merge stay typed; documents are boxed from the
// merged result as the last step, by the calls that return documents
// (BucketCounts and GroupCounts hand the typed result out as it is).
// Partials execute with one lock acquisition per touched partition
// (execPlans). The group and bucket partials of Doc-filtered plans stay
// behind in the partition and are advanced over the rows appended
// since, not computed again (optimistic.go). A pipeline headed by a
// stage the planner cannot push is refused (ErrBadFilter): there is no
// second execution path to keep equivalent.

// planKind names how Aggregate executes a pipeline: the shape of the
// per-partition partials the merge combines.
type planKind string

// The planner's execution shapes.
const (
	// planScan is a filtered scan with an optional pushed Limit:
	// partitions return (id, doc) pairs merged by insertion id.
	planScan planKind = "scan"
	// planGroup pushes Group accumulators down as mergeable partials.
	planGroup planKind = "group"
	// planBucket pushes Bucket down as per-partition sorted bars.
	planBucket planKind = "bucket"
	// planTopK pushes SortStage (+ optional Limit) down as
	// per-partition top-K selections.
	planTopK planKind = "topk"
)

// aggPlan is one planned pipeline: the partition-local partial shape
// plus the central tail, then — once bound to a collection — the
// compiled filter and the slots of every field the partial reads.
type aggPlan struct {
	scanFilter Doc      // base filter ∧ folded leading Match filters
	kind       planKind // scan | group | bucket | topk
	group      *Group
	bucket     *Bucket
	sortField  string
	sortDesc   bool
	limit      int     // top-K bound / scan limit; -1 = unbounded
	tail       []Stage // stages applied centrally after the merge

	filter *filter    // scanFilter (or the typed conditions), compiled
	typed  bool       // built from []Cond: no Doc to derive a cache key from
	refs   []fieldRef // group By fields | bucket field | sort field
	accs   []planAcc  // group accumulators, by output name
}

// planAcc is one Group accumulator bound to its source field.
type planAcc struct {
	out, op string
	ref     fieldRef
}

// bind compiles the plan against a collection's field dictionary.
func (p *aggPlan) bind(d *fieldDict) *aggPlan {
	if p.filter == nil {
		p.filter = compileFilter(d, p.scanFilter)
	}
	var fields []string
	switch p.kind {
	case planGroup:
		fields = p.group.By
		for out, acc := range p.group.Accs {
			p.accs = append(p.accs, planAcc{out: out, op: acc.Op, ref: d.ref(acc.Field)})
		}
		sort.Slice(p.accs, func(i, j int) bool { return p.accs[i].out < p.accs[j].out })
	case planBucket:
		fields = []string{p.bucket.Field}
	case planTopK:
		fields = []string{p.sortField}
	}
	p.refs = make([]fieldRef, len(fields))
	for i, f := range fields {
		p.refs[i] = d.ref(f)
	}
	return p
}

// planAggregate decomposes a pipeline. The error is the upfront
// validation error the head stage would raise applied centrally, or
// ErrBadFilter for a head that is not a stage of this package.
func planAggregate(filter Doc, stages []Stage) (*aggPlan, error) {
	plan := &aggPlan{scanFilter: filter, limit: -1}
	i := 0
	// Fold leading Match stages into the scan filter: a filter's $and
	// evaluates sub-filters in order with short-circuiting, so the
	// folded scan errors on exactly the documents the staged Match
	// evaluation would have errored on.
	var folded []Doc
	if len(filter) > 0 {
		folded = append(folded, filter)
	}
	for ; i < len(stages); i++ {
		m, isMatch := stages[i].(Match)
		if !isMatch {
			break
		}
		if len(m.Filter) > 0 {
			folded = append(folded, m.Filter)
		}
	}
	switch len(folded) {
	case 0:
		plan.scanFilter = nil
	case 1:
		plan.scanFilter = folded[0]
	default:
		subs := make([]any, len(folded))
		for j, f := range folded {
			subs[j] = map[string]any(f)
		}
		plan.scanFilter = Doc{"$and": subs}
	}

	if i == len(stages) {
		plan.kind = planScan
		return plan, nil
	}
	switch head := stages[i].(type) {
	case Group:
		if err := head.validate(); err != nil {
			return nil, err
		}
		g := head
		plan.kind = planGroup
		plan.group = &g
		plan.tail = stages[i+1:]
		return plan, nil
	case Bucket:
		if head.Width <= 0 {
			return nil, fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
		}
		b := head
		plan.kind = planBucket
		plan.bucket = &b
		plan.tail = stages[i+1:]
		return plan, nil
	case SortStage:
		plan.kind = planTopK
		plan.sortField, plan.sortDesc = head.Field, false
		if strings.HasPrefix(plan.sortField, "-") {
			plan.sortField, plan.sortDesc = plan.sortField[1:], true
		}
		i++
		if i < len(stages) {
			if l, isLimit := stages[i].(Limit); isLimit {
				if l.N < 0 {
					return nil, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, l.N)
				}
				plan.limit = l.N
				i++
			}
		}
		plan.tail = stages[i:]
		return plan, nil
	case Limit:
		// The global first N by id is a subset of the per-partition
		// first N by id, so the limit commutes with the id-ordered merge.
		if head.N < 0 {
			return nil, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, head.N)
		}
		plan.kind = planScan
		plan.limit = head.N
		plan.tail = stages[i+1:]
		return plan, nil
	default:
		// Not a stage of this package (Match cannot reach here — the
		// folding loop consumed every leading Match): nothing to push,
		// and no other way to run it.
		return nil, fmt.Errorf("%w: cannot plan a pipeline headed by %T", ErrBadFilter, head)
	}
}

// validate checks Group's accumulator ops — the same upfront check
// Group.apply performs, shared so the pushdown path raises the
// identical error without scanning.
func (g Group) validate() error {
	for out, acc := range g.Accs {
		switch acc.Op {
		case "count", "sum", "avg", "min", "max", "first":
		default:
			return fmt.Errorf("%w: unknown accumulator %q for %s", ErrBadFilter, acc.Op, out)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Partial results

// pGroup is one group's mergeable state — in a partition's partial and,
// after the merge, in the typed result the documents are boxed from.
// Every captured value is cloned out of the store under the partition
// lock, so a partial outlives the lock and may stay behind in the
// partition's cache.
type pGroup struct {
	ks    string     // the group's equivalence class: the oracle's %v key
	key   []Cell     // By-field values of the group's smallest-id document
	minID int64      // that document's id
	count int        //
	accs  []accState // one per plan accumulator, in plan.accs order
}

// accState is one accumulator's state: sum and n for sum/avg, the
// chosen value and the id of the document it came from (the tie-break)
// for min/max/first.
type accState struct {
	sum float64
	n   int
	val Cell
	id  int64
}

// bucketCount is one histogram bar: the bucket index and its count.
type bucketCount struct{ idx, n int }

// topDoc is a top-K survivor: its id, sort key and document.
type topDoc struct {
	id  int64
	key Cell
	doc Doc
}

// aggPartial is one partition's contribution to a pushed aggregation.
// Exactly one of the per-kind fields is populated. It belongs to the
// sweep that asked for it: groups and buckets are views into the
// sweep's slabs — of a cached partial, a copy taken under its lock —
// so the merge may take them apart; only boxed values may still be
// shared with a cached partial, and are cloned on the way out.
type aggPartial struct {
	groups  []pGroup      // group: in ascending minID order
	buckets []bucketCount // bucket: in ascending idx order
	top     []topDoc      // topk: sorted by (sort key, id), clipped to K
	scan    []match       // scan: sorted by id, clipped to the scan limit
	// matched records whether the scan saw any matching doc before the
	// limit clip — the merge needs it to reproduce the oracle's
	// nil-versus-empty-slice distinction (Find returns nil on zero
	// matches; Limit over a non-empty match set returns a non-nil
	// empty slice).
	matched bool
}

// partialScratch is what a sweep's partition visits, one after another,
// reuse across the plans they compute, and where their group and bucket
// partials live: a sweep of several hundred per-device histograms then
// allocates nothing per query. Each slab holds the sweep's partials
// back to back; a view taken before a slab grew keeps the old array.
type partialScratch struct {
	idx    []int         // a bucket plan's new rows' bucket indexes
	key    []byte        // a group's class key under construction
	bars   []bucketCount // the bucket partials
	groups []pGroup      // the group partials
	accs   []accState    // those groups' accumulators
}

// groupPartial folds the rows from row from on into the cached partial
// e — rows come in ascending id order, so the fold is the tail of the
// one a scan from row 0 performs — and copies the result into out.
func groupPartial(p *partition, plan *aggPlan, e *aggEntry, from int, sc *partialScratch, out *aggPartial) error {
	single := len(plan.refs) == 1
	err := p.forEachMatch(plan.filter, from, func(r int) {
		// The class key is what the streaming Group stage builds with
		// fmt's %v, NUL-terminated per field — except that one string
		// field is its own key, with nothing to build.
		var gi int32
		var ok bool
		var str Cell
		if single {
			str = p.cell(r, plan.refs[0])
		}
		if str.kind == kindString {
			gi, ok = e.index[str.str]
		} else {
			sc.key = sc.key[:0]
			for _, f := range plan.refs {
				sc.key = appendGroupKey(sc.key, p.cell(r, f))
				if !single {
					sc.key = append(sc.key, 0)
				}
			}
			gi, ok = e.index[string(sc.key)]
		}
		if !ok {
			// Rows come in ascending id order, so a group's first row is
			// its smallest id: its key values are the group's identity.
			g := pGroup{minID: p.ids[r], key: carveFrom(&e.cells, len(plan.refs)), accs: carveFrom(&e.accs, len(plan.accs))}
			for i, f := range plan.refs {
				g.key[i] = p.cell(r, f)
				g.key[i].box = cloneValue(g.key[i].box)
			}
			if g.ks = str.str; str.kind != kindString {
				g.ks = e.classKey(sc.key)
			}
			gi = int32(len(e.groups))
			e.index[g.ks] = gi
			e.groups = append(e.groups, g)
		}
		g := &e.groups[gi]
		g.count++
		for i := range plan.accs {
			acc := &plan.accs[i]
			if acc.op == "count" {
				continue
			}
			if v := p.cell(r, acc.ref); v.kind != kindAbsent {
				v.box = cloneValue(v.box)
				g.accs[i].fold(acc.op, v, p.ids[r])
			}
		}
	})
	if err != nil {
		return err
	}
	// The copy the sweep merges from: the groups, then their
	// accumulators, which later folds update in place.
	start := len(sc.groups)
	sc.groups = append(sc.groups, e.groups...)
	out.groups = sc.groups[start:len(sc.groups):len(sc.groups)]
	if len(plan.accs) > 0 {
		for i := range out.groups {
			g, at := &out.groups[i], len(sc.accs)
			sc.accs = append(sc.accs, g.accs...)
			g.accs = sc.accs[at:len(sc.accs):len(sc.accs)]
		}
	}
	return nil
}

// fold merges one candidate — a row's value, or another partial's
// state — into the accumulator. min and max keep the first of
// compare-equal values, first keeps the smallest id: what the
// id-ordered streaming scan would have kept.
func (a *accState) fold(op string, v Cell, id int64) {
	switch op {
	case "sum", "avg":
		a.sum += v.Num()
		a.n++
		return
	}
	take := a.n == 0
	if !take {
		switch c := compareCells(v, a.val); op {
		case "min":
			take = c < 0 || (c == 0 && id < a.id)
		case "max":
			take = c > 0 || (c == 0 && id < a.id)
		case "first":
			take = id < a.id
		}
	}
	if take {
		a.val, a.id, a.n = v, id, 1
	}
}

// appendGroupKey appends a group-key component in exactly the
// representation the streaming Group stage uses (fmt's %v verb) —
// grouping equivalence classes must match the oracle bit for bit —
// without boxing or allocating for the typed kinds.
func appendGroupKey(b []byte, c Cell) []byte {
	switch c.kind {
	case kindAbsent:
		return append(b, "<nil>"...)
	case kindString:
		return append(b, c.str...)
	case kindBool:
		return strconv.AppendBool(b, c.num != 0)
	case kindInt, kindInt64:
		return strconv.AppendInt(b, int64(c.num), 10)
	case kindFloat:
		// fmt's %v for float64 is strconv's shortest 'g' form.
		return strconv.AppendFloat(b, c.Num(), 'g', -1, 64)
	default:
		return fmt.Appendf(b, "%v", c.box)
	}
}

// bucketPartial counts the rows from row from on as sorted runs of
// bucket indexes — a run of one index is a bar — and writes their bars,
// merged in bucket order into held (a cached partial's bars, or none),
// into the sweep's slab.
//
//alarmvet:hotpath
func bucketPartial(p *partition, plan *aggPlan, held []bucketCount, from int, sc *partialScratch, out *aggPartial) error {
	b, ref := plan.bucket, plan.refs[0]
	sc.idx = sc.idx[:0]
	err := p.forEachMatch(plan.filter, from, func(r int) {
		if v := p.cell(r, ref); v.rank() == 2 {
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
		for len(held) > 0 && held[0].idx < bar.idx {
			sc.bars, held = append(sc.bars, held[0]), held[1:]
		}
		if len(held) > 0 && held[0].idx == bar.idx {
			bar.n, held = bar.n+held[0].n, held[1:]
		}
		sc.bars = append(sc.bars, bar)
	}
	sc.bars = append(sc.bars, held...)
	out.buckets = sc.bars[start:len(sc.bars):len(sc.bars)]
	return nil
}

// topkElem is a top-K candidate held during the in-lock selection:
// the row, its id and its sort-key value (the document is built only
// if the row survives the selection).
type topkElem struct {
	id  int64
	key Cell
	row int
}

// topkWorse reports whether a ranks strictly after b in the result
// order (sort key, descending when desc, ties broken by ascending id —
// the order a stable central sort over the id-ordered stream yields).
func topkWorse(aKey Cell, aID int64, bKey Cell, bID int64, desc bool) bool {
	if c := compareCells(aKey, bKey); c != 0 {
		return (c < 0) == desc
	}
	return aID > bID
}

func topkPartial(p *partition, plan *aggPlan, out *aggPartial) error {
	k, desc := plan.limit, plan.sortDesc
	worse := func(a, b topkElem) bool { return topkWorse(a.key, a.id, b.key, b.id, desc) }
	var kept []topkElem // bounded: a max-heap by worse, the root the worst kept
	err := p.forEachMatch(plan.filter, 0, func(r int) {
		e := topkElem{id: p.ids[r], key: p.cell(r, plan.refs[0]), row: r}
		switch {
		case k < 0 || len(kept) < k:
			kept = append(kept, e)
			if k >= 0 {
				siftUp(kept, len(kept)-1, worse)
			}
		case k > 0 && worse(kept[0], e):
			kept[0] = e
			siftDown(kept, 0, worse)
		}
	})
	if err != nil {
		return err
	}
	sort.Slice(kept, func(i, j int) bool { return worse(kept[j], kept[i]) })
	out.top = make([]topDoc, len(kept))
	for i, e := range kept {
		e.key.box = cloneValue(e.key.box)
		out.top[i] = topDoc{id: e.id, key: e.key, doc: p.doc(e.row)}
	}
	return nil
}

// siftUp/siftDown maintain the bounded top-K max-heap (ordered by
// worse, so the root is the element to evict first).
func siftUp(h []topkElem, i int, worse func(a, b topkElem) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []topkElem, i int, worse func(a, b topkElem) bool) {
	n := len(h)
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < n && worse(h[l], h[worst]) {
			worst = l
		}
		if r < n && worse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

func scanPartial(p *partition, plan *aggPlan, out *aggPartial) error {
	rows, err := p.matchingRows(plan.filter)
	if err != nil {
		return err
	}
	out.matched = len(rows) > 0
	if plan.limit >= 0 && len(rows) > plan.limit {
		// The global first N by id is a subset of each partition's
		// first N by id, so clipping here loses nothing.
		rows = rows[:plan.limit]
	}
	out.scan = make([]match, len(rows))
	for i, r := range rows {
		out.scan[i] = match{id: p.ids[r], doc: p.doc(r)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Merge
//
// Partials merge typed — groups stay pGroups, bars stay (index, count)
// pairs — and are boxed into documents as the last step, by the calls
// that return documents. When shared is true (the partials are copies
// of cached ones), every boxed value is cloned on the way out.

// mergeDocs merges a run's partials into the pre-tail document set.
func mergeDocs(sw *sweep, run *planRun) []Doc {
	plan, shared := run.plan, run.sig != ""
	switch plan.kind {
	case planGroup:
		return groupDocs(plan, mergeGroups(sw, run), shared)
	case planBucket:
		bars := mergeBuckets(plan.bucket, run.partials, nil)
		out := make([]Doc, len(bars))
		for i, b := range bars {
			out[i] = Doc{"bucket": b.Start, "count": b.Count}
		}
		return out
	case planTopK:
		return mergeTopK(plan, run.partials)
	default:
		return mergeScan(plan, run.partials)
	}
}

// mergeGroups folds the partitions' groups together, in the order the
// streaming oracle emits them: first-seen over the id-ordered stream —
// exactly ascending smallest-member id. Every partial is in that order
// already, so the merge draws the group with the smallest first id
// among the partials' heads: groups arrive in the merged order, and a
// class's first sighting is its smallest id. The partials of one class
// fold in the order of their first ids, which keeps the float merge
// deterministic run-to-run; with exactly-representable sums it is also
// equal to the oracle's id-ordered accumulation. The result lives in
// the sweep until its next merge.
func mergeGroups(sw *sweep, run *planRun) []pGroup {
	plan, partials := run.plan, run.partials
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
		mi, ok := sw.index[pg.ks]
		if !ok {
			sw.index[pg.ks] = int32(len(merged))
			merged = append(merged, *pg)
			continue
		}
		mg := &merged[mi]
		mg.count += pg.count
		for j := range pg.accs {
			switch a := &pg.accs[j]; {
			case a.n == 0:
			case plan.accs[j].op == "sum" || plan.accs[j].op == "avg":
				mg.accs[j].sum += a.sum
				mg.accs[j].n += a.n
			default:
				mg.accs[j].fold(plan.accs[j].op, a.val, a.id)
			}
		}
	}
	sw.merged = merged
	return merged
}

func groupDocs(plan *aggPlan, groups []pGroup, shared bool) []Doc {
	emit := func(c Cell) any {
		if shared {
			return cloneValue(c.value())
		}
		return c.value()
	}
	out := make([]Doc, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		d := make(Doc, len(g.key)+len(g.accs))
		for i, f := range plan.group.By {
			setPath(d, f, emit(g.key[i]))
		}
		for i, acc := range plan.accs {
			switch a := g.accs[i]; acc.op {
			case "count":
				d[acc.out] = g.count
			case "sum":
				d[acc.out] = a.sum
			case "avg":
				if a.n > 0 {
					d[acc.out] = a.sum / float64(a.n)
				} else {
					d[acc.out] = 0.0
				}
			default: // min, max, first: nil when no document carried the field
				d[acc.out] = emit(a.val)
			}
		}
		out = append(out, d)
	}
	return out
}

// BucketCount is one bar of a pushed-down Bucket aggregation: the
// bucket's lower bound and how many documents fell into it.
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

func mergeTopK(plan *aggPlan, partials []aggPartial) []Doc {
	var all []topDoc
	for _, part := range partials {
		all = append(all, part.top...)
	}
	sort.Slice(all, func(i, j int) bool {
		return topkWorse(all[j].key, all[j].id, all[i].key, all[i].id, plan.sortDesc)
	})
	if plan.limit >= 0 && len(all) > plan.limit {
		all = all[:plan.limit]
	}
	out := make([]Doc, len(all))
	for i, e := range all {
		out[i] = e.doc
	}
	return out
}

func mergeScan(plan *aggPlan, partials []aggPartial) []Doc {
	results := make([][]match, len(partials))
	for i, part := range partials {
		results[i] = part.scan
	}
	all := mergeByID(results)
	if plan.limit >= 0 && len(all) > plan.limit {
		all = all[:plan.limit]
	}
	if len(all) == 0 {
		// Mirror the oracle's nil/empty distinction: Limit over a
		// non-empty match set yields a non-nil empty slice, but a plain
		// scan with zero matches yields nil (Find's contract).
		anyMatched := false
		for _, part := range partials {
			anyMatched = anyMatched || part.matched
		}
		if plan.limit >= 0 && anyMatched {
			return []Doc{}
		}
		return nil
	}
	out := make([]Doc, len(all))
	for i, m := range all {
		out[i] = m.doc
	}
	return out
}

// ---------------------------------------------------------------------------
// Plan signatures (cache keys)

// cacheable reports whether the partitions keep the plan's partials
// (optimistic.go): group and bucket plans whose filter is a Doc. A
// typed plan has no Doc to derive a key from, and building one would
// cost more than the index probe and count it saved; a top-K or scan
// partial holds documents, not a fold.
func (p *aggPlan) cacheable() bool {
	return !p.typed && (p.kind == planGroup || p.kind == planBucket)
}

// signature canonicalizes a bound plan into the key its partials are
// cached under, "" for a plan that is computed on every call. Equal
// keys mean equal answers: names are quoted, accumulators come in
// p.accs' sorted order, and the filter prints in fmt's %#v form, which
// sorts map keys and prints numbers that filters treat as equal (1 and
// 1.0) alike.
func (p *aggPlan) signature() string {
	if !p.cacheable() {
		return ""
	}
	var buf [128]byte
	b := append(buf[:0], p.kind...)
	if p.kind == planBucket {
		b = strconv.AppendQuote(append(b, '|'), p.bucket.Field)
		b = strconv.AppendFloat(append(b, ','), p.bucket.Origin, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ','), p.bucket.Width, 'g', -1, 64)
	}
	if p.kind == planGroup {
		for _, f := range p.group.By {
			b = strconv.AppendQuote(append(b, '|'), f)
		}
		for _, acc := range p.accs {
			b = strconv.AppendQuote(append(b, ';'), acc.out)
			b = strconv.AppendQuote(append(b, acc.op...), p.group.Accs[acc.out].Field)
		}
	}
	if len(p.scanFilter) > 0 {
		b = fmt.Appendf(append(b, '|'), "%#v", map[string]any(p.scanFilter))
	}
	return string(b)
}

// ---------------------------------------------------------------------------
// Execution

// planRun is one bound plan in flight: its n target partitions
// (c.parts[lo:lo+n]), one partial per target, and the key its partials
// are cached under ("": they are not).
type planRun struct {
	plan     *aggPlan
	lo, n    int
	partials []aggPartial
	sig      string
}

// sweep is the reusable memory of one execPlans sweep, and of the
// typed plans BucketCounts builds for one. A sweep's fixed cost — all
// there is to a sweep of one filter, which is what a micro-batch of
// one alarm asks for — is paid out of it, and so are the group and
// bucket partials themselves (partialScratch). Sweeps are pooled, and
// every slice of a pooled sweep is zero up to its capacity (release
// sees to it).
type sweep struct {
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
	// slab each, the shared bucket and its field, and the merged bars.
	nodes   []node
	filters []filter
	plans   []aggPlan
	bound   []*aggPlan
	bucket  Bucket
	refs    [1]fieldRef
	bars    []BucketCount
}

var sweepPool = sync.Pool{New: func() any {
	sw := new(sweep)
	sw.busy = func(pi int) bool { return sw.touched[pi] }
	sw.visit = func(pi int, _ *partition) error { return sw.c.visit(sw, pi) }
	return sw
}}

// release drops what the sweep references (plans, partials, filter
// literals, group keys) and returns it to the pool.
func (sw *sweep) release() {
	sw.c = nil
	clear(sw.runs)
	clear(sw.partials)
	sc := &sw.scratch
	clear(sc.groups)
	clear(sc.accs)
	sc.bars, sc.groups, sc.accs = sc.bars[:0], sc.groups[:0], sc.accs[:0]
	clear(sw.merged)
	sw.merged = sw.merged[:0]
	clear(sw.index)
	clear(sw.nodes)
	clear(sw.plans)
	clear(sw.bound)
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

// newRuns prepares one run per plan.
func (c *Collection) newRuns(sw *sweep, plans []*aggPlan) []planRun {
	runs := resized(sw.runs, len(plans))
	total := 0
	for i, plan := range plans {
		run := &runs[i]
		run.plan = plan
		lo, hi := c.targetRange(plan.filter)
		run.lo, run.n = lo, hi-lo
		run.sig = plan.signature()
		total += run.n
	}
	sw.partials = resized(sw.partials, total)
	slab := sw.partials
	for i := range runs {
		n := runs[i].n
		runs[i].partials, slab = slab[:n:n], slab[n:]
	}
	sw.runs = runs
	return runs
}

// execPlans computes the partials of every run in one store sweep:
// filters pinned to one partition by a shard-key equality only visit
// that partition, and each touched partition's lock is taken once for
// the whole batch.
func (c *Collection) execPlans(sw *sweep, runs []planRun) error {
	sw.touched = resized(sw.touched, len(c.parts))
	clear(sw.touched)
	for ri := range runs {
		for pi := runs[ri].lo; pi < runs[ri].lo+runs[ri].n; pi++ {
			sw.touched[pi] = true
		}
	}
	sw.c = c
	return c.forEach(0, len(c.parts), sw.busy, sw.visit)
}

// visit computes, under one read lock, every partial partition pi owes
// the sweep.
func (c *Collection) visit(sw *sweep, pi int) error {
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
		switch out := &run.partials[slot]; {
		case run.sig != "":
			err = p.advance(run, out, sc, &c.aggStats)
		case run.plan.kind == planBucket:
			err = bucketPartial(p, run.plan, nil, 0, sc, out)
		case run.plan.kind == planTopK:
			err = topkPartial(p, run.plan, out)
		default:
			err = scanPartial(p, run.plan, out)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// AggregateMulti answers many aggregations sharing one stage pipeline
// in a single store sweep (execPlans): result i is exactly what
// Aggregate(filters[i], stages...) would return against the same
// store state, so a micro-batch of per-device aggregations costs one
// sweep, or nothing, instead of N. A pipeline the planner cannot push
// is ErrBadFilter.
func (c *Collection) AggregateMulti(filters []Doc, stages ...Stage) ([][]Doc, error) {
	out := make([][]Doc, len(filters))
	plans := make([]*aggPlan, len(filters))
	for i, filter := range filters {
		plan, err := planAggregate(filter, stages)
		if err != nil {
			return nil, err
		}
		plans[i] = plan.bind(c.dict)
	}
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	runs := c.newRuns(sw, plans)
	if err := c.execPlans(sw, runs); err != nil {
		return nil, err
	}
	for i := range runs {
		run := &runs[i]
		docs, err := applyStages(mergeDocs(sw, run), run.plan.tail)
		if err != nil {
			return nil, err
		}
		out[i] = docs
	}
	return out, nil
}

func applyStages(docs []Doc, stages []Stage) ([]Doc, error) {
	var err error
	for _, s := range stages {
		docs, err = s.apply(docs)
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// BucketCounts is AggregateMulti(filters, b) for typed callers: one
// Bucket aggregation per conjunctive typed filter, all in one store
// sweep, with neither a filter document going in nor a result document
// coming out. visit is called once per filter, in order, with its bars
// in ascending bucket order; bars is reused between calls.
func (c *Collection) BucketCounts(filters [][]Cond, b Bucket, visit func(i int, bars []BucketCount)) error {
	if b.Width <= 0 {
		return fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
	}
	nodes := 0
	for _, conds := range filters {
		nodes += len(conds)
	}
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	// One slab each for the compiled conditions, the filters and the
	// plans, all out of the pooled sweep: a sweep of N filters
	// allocates per result, not per query, and nothing for being run.
	sw.bucket, sw.refs[0] = b, c.dict.ref(b.Field)
	slab := resized(sw.nodes, nodes)[:0]
	sw.filters = resized(sw.filters, len(filters))
	sw.plans = resized(sw.plans, len(filters))
	sw.bound = resized(sw.bound, len(filters))
	for i, conds := range filters {
		start := len(slab)
		slab = compileConds(c.dict, conds, slab)
		sw.filters[i] = filter{nodes: slab[start:len(slab):len(slab)]}
		sw.plans[i] = aggPlan{kind: planBucket, bucket: &sw.bucket, limit: -1, filter: &sw.filters[i], typed: true, refs: sw.refs[:]}
		sw.bound[i] = &sw.plans[i]
	}
	sw.nodes = slab
	runs := c.newRuns(sw, sw.bound)
	if err := c.execPlans(sw, runs); err != nil {
		return err
	}
	for i, run := range runs {
		sw.bars = mergeBuckets(&sw.bucket, run.partials, sw.bars[:0])
		visit(i, sw.bars)
	}
	return nil
}

// GroupCount is one group of a single-field count aggregation.
type GroupCount struct {
	Key   Cell // the group's field value (absent when its documents lack the field)
	Count int
}

// GroupCounts counts the documents matching filter per value of one
// field — Aggregate(filter, Group{By: {field}, Accs: {n: count}}) for
// typed callers, in the same order, from the same partials.
func (c *Collection) GroupCounts(filter Doc, field string) ([]GroupCount, error) {
	plan, err := planAggregate(filter, []Stage{Group{By: []string{field}}})
	if err != nil {
		return nil, err
	}
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	runs := c.newRuns(sw, []*aggPlan{plan.bind(c.dict)})
	if err := c.execPlans(sw, runs); err != nil {
		return nil, err
	}
	groups := mergeGroups(sw, &runs[0])
	out := make([]GroupCount, len(groups))
	for i := range groups {
		out[i] = GroupCount{Key: groups[i].key[0], Count: groups[i].count}
	}
	return out, nil
}
