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
// The streaming Aggregate path (AggregateStreaming) builds a document
// for every matched row of every partition and runs the stage pipeline
// centrally. For the batch analytics of §4.1 (per-device alarm
// histograms, group-by statistics, top-device queries) the answer is a
// handful of groups or buckets, so this file computes it inside the
// partitions instead, off the typed columns. The planner decomposes a
// pipeline into a per-partition PARTIAL plan plus a central MERGE:
//
//   - leading Match stages fold into the compiled scan filter;
//   - Group accumulators compute as mergeable partials — count/sum as
//     sums, avg as (sum, n) pairs, min/max by pairwise compare with
//     document-id tie-breaks, first by smallest document id;
//   - Bucket histograms compute as per-partition (index, count) pairs;
//   - SortStage+Limit compute as per-partition top-K heaps, so only K
//     documents per partition are ever built;
//   - a bare scan prefix (optional Project / Limit) builds only the
//     selected documents, or just their projected fields.
//
// Partials and their merge stay typed; documents are boxed from the
// merged result as the last step, by the calls that return documents
// (BucketCounts and GroupCounts hand the typed result out as it is).
// Partials execute with one lock acquisition and one simulated store
// round-trip per touched partition (execPlans). Bounded partials of
// Doc-filtered plans additionally publish to the partition's
// seqlock-style snapshot cache (optimistic.go). Stage shapes the
// planner cannot push (custom Stage implementations) fall back to
// AggregateStreaming — the streaming path stays alive as the
// equivalence oracle the test battery pins this engine against.

// PlanKind names how Aggregate executes a pipeline.
type PlanKind string

// The planner's execution shapes. Every kind except PlanStreaming
// runs per-partition partials merged centrally.
const (
	// PlanScan is a filtered scan with an optional pushed Project and
	// Limit: partitions return (id, doc) pairs merged by insertion id.
	PlanScan PlanKind = "scan"
	// PlanGroup pushes Group accumulators down as mergeable partials.
	PlanGroup PlanKind = "group"
	// PlanBucket pushes Bucket down as per-partition count maps.
	PlanBucket PlanKind = "bucket"
	// PlanTopK pushes SortStage (+ optional Limit) down as
	// per-partition top-K selections.
	PlanTopK PlanKind = "topk"
	// PlanStreaming is the fallback: Find everything, run the stage
	// pipeline centrally (AggregateStreaming).
	PlanStreaming PlanKind = "streaming"
)

// PlanInfo describes how Aggregate would execute a pipeline — the
// explain output the planner tests and docs build on.
type PlanInfo struct {
	// Kind is the partial shape pushed into the partitions
	// (PlanStreaming when nothing pushes down).
	Kind PlanKind
	// PushedStages counts pipeline stages folded into the partial plan
	// (leading Match stages, the Group/Bucket/Sort head, an absorbed
	// Limit or Project).
	PushedStages int
	// CentralStages counts stages applied centrally after the merge.
	CentralStages int
	// Cacheable reports whether the partials publish to the partition
	// snapshot caches (bounded partials with canonicalizable specs).
	Cacheable bool
}

// Explain reports the execution plan Aggregate would choose for the
// pipeline, without running it.
func (c *Collection) Explain(filter Doc, stages ...Stage) PlanInfo {
	plan, ok, err := planAggregate(filter, stages)
	if !ok || err != nil {
		return PlanInfo{Kind: PlanStreaming, CentralStages: len(stages)}
	}
	_, cacheable := plan.signature()
	return PlanInfo{
		Kind:          plan.kind,
		PushedStages:  plan.pushed,
		CentralStages: len(plan.tail),
		Cacheable:     cacheable,
	}
}

// aggPlan is one planned pipeline: the partition-local partial shape
// plus the central tail, then — once bound to a collection — the
// compiled filter and the slots of every field the partial reads.
type aggPlan struct {
	scanFilter Doc      // base filter ∧ folded leading Match filters
	kind       PlanKind // scan | group | bucket | topk
	group      *Group
	bucket     *Bucket
	sortField  string
	sortDesc   bool
	limit      int // top-K bound / scan limit; -1 = unbounded
	project    *Project
	tail       []Stage // stages applied centrally after the merge
	pushed     int     // pipeline stages folded into the partial plan

	filter *filter    // scanFilter (or the typed conditions), compiled
	typed  bool       // built from []Cond: no Doc to derive a cache key from
	refs   []fieldRef // group By fields | bucket field | sort field | project fields
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
	case PlanGroup:
		fields = p.group.By
		for out, acc := range p.group.Accs {
			p.accs = append(p.accs, planAcc{out: out, op: acc.Op, ref: d.ref(acc.Field)})
		}
		sort.Slice(p.accs, func(i, j int) bool { return p.accs[i].out < p.accs[j].out })
	case PlanBucket:
		fields = []string{p.bucket.Field}
	case PlanTopK:
		fields = []string{p.sortField}
	default:
		if p.project != nil {
			fields = p.project.Fields
		}
	}
	p.refs = make([]fieldRef, len(fields))
	for i, f := range fields {
		p.refs[i] = d.ref(f)
	}
	return p
}

// planAggregate decomposes a pipeline. ok=false means the shape is
// not pushable (fall back to streaming); a non-nil error reproduces
// the upfront validation error the streaming stage would raise.
func planAggregate(filter Doc, stages []Stage) (*aggPlan, bool, error) {
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
		plan.pushed++
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
		plan.kind = PlanScan
		return plan, true, nil
	}
	switch head := stages[i].(type) {
	case Group:
		if err := head.validate(); err != nil {
			return nil, false, err
		}
		g := head
		plan.kind = PlanGroup
		plan.group = &g
		plan.pushed++
		plan.tail = stages[i+1:]
		return plan, true, nil
	case Bucket:
		if head.Width <= 0 {
			return nil, false, fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
		}
		b := head
		plan.kind = PlanBucket
		plan.bucket = &b
		plan.pushed++
		plan.tail = stages[i+1:]
		return plan, true, nil
	case SortStage:
		plan.kind = PlanTopK
		plan.sortField, plan.sortDesc = head.Field, false
		if strings.HasPrefix(plan.sortField, "-") {
			plan.sortField, plan.sortDesc = plan.sortField[1:], true
		}
		plan.pushed++
		i++
		if i < len(stages) {
			if l, isLimit := stages[i].(Limit); isLimit {
				if l.N < 0 {
					return nil, false, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, l.N)
				}
				plan.limit = l.N
				plan.pushed++
				i++
			}
		}
		plan.tail = stages[i:]
		return plan, true, nil
	case Limit, Project:
		plan.kind = PlanScan
		// Absorb at most one Project and one Limit, in either order:
		// both commute with the id-ordered merge (Project is per-doc
		// deterministic; the global first N by id is a subset of the
		// per-partition first N by id).
		for ; i < len(stages); i++ {
			switch s := stages[i].(type) {
			case Limit:
				if plan.limit >= 0 {
					plan.tail = stages[i:]
					return plan, true, nil
				}
				if s.N < 0 {
					return nil, false, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, s.N)
				}
				plan.limit = s.N
				plan.pushed++
			case Project:
				if plan.project != nil {
					plan.tail = stages[i:]
					return plan, true, nil
				}
				p := s
				plan.project = &p
				plan.pushed++
			default:
				plan.tail = stages[i:]
				return plan, true, nil
			}
		}
		return plan, true, nil
	default:
		// An unknown Stage implementation heads the pipeline: nothing
		// to push. (Match cannot reach here — the folding loop consumed
		// every leading Match.)
		return nil, false, nil
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
// lock, so a partial outlives the lock and may be published to the
// snapshot cache.
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
// Exactly one of the per-kind fields is populated. A partial is
// immutable once built: the merge step never mutates it, so the same
// partial can be published to the snapshot cache and served again.
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

// partialScratch is what one partition visit reuses across the plans
// it computes: a sweep of several hundred per-device histograms then
// allocates per result, not per query.
type partialScratch struct {
	counts map[int]int
	key    []byte
}

// computePartial evaluates the plan's partial over one partition.
// Caller holds at least the partition read lock.
func computePartial(p *partition, plan *aggPlan, sc *partialScratch) (*aggPartial, error) {
	switch plan.kind {
	case PlanGroup:
		return groupPartial(p, plan, sc)
	case PlanBucket:
		return bucketPartial(p, plan, sc)
	case PlanTopK:
		return topkPartial(p, plan)
	default:
		return scanPartial(p, plan)
	}
}

func groupPartial(p *partition, plan *aggPlan, sc *partialScratch) (*aggPartial, error) {
	var groups []pGroup
	index := make(map[string]int32)
	single := len(plan.refs) == 1
	err := p.forEachMatch(plan.filter, func(r int) {
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
			gi, ok = index[str.str]
		} else {
			sc.key = sc.key[:0]
			for _, f := range plan.refs {
				sc.key = appendGroupKey(sc.key, p.cell(r, f))
				if !single {
					sc.key = append(sc.key, 0)
				}
			}
			gi, ok = index[string(sc.key)]
		}
		if !ok {
			// Rows come in ascending id order, so a group's first row is
			// its smallest id: its key values are the group's identity.
			g := pGroup{minID: p.ids[r], key: make([]Cell, len(plan.refs)), accs: make([]accState, len(plan.accs))}
			for i, f := range plan.refs {
				g.key[i] = p.cell(r, f)
				g.key[i].box = cloneValue(g.key[i].box)
			}
			if g.ks = str.str; str.kind != kindString {
				g.ks = string(sc.key)
			}
			gi = int32(len(groups))
			index[g.ks] = gi
			groups = append(groups, g)
		}
		g := &groups[gi]
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
		return nil, err
	}
	return &aggPartial{groups: groups}, nil
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

func bucketPartial(p *partition, plan *aggPlan, sc *partialScratch) (*aggPartial, error) {
	b, ref := plan.bucket, plan.refs[0]
	if sc.counts == nil {
		sc.counts = make(map[int]int)
	}
	clear(sc.counts)
	err := p.forEachMatch(plan.filter, func(r int) {
		if v := p.cell(r, ref); v.rank() == 2 {
			sc.counts[int((v.Num()-b.Origin)/b.Width)]++
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]bucketCount, 0, len(sc.counts))
	for idx, n := range sc.counts {
		out = append(out, bucketCount{idx, n})
	}
	slices.SortFunc(out, func(a, b bucketCount) int { return a.idx - b.idx })
	return &aggPartial{buckets: out}, nil
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

func topkPartial(p *partition, plan *aggPlan) (*aggPartial, error) {
	k, desc := plan.limit, plan.sortDesc
	worse := func(a, b topkElem) bool { return topkWorse(a.key, a.id, b.key, b.id, desc) }
	var kept []topkElem // bounded: a max-heap by worse, the root the worst kept
	err := p.forEachMatch(plan.filter, func(r int) {
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
		return nil, err
	}
	sort.Slice(kept, func(i, j int) bool { return worse(kept[j], kept[i]) })
	out := make([]topDoc, len(kept))
	for i, e := range kept {
		e.key.box = cloneValue(e.key.box)
		out[i] = topDoc{id: e.id, key: e.key, doc: p.doc(e.row)}
	}
	return &aggPartial{top: out}, nil
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

func scanPartial(p *partition, plan *aggPlan) (*aggPartial, error) {
	rows, err := p.matchingRows(plan.filter)
	if err != nil {
		return nil, err
	}
	matched := len(rows) > 0
	if plan.limit >= 0 && len(rows) > plan.limit {
		// The global first N by id is a subset of each partition's
		// first N by id, so clipping here loses nothing.
		rows = rows[:plan.limit]
	}
	out := make([]match, len(rows))
	for i, r := range rows {
		out[i].id = p.ids[r]
		if plan.project == nil {
			out[i].doc = p.doc(r)
			continue
		}
		out[i].doc = make(Doc, len(plan.refs))
		for j, f := range plan.project.Fields {
			if v, ok := p.value(r, plan.refs[j]); ok {
				setPath(out[i].doc, f, cloneValue(v))
			}
		}
	}
	return &aggPartial{scan: out, matched: matched}, nil
}

// ---------------------------------------------------------------------------
// Merge
//
// Partials merge typed — groups stay pGroups, bars stay (index, count)
// pairs — and are boxed into documents as the last step, by the calls
// that return documents. Partials are read-only here: when shared is
// true (any partial may be cache-published), every value that could
// alias a partial is cloned on the way out.

// mergeDocs merges a plan's partials into the pre-tail document set.
func mergeDocs(plan *aggPlan, partials []*aggPartial, shared bool) []Doc {
	switch plan.kind {
	case PlanGroup:
		return groupDocs(plan, mergeGroups(plan, partials), shared)
	case PlanBucket:
		bars := mergeBuckets(plan.bucket, partials, nil)
		out := make([]Doc, len(bars))
		for i, b := range bars {
			out[i] = Doc{"bucket": b.Start, "count": b.Count}
		}
		return out
	case PlanTopK:
		return mergeTopK(plan, partials, shared)
	default:
		return mergeScan(plan, partials, shared)
	}
}

// mergeGroups folds the partitions' groups together, in the order the
// streaming oracle emits them: first-seen over the id-ordered stream —
// exactly ascending smallest-member id. Partition index order keeps
// the float merge deterministic run-to-run; with exactly-representable
// sums it is also equal to the oracle's id-ordered accumulation.
func mergeGroups(plan *aggPlan, partials []*aggPartial) []pGroup {
	if len(partials) == 1 {
		return partials[0].groups
	}
	var merged []pGroup
	index := make(map[string]int)
	for _, part := range partials {
		for i := range part.groups {
			pg := &part.groups[i]
			mi, ok := index[pg.ks]
			if !ok {
				index[pg.ks] = len(merged)
				g := *pg
				g.accs = append([]accState(nil), pg.accs...)
				merged = append(merged, g)
				continue
			}
			mg := &merged[mi]
			if pg.minID < mg.minID {
				mg.minID, mg.key = pg.minID, pg.key
			}
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
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].minID < merged[j].minID })
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
// out.
func mergeBuckets(b *Bucket, partials []*aggPartial, out []BucketCount) []BucketCount {
	var bars []bucketCount
	if len(partials) == 1 {
		bars = partials[0].buckets
	} else {
		counts := make(map[int]int)
		for _, part := range partials {
			for _, bar := range part.buckets {
				counts[bar.idx] += bar.n
			}
		}
		for idx, n := range counts {
			bars = append(bars, bucketCount{idx, n})
		}
		slices.SortFunc(bars, func(a, b bucketCount) int { return a.idx - b.idx })
	}
	for _, bar := range bars {
		out = append(out, BucketCount{Start: b.Origin + float64(bar.idx)*b.Width, Count: bar.n})
	}
	return out
}

func mergeTopK(plan *aggPlan, partials []*aggPartial, shared bool) []Doc {
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
		if out[i] = e.doc; shared {
			out[i] = cloneDoc(e.doc)
		}
	}
	return out
}

func mergeScan(plan *aggPlan, partials []*aggPartial, shared bool) []Doc {
	results := make([][]match, len(partials))
	for i, part := range partials {
		results[i] = part.scan
	}
	all := mergeByID(results)
	if plan.limit >= 0 && len(all) > plan.limit {
		all = all[:plan.limit]
	}
	if len(all) == 0 {
		// Mirror the oracle's nil/empty distinction: Project always
		// yields a non-nil slice, Limit over a non-empty match set
		// yields a non-nil empty slice, but a plain scan with zero
		// matches yields nil (Find's contract).
		anyMatched := false
		for _, part := range partials {
			anyMatched = anyMatched || part.matched
		}
		if plan.project != nil || (plan.limit >= 0 && anyMatched) {
			return []Doc{}
		}
		return nil
	}
	out := make([]Doc, len(all))
	for i, m := range all {
		if out[i] = m.doc; shared {
			out[i] = cloneDoc(m.doc)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Plan signatures (snapshot-cache keys)

// signature canonicalizes the plan into a snapshot-cache key. Only
// bounded partials cache (group, bucket, and top-K with a limit under
// topkCacheMaxK); ok=false means the partial recomputes on every call.
// The key is fmt's %#v form of the plan's parts: it prints maps in
// sorted key order, quotes strings, and prints numbers that filters
// treat as equal (1 and 1.0) alike, so equal keys mean equal answers.
func (p *aggPlan) signature() (string, bool) {
	switch {
	case p.typed, p.kind == PlanScan, p.kind == PlanTopK && (p.limit < 0 || p.limit > topkCacheMaxK):
		return "", false
	}
	return fmt.Sprintf("%s|%#v|%#v|%#v|%q,%v,%d", p.kind, map[string]any(p.scanFilter),
		p.group, p.bucket, p.sortField, p.sortDesc, p.limit), true
}

// topkCacheMaxK bounds the per-partition snapshot footprint of cached
// top-K partials.
const topkCacheMaxK = 65536

// ---------------------------------------------------------------------------
// Partial snapshot cache

// aggCacheBound caps the per-partition aggregation-partial cache; at
// the bound an arbitrary entry is evicted (the working set of
// repeating analytics queries — /stats, retrainer scans, histogram
// dashboards — is a handful of plan signatures).
const aggCacheBound = 32

// aggEntry is one published aggregation partial: the partition's
// contribution to a plan signature, captured at an even version. The
// partial is immutable once published; the merge step clones any value
// it hands out.
type aggEntry struct {
	seq uint64
	pr  *aggPartial
}

// cachedAggPartial attempts an optimistic read of a published partial:
// version load, cache probe, version revalidation, one retry on
// conflict (the seqlock discipline of optimistic.go). A hit
// serves the partition's contribution without the read lock or the
// simulated round-trip.
func (p *partition) cachedAggPartial(sig string) (*aggPartial, bool) {
	for attempt := 0; attempt < 2; attempt++ {
		v1 := p.seq.Load()
		if v1&1 != 0 {
			continue // writer in progress: retry, then locked path
		}
		p.cacheMu.Lock()
		e := p.agg[sig]
		p.cacheMu.Unlock()
		if e == nil || e.seq != v1 {
			return nil, false // no snapshot at this version: capture one
		}
		if p.seq.Load() != v1 {
			continue // a write raced the probe: the snapshot may be stale
		}
		return e.pr, true
	}
	return nil, false
}

// storeAggPartial publishes a partial captured at version seq. Caller
// must have read seq while holding p.mu (any mode), so it is even and
// the partial is consistent with it.
func (p *partition) storeAggPartial(sig string, seq uint64, pr *aggPartial) {
	p.cacheMu.Lock()
	if p.agg == nil {
		p.agg = make(map[string]*aggEntry)
	}
	if len(p.agg) >= aggCacheBound {
		for k := range p.agg {
			delete(p.agg, k)
			break
		}
	}
	p.agg[sig] = &aggEntry{seq: seq, pr: pr}
	p.cacheMu.Unlock()
}

// ---------------------------------------------------------------------------
// Execution

// planRun is one bound plan in flight: its n target partitions
// (c.parts[lo:lo+n]), one partial slot per target, and its
// snapshot-cache key.
type planRun struct {
	plan      *aggPlan
	lo, n     int
	partials  []*aggPartial
	sig       string
	cacheable bool
}

// missRef names a partial a partition must still compute after the
// cache pass: the run and its slot for that partition.
type missRef struct{ run, slot int }

// sweep is the reusable memory of one execPlans sweep, and of the
// typed plans BucketCounts builds for one. A sweep's fixed cost — all
// there is to a sweep of one filter, which is what a micro-batch of
// one alarm asks for — is paid out of it, so only the partials
// themselves are allocated. Sweeps are pooled, and every slice of a
// pooled sweep is zero up to its capacity (release sees to it).
type sweep struct {
	runs     []planRun
	partials []*aggPartial    // one slab for every run's slots
	missFor  [][]missRef      // per partition
	scratch  []partialScratch // per partition: visits may run concurrently

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

var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

// release drops what the sweep references (plans, partials, filter
// literals) and returns it to the pool.
func (sw *sweep) release() {
	clear(sw.runs)
	clear(sw.partials)
	clear(sw.nodes)
	clear(sw.plans)
	clear(sw.bound)
	sweepPool.Put(sw)
}

// resized returns s with length n, reusing its memory when it is large
// enough; the elements are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newRuns prepares one run per plan; plans[i] nil leaves run i empty.
func (c *Collection) newRuns(sw *sweep, plans []*aggPlan) []planRun {
	runs := resized(sw.runs, len(plans))
	total := 0
	for i, plan := range plans {
		if plan == nil {
			continue
		}
		run := &runs[i]
		run.plan = plan
		lo, hi := c.targetRange(plan.filter)
		run.lo, run.n = lo, hi-lo
		run.sig, run.cacheable = plan.signature()
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
// that partition, each touched partition's lock (and simulated
// round-trip) is paid once for the whole batch — concurrently across
// partitions under a simulated RTT — and partials already published to
// the partition snapshot caches are served without visiting the
// partition at all.
func (c *Collection) execPlans(sw *sweep, runs []planRun) error {
	// missFor[pi] lists the (run, slot) pairs partition pi must still
	// compute after the cache pass.
	sw.missFor = resized(sw.missFor, len(c.parts))
	sw.scratch = resized(sw.scratch, len(c.parts))
	missFor := sw.missFor
	for pi := range missFor {
		missFor[pi] = missFor[pi][:0]
	}
	missed := false
	for ri := range runs {
		run := &runs[ri]
		for slot := range run.partials {
			p := c.parts[run.lo+slot]
			if run.cacheable {
				if pr, hit := p.cachedAggPartial(run.sig); hit {
					run.partials[slot] = pr
					continue
				}
			}
			missFor[run.lo+slot] = append(missFor[run.lo+slot], missRef{ri, slot})
			missed = true
		}
	}
	if !missed {
		return nil
	}
	touched := func(pi int) bool { return len(missFor[pi]) > 0 }
	return c.forEach(0, len(c.parts), touched, func(pi int, _ *partition) error {
		return c.computeMissed(sw, runs, pi)
	})
}

// computeMissed computes, under one read lock and one simulated
// round-trip, every partial partition pi still owes the sweep.
func (c *Collection) computeMissed(sw *sweep, runs []planRun, pi int) error {
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	c.simulateRTT()
	for _, ref := range sw.missFor[pi] {
		run := &runs[ref.run]
		pr, err := computePartial(p, run.plan, &sw.scratch[pi])
		if err != nil {
			return err
		}
		if run.cacheable {
			// Holding the read lock excludes writers, so the version
			// is even and consistent with the scan just performed.
			p.storeAggPartial(run.sig, p.seq.Load(), pr)
		}
		run.partials[ref.slot] = pr
	}
	return nil
}

// AggregateMulti answers many aggregations sharing one stage pipeline
// in a single store sweep (execPlans): result i is exactly what
// Aggregate(filters[i], stages...) would return against the same
// store state, so a micro-batch of per-device aggregations costs one
// concurrent sweep, or nothing, instead of N serialized round-trips.
// Filters whose pipeline shape cannot push down fall back to the
// streaming path individually.
func (c *Collection) AggregateMulti(filters []Doc, stages ...Stage) ([][]Doc, error) {
	out := make([][]Doc, len(filters))
	plans := make([]*aggPlan, len(filters))
	for i, filter := range filters {
		plan, ok, err := planAggregate(filter, stages)
		if err != nil {
			return nil, err
		}
		if !ok {
			if out[i], err = c.AggregateStreaming(filter, stages...); err != nil {
				return nil, err
			}
			continue
		}
		plans[i] = plan.bind(c.dict)
	}
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	runs := c.newRuns(sw, plans)
	if err := c.execPlans(sw, runs); err != nil {
		return nil, err
	}
	for i, run := range runs {
		if run.plan == nil {
			continue // served by the streaming fallback above
		}
		docs, err := applyStages(mergeDocs(run.plan, run.partials, run.cacheable), run.plan.tail)
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
		sw.plans[i] = aggPlan{kind: PlanBucket, bucket: &sw.bucket, limit: -1, filter: &sw.filters[i], typed: true, refs: sw.refs[:]}
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
	plan, _, err := planAggregate(filter, []Stage{Group{By: []string{field}}})
	if err != nil {
		return nil, err
	}
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	runs := c.newRuns(sw, []*aggPlan{plan.bind(c.dict)})
	if err := c.execPlans(sw, runs); err != nil {
		return nil, err
	}
	groups := mergeGroups(plan, runs[0].partials)
	out := make([]GroupCount, len(groups))
	for i := range groups {
		out[i] = GroupCount{Key: groups[i].key[0], Count: groups[i].count}
	}
	return out, nil
}
