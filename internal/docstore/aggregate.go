package docstore

import (
	"fmt"
	"sort"
	"strings"
)

// Stage is one step of an aggregation pipeline.
type Stage interface {
	apply(in []Doc) ([]Doc, error)
}

// Aggregate runs a pipeline over the documents matched by filter.
// It is the store's analog of MongoDB's aggregation framework and is
// what the batch component uses to compute "a histogram of the number
// of alarms starting from a specific time t" per device (§4.1).
//
// Pipelines whose shape the planner recognizes execute as pushdown
// aggregations — per-partition partials merged centrally, with the
// filter and any leading Match stages evaluated inside the partition
// scan so non-matching documents are never cloned (pushdown.go). A
// pipeline headed by a stage the planner cannot push is ErrBadFilter.
func (c *Collection) Aggregate(filter Doc, stages ...Stage) ([]Doc, error) {
	out, err := c.AggregateMulti([]Doc{filter}, stages...)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Match filters documents mid-pipeline.
type Match struct{ Filter Doc }

func (m Match) apply(in []Doc) ([]Doc, error) {
	f := compileFilter(nil, m.Filter)
	var out []Doc
	for _, d := range in {
		ok, err := f.match(row{doc: d}, -1)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, d)
		}
	}
	return out, nil
}

// Accumulator names an aggregation function inside Group.
type Accumulator struct {
	Op    string // "count", "sum", "avg", "min", "max", "first"
	Field string // source field path (unused for count)
}

// Group groups documents by the values of By (one or more field
// paths) and emits one document per group: the group key fields plus
// one field per accumulator.
type Group struct {
	By   []string
	Accs map[string]Accumulator // output field -> accumulator
}

type groupState struct {
	key    []any
	count  int
	sums   map[string]float64
	mins   map[string]any
	maxs   map[string]any
	firsts map[string]any
	seen   map[string]int
}

func (g Group) apply(in []Doc) ([]Doc, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	groups := make(map[string]*groupState)
	var orderKeys []string
	for _, d := range in {
		key := make([]any, len(g.By))
		var sb strings.Builder
		for i, f := range g.By {
			v, _ := lookup(d, f)
			key[i] = v
			fmt.Fprintf(&sb, "%v\x00", v)
		}
		ks := sb.String()
		st, ok := groups[ks]
		if !ok {
			st = &groupState{
				key:    key,
				sums:   make(map[string]float64),
				mins:   make(map[string]any),
				maxs:   make(map[string]any),
				firsts: make(map[string]any),
				seen:   make(map[string]int),
			}
			groups[ks] = st
			orderKeys = append(orderKeys, ks)
		}
		st.count++
		for out, acc := range g.Accs {
			if acc.Op == "count" {
				continue
			}
			v, ok := lookup(d, acc.Field)
			if !ok {
				continue
			}
			switch acc.Op {
			case "sum", "avg":
				st.sums[out] += toFloat(v)
				st.seen[out]++
			case "min":
				if cur, ok := st.mins[out]; !ok || compareValues(v, cur) < 0 {
					st.mins[out] = v
				}
			case "max":
				if cur, ok := st.maxs[out]; !ok || compareValues(v, cur) > 0 {
					st.maxs[out] = v
				}
			case "first":
				if _, ok := st.firsts[out]; !ok {
					st.firsts[out] = v
				}
			}
		}
	}
	out := make([]Doc, 0, len(groups))
	for _, ks := range orderKeys {
		st := groups[ks]
		d := make(Doc)
		for i, f := range g.By {
			setPath(d, f, st.key[i])
		}
		for name, acc := range g.Accs {
			switch acc.Op {
			case "count":
				d[name] = st.count
			case "sum":
				d[name] = st.sums[name]
			case "avg":
				if n := st.seen[name]; n > 0 {
					d[name] = st.sums[name] / float64(n)
				} else {
					d[name] = 0.0
				}
			case "min":
				d[name] = st.mins[name]
			case "max":
				d[name] = st.maxs[name]
			case "first":
				d[name] = st.firsts[name]
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// SortStage orders documents by a field; prefix with "-" to descend.
type SortStage struct{ Field string }

func (s SortStage) apply(in []Doc) ([]Doc, error) {
	field, desc := s.Field, false
	if strings.HasPrefix(field, "-") {
		field, desc = field[1:], true
	}
	out := make([]Doc, len(in))
	copy(out, in)
	sort.SliceStable(out, func(i, j int) bool {
		vi, _ := lookup(out[i], field)
		vj, _ := lookup(out[j], field)
		cmp := compareValues(vi, vj)
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	return out, nil
}

// Limit truncates the pipeline to the first N documents. N must be
// non-negative; a negative N is ErrBadFilter (it used to panic slicing
// in[:N]).
type Limit struct{ N int }

func (l Limit) apply(in []Doc) ([]Doc, error) {
	if l.N < 0 {
		return nil, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, l.N)
	}
	if len(in) > l.N {
		in = in[:l.N]
	}
	return in, nil
}

// Bucket histograms documents by a numeric field into fixed-width
// buckets of the given Width starting at Origin. Output documents have
// fields "bucket" (lower bound) and "count". This is the primitive the
// alarm-history component uses to build per-device alarm histograms.
type Bucket struct {
	Field  string
	Origin float64
	Width  float64
}

func (b Bucket) apply(in []Doc) ([]Doc, error) {
	if b.Width <= 0 {
		return nil, fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
	}
	counts := make(map[int]int)
	for _, d := range in {
		v, ok := lookup(d, b.Field)
		if !ok || rank(v) != 2 {
			continue
		}
		idx := int((toFloat(v) - b.Origin) / b.Width)
		counts[idx]++
	}
	idxs := make([]int, 0, len(counts))
	for i := range counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Doc, len(idxs))
	for i, idx := range idxs {
		out[i] = Doc{
			"bucket": b.Origin + float64(idx)*b.Width,
			"count":  counts[idx],
		}
	}
	return out, nil
}
