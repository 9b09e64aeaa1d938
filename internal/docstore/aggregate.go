package docstore

import (
	"fmt"
	"sort"
	"strings"
)

// Stage is one step of an Aggregate pipeline: a Group, then any run of
// SortStage and Limit.
type Stage interface{ stage() }

func (Group) stage()     {}
func (SortStage) stage() {}
func (Limit) stage()     {}

// Aggregate answers the one pipeline shape the batch component asks of
// the store (§4.1, §4.3: the noisiest devices, alarms per ZIP): the
// documents matched by filter counted per value of one field — a Group
// with exactly one By field and only count accumulators — followed by
// any run of SortStage and Limit, applied centrally to the groups. The
// groups come from the partitions' cached partials (pushdown.go) in
// first-seen order. Any other pipeline, none included, is ErrBadFilter.
func (c *Collection) Aggregate(filter []Cond, stages ...Stage) ([]Doc, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: a pipeline needs a Group", ErrBadFilter)
	}
	g, isGroup := stages[0].(Group)
	if !isGroup {
		return nil, fmt.Errorf("%w: cannot plan a pipeline headed by %T", ErrBadFilter, stages[0])
	}
	if len(g.By) != 1 {
		return nil, fmt.Errorf("%w: a Group groups by exactly one field, got %d", ErrBadFilter, len(g.By))
	}
	for out, acc := range g.Accs {
		if acc.Op != "count" {
			return nil, fmt.Errorf("%w: unsupported accumulator %q for %s", ErrBadFilter, acc.Op, out)
		}
	}
	tail := stages[1:]
	for _, s := range tail {
		switch s := s.(type) {
		case SortStage:
		case Limit:
			if s.N < 0 {
				return nil, fmt.Errorf("%w: limit must be non-negative, got %d", ErrBadFilter, s.N)
			}
		default:
			return nil, fmt.Errorf("%w: cannot run %T after a Group", ErrBadFilter, s)
		}
	}
	var docs []Doc
	err := c.countGroups(filter, g.By[0], func(groups []pGroup) {
		docs = make([]Doc, len(groups))
		for i := range groups {
			d := make(Doc, 1+len(g.Accs))
			d[g.By[0]] = groups[i].key.value()
			for out := range g.Accs {
				d[out] = groups[i].count
			}
			docs[i] = d
		}
	})
	if err != nil {
		return nil, err
	}
	for _, s := range tail {
		switch s := s.(type) {
		case SortStage:
			docs = s.apply(docs)
		case Limit:
			docs = docs[:min(s.N, len(docs))]
		}
	}
	return docs, nil
}

// Accumulator names an aggregation function inside Group.
type Accumulator struct {
	Op string // "count", the one accumulator
}

// Group groups documents by the value of its one By field and emits one
// document per group: the group key field plus one count per
// accumulator.
type Group struct {
	By   []string
	Accs map[string]Accumulator // output field -> accumulator
}

// SortStage orders documents by a field, smallest first; a "-" prefix
// puts the largest first.
type SortStage struct{ Field string }

func (s SortStage) apply(in []Doc) []Doc {
	field, desc := s.Field, false
	if strings.HasPrefix(field, "-") {
		field, desc = field[1:], true
	}
	out := make([]Doc, len(in))
	copy(out, in)
	sort.SliceStable(out, func(i, j int) bool {
		// A field a document lacks, or holds no kind of, sorts first.
		vi, _ := cellOf(out[i][field])
		vj, _ := cellOf(out[j][field])
		cmp := compareCells(vi, vj)
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	return out
}

// Limit truncates the pipeline to the first N documents. N must be
// non-negative; a negative N is ErrBadFilter.
type Limit struct{ N int }

// Bucket histograms documents by a numeric field into fixed-width
// buckets of the given Width starting at Origin — the alarm-history
// component's per-device alarm histograms (BucketCounts).
type Bucket struct {
	Field  string
	Origin float64
	Width  float64
}
