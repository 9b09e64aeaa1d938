package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// passthrough is a Stage implementation Aggregate has never heard of:
// no pipeline that holds it runs.
type passthrough struct{}

func (passthrough) stage() {}

// supported reports whether Aggregate runs the pipeline: one Group with
// exactly one By field and only count accumulators, then any run of
// SortStage and non-negative Limit.
func supported(stages []Stage) bool {
	if len(stages) == 0 {
		return false
	}
	g, ok := stages[0].(Group)
	if !ok || len(g.By) != 1 {
		return false
	}
	for _, acc := range g.Accs {
		if acc.Op != "count" {
			return false
		}
	}
	for _, s := range stages[1:] {
		switch s := s.(type) {
		case SortStage:
		case Limit:
			if s.N < 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// aggregateStreaming answers a pipeline the streaming way: findDocs
// builds every matched document out of every partition and the groups
// are counted centrally, one document after another, keyed by
// fmt's %v of the By field's value. It is the executable specification
// of Aggregate — the reference the pushdown battery (property, fuzz,
// interleave and race tests) pins the cached, merged group partials
// against. A pipeline Aggregate does not run is ErrBadFilter here too.
func (c *Collection) aggregateStreaming(filter []Cond, stages ...Stage) ([]Doc, error) {
	if !supported(stages) {
		return nil, fmt.Errorf("%w: unsupported pipeline", ErrBadFilter)
	}
	docs, err := findDocs(c, filter...)
	if err != nil {
		return nil, err
	}
	g := stages[0].(Group)
	field := g.By[0]
	out := []Doc{}
	var counts []int
	class := make(map[string]int)
	for _, d := range docs {
		v := d[field]
		ks := fmt.Sprintf("%v", v)
		i, seen := class[ks]
		if !seen {
			i = len(out)
			class[ks] = i
			out = append(out, Doc{field: v})
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for i, d := range out {
		for name := range g.Accs {
			d[name] = counts[i]
		}
	}
	for _, s := range stages[1:] {
		switch s := s.(type) {
		case SortStage:
			out = s.apply(out)
		case Limit:
			if len(out) > s.N {
				out = out[:s.N]
			}
		}
	}
	return out, nil
}

// bucketStreaming is the streaming specification of BucketCounts: the
// documents each filter matches, out of findDocs, counted into b's buckets
// centrally. An empty histogram is nil.
func (c *Collection) bucketStreaming(filters [][]Cond, b Bucket) ([][]BucketCount, error) {
	if b.Width <= 0 {
		return nil, fmt.Errorf("%w: bucket width must be positive", ErrBadFilter)
	}
	out := make([][]BucketCount, len(filters))
	for i, conds := range filters {
		docs, err := findDocs(c, conds...)
		if err != nil {
			return nil, err
		}
		counts := make(map[int]int)
		for _, d := range docs {
			if v, _ := cellOf(d[b.Field]); v.rank() == 2 {
				counts[int((v.Num()-b.Origin)/b.Width)]++
			}
		}
		idxs := make([]int, 0, len(counts))
		for idx := range counts {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			out[i] = append(out[i], BucketCount{Start: b.Origin + float64(idx)*b.Width, Count: counts[idx]})
		}
	}
	return out, nil
}

// bucketCounts collects BucketCounts' answers; an empty histogram is nil.
func bucketCounts(c *Collection, filters [][]Cond, b Bucket) ([][]BucketCount, error) {
	out := make([][]BucketCount, len(filters))
	err := c.BucketCounts(filters, b, func(i int, bars []BucketCount) {
		out[i] = append([]BucketCount(nil), bars...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// countGroup is the pipeline TopDevices and the benchmark harness ask.
func countGroup(field string) Group {
	return Group{By: []string{field}, Accs: map[string]Accumulator{"n": {Op: "count"}}}
}

// Regression: a negative Limit used to panic slicing in[:N]. A negative
// limit is a malformed pipeline — ErrBadFilter, never a panic.
func TestLimitNegativeN(t *testing.T) {
	c := NewDBWithPartitions(3).Collection("x")
	c.Insert(Doc{"v": 1.0})
	c.Insert(Doc{"v": 2.0})
	for name, stages := range map[string][]Stage{
		"head":  {Limit{N: -1}},
		"tail":  {countGroup("v"), SortStage{Field: "v"}, Limit{N: -3}},
		"after": {countGroup("v"), Limit{N: -2}},
	} {
		if _, err := c.Aggregate(nil, stages...); !errors.Is(err, ErrBadFilter) {
			t.Fatalf("%s: negative limit returned %v, want ErrBadFilter", name, err)
		}
	}
	// Zero stays a valid (empty) limit.
	docs, err := c.Aggregate(nil, countGroup("v"), Limit{N: 0})
	if err != nil || docs == nil || len(docs) != 0 {
		t.Fatalf("Limit{0} = %v, %v; want empty, nil", docs, err)
	}
}

// TestSortStageMixedTypePin pins the order the central SortStage gives
// group keys: the group of documents lacking the field first, then the
// field's values in order, ties stable in first-seen order — and that a
// field's int values group with nothing but themselves.
func TestSortStageMixedTypePin(t *testing.T) {
	c := NewDBWithPartitions(4).Collection("x")
	c.Insert(Doc{"v": "bravo"})
	c.Insert(Doc{"v": "charlie"})
	c.Insert(Doc{"tag": "missing"}) // absent: the nil group
	c.Insert(Doc{"v": "alpha"})
	c.Insert(Doc{"v": "charlie"})
	c.Insert(Doc{"tag": "missing"})
	for i := 0; i < 3; i++ {
		c.Insert(Doc{"k": i % 2})
	}

	keys := func(field string, stages ...Stage) []any {
		t.Helper()
		got, err := c.Aggregate(nil, stages...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.aggregateStreaming(nil, stages...)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("pushdown %v != streaming %v (%v)", got, want, err)
		}
		out := make([]any, len(got))
		for i, d := range got {
			out[i] = d[field]
		}
		return out
	}
	if got, want := keys("v", countGroup("v"), SortStage{Field: "v"}), []any{nil, "alpha", "bravo", "charlie"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ascending order %v, want %v", got, want)
	}
	if got, want := keys("v", countGroup("v"), SortStage{Field: "-v"}, Limit{N: 3}), []any{"charlie", "bravo", "alpha"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("descending top-3 %v, want %v", got, want)
	}
	// Equal counts keep first-seen order: they do not reverse.
	if got, want := keys("v", countGroup("v"), SortStage{Field: "-n"}, Limit{N: 3}), []any{nil, "charlie", "bravo"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("count-descending top-3 %v, want %v", got, want)
	}
	if got, want := keys("k", countGroup("k"), SortStage{Field: "k"}), []any{nil, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("int keys %v, want %v", got, want)
	}
}

// TestExplainPlans pins the one pipeline shape Aggregate runs — a
// single-field count Group followed by SortStage and Limit — and that
// every other shape, none included, is ErrBadFilter. A group pipeline
// leaves its partials cached; a refused one leaves nothing.
func TestExplainPlans(t *testing.T) {
	c := NewDBWithPartitions(2).Collection("x")
	c.Insert(Doc{"zip": "8000", "n": 1.0})
	group := countGroup("zip")
	cached := func() int {
		n := 0
		for _, p := range c.parts {
			n += len(p.agg)
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		stages  []Stage
		ok      bool
		entries int // cached partials afterwards
	}{
		{"no stages", nil, false, 0},
		{"group", []Stage{group}, true, 2},
		{"group tail", []Stage{group, SortStage{Field: "-n"}, Limit{N: 3}, SortStage{Field: "zip"}}, true, 2},
		{"group, no accumulators", []Stage{Group{By: []string{"zip"}}}, true, 2},
		{"group, two counts", []Stage{Group{By: []string{"zip"}, Accs: map[string]Accumulator{"a": {Op: "count"}, "b": {Op: "count"}}}}, true, 2},
		{"other field", []Stage{countGroup("n")}, true, 4},
		{"two By fields", []Stage{Group{By: []string{"zip", "n"}}}, false, 4},
		{"no By field", []Stage{Group{}}, false, 4},
		{"sum accumulator", []Stage{Group{By: []string{"zip"}, Accs: map[string]Accumulator{"s": {Op: "sum"}}}}, false, 4},
		{"sort head", []Stage{SortStage{Field: "n"}, Limit{N: 1}}, false, 4},
		{"limit head", []Stage{Limit{N: 5}}, false, 4},
		{"custom head", []Stage{passthrough{}, group}, false, 4},
		{"custom tail", []Stage{group, passthrough{}}, false, 4},
		{"second group", []Stage{group, group}, false, 4},
		{"nil stage", []Stage{nil}, false, 4},
	} {
		out, err := c.Aggregate(nil, tc.stages...)
		if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, ErrBadFilter) {
			t.Errorf("%s: Aggregate = %v, %v; want accepted %v", tc.name, out, err, tc.ok)
		}
		if tc.ok != supported(tc.stages) {
			t.Errorf("%s: the reference's supported() disagrees", tc.name)
		}
		if n := cached(); n != tc.entries {
			t.Errorf("%s: %d cached partials, want %d", tc.name, n, tc.entries)
		}
	}
}

// TestPushdownMatchesStreamingBasics runs each kept shape over a small
// fixed corpus and requires byte-identical answers from the pushdown
// and the streaming reference — the hand-written complement of the
// property battery.
func TestPushdownMatchesStreamingBasics(t *testing.T) {
	c, err := NewDBWithPartitions(4).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		c.Insert(Doc{
			"deviceMac": fmt.Sprintf("mac-%d", i%7),
			"zip":       fmt.Sprintf("%04d", 8000+i%5),
			"ts":        float64(1000 + 10*i),
			"duration":  float64(i % 40),
			"shift":     i % 3,
		})
	}
	pipelines := [][]Stage{
		{countGroup("zip")},
		{countGroup("deviceMac"), SortStage{Field: "-n"}, Limit{N: 2}},
		{countGroup("shift"), SortStage{Field: "shift"}},
		{countGroup("zip"), Limit{N: 2}, SortStage{Field: "-zip"}},
		{countGroup("duration"), SortStage{Field: "-n"}, SortStage{Field: "duration"}, Limit{N: 9}},
		{countGroup("absent")},
		{Group{By: []string{"zip"}}},
	}
	filters := [][]Cond{nil, {eq("deviceMac", "mac-2")}, {eq("shift", 0)}, {cond("duration", "$gte", 10.0)}}
	for fi, filter := range filters {
		for pi, stages := range pipelines {
			runBoth(t, c, probe{filter: filter, stages: stages}, fmt.Sprintf("filter %d pipeline %d", fi, pi))
		}
	}
	for i, conds := range [][]Cond{
		{{Field: "deviceMac", Op: "$eq", Value: String("mac-3")}},
		{{Field: "deviceMac", Op: "$eq", Value: String("mac-4")}, {Field: "ts", Op: "$gte", Value: Float(1500)}},
		{{Field: "duration", Op: "$lt", Value: Float(6)}},
		{{Field: "deviceMac", Op: "$eq", Value: String("mac-no-such")}},
	} {
		for _, b := range []Bucket{{Field: "ts", Origin: 1000, Width: 250}, {Field: "ts", Origin: 0, Width: 100}, {Field: "zip", Width: 1}} {
			runBoth(t, c, probe{conds: [][]Cond{conds, conds[:1]}, bucket: b}, fmt.Sprintf("histogram %d over %v", i, b))
		}
	}
}

// TestAggregateSnapshotCache: a repeated group count is served from the
// partials the partitions kept; a write shows in the next answer; served
// answers never alias cache internals.
func TestAggregateSnapshotCache(t *testing.T) {
	c, err := NewDBWithPartitions(2).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Insert(Doc{"deviceMac": fmt.Sprintf("mac-%d", i%4), "ts": float64(i)})
	}
	pipeline := []Stage{countGroup("deviceMac")}
	first, err := c.Aggregate(nil, pipeline...)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, p := range c.parts {
		p.cacheMu.Lock()
		cached += len(p.agg)
		p.cacheMu.Unlock()
	}
	if cached == 0 {
		t.Fatal("a group count left no partials behind")
	}
	second, err := c.Aggregate(nil, pipeline...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer diverged: %v vs %v", second, first)
	}
	// Mutating a served answer must not poison the snapshot.
	second[0]["n"] = -999
	second[0]["deviceMac"] = "tainted"
	third, err := c.Aggregate(nil, pipeline...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, first) {
		t.Fatalf("cache aliased a served answer: %v vs %v", third, first)
	}
	// The next answer reflects a new document.
	c.Insert(Doc{"deviceMac": "mac-0", "ts": 999.0})
	after, err := c.Aggregate(nil, pipeline...)
	if err != nil {
		t.Fatal(err)
	}
	if after[0]["n"].(int) != first[0]["n"].(int)+1 {
		t.Fatalf("post-insert count %v, want %d", after[0]["n"], first[0]["n"].(int)+1)
	}
	if oracle, _ := c.aggregateStreaming(nil, pipeline...); !reflect.DeepEqual(after, oracle) {
		t.Fatalf("post-insert pushdown %v != streaming %v", after, oracle)
	}
}

// TestGroupValidationErrors: accumulators other than count and
// malformed bucket widths surface as ErrBadFilter, before any scan.
func TestGroupValidationErrors(t *testing.T) {
	c := NewDBWithPartitions(2).Collection("x")
	c.Insert(Doc{"v": 1.0})
	for _, op := range []string{"median", "sum", "avg", "min", "max", "first", ""} {
		bad := Group{By: []string{"v"}, Accs: map[string]Accumulator{"x": {Op: op}}}
		if _, err := c.Aggregate(nil, bad); !errors.Is(err, ErrBadFilter) {
			t.Fatalf("accumulator %q: %v", op, err)
		}
	}
	for _, w := range []float64{0, -1} {
		err := c.BucketCounts([][]Cond{nil}, Bucket{Field: "v", Width: w}, func(int, []BucketCount) {
			t.Fatal("a bad bucket answered")
		})
		if !errors.Is(err, ErrBadFilter) {
			t.Fatalf("bucket width %v: %v", w, err)
		}
	}
}
