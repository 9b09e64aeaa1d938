package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// passthrough is a Stage implementation the planner has never heard
// of: it runs as a central tail stage, and cannot head a pipeline.
type passthrough struct{}

func (passthrough) apply(in []Doc) ([]Doc, error) { return in, nil }

// aggregateStreaming runs the pipeline the pre-pushdown way: Find
// streams a clone of every matched document out of every partition and
// the stages apply centrally, one after another. It is the executable
// specification of Aggregate — the equivalence oracle the pushdown
// battery (property, fuzz, and race tests) pins the planner against.
func (c *Collection) aggregateStreaming(filter Doc, stages ...Stage) ([]Doc, error) {
	docs, err := c.Find(filter)
	if err != nil {
		return nil, err
	}
	return applyStages(docs, stages)
}

// Regression: Limit.apply used to slice in[:N] with a negative N and
// panic. A negative limit is a malformed pipeline — ErrBadFilter on
// both the streaming and the pushdown path, never a panic.
func TestLimitNegativeN(t *testing.T) {
	c := NewDBWithPartitions(3).Collection("x")
	c.Insert(Doc{"v": 1.0})
	c.Insert(Doc{"v": 2.0})
	for name, run := range map[string]func() ([]Doc, error){
		"pushdown":  func() ([]Doc, error) { return c.Aggregate(nil, Limit{N: -1}) },
		"streaming": func() ([]Doc, error) { return c.aggregateStreaming(nil, Limit{N: -1}) },
		"tail":      func() ([]Doc, error) { return c.Aggregate(nil, SortStage{Field: "v"}, Limit{N: -3}) },
		"central": func() ([]Doc, error) {
			return c.Aggregate(nil, Group{By: []string{"v"}, Accs: map[string]Accumulator{"n": {Op: "count"}}}, Limit{N: -2})
		},
	} {
		if _, err := run(); !errors.Is(err, ErrBadFilter) {
			t.Fatalf("%s: negative limit returned %v, want ErrBadFilter", name, err)
		}
	}
	// Zero stays a valid (empty) limit.
	docs, err := c.Aggregate(nil, Limit{N: 0})
	if err != nil || len(docs) != 0 {
		t.Fatalf("Limit{0} = %v, %v; want empty, nil", docs, err)
	}
}

// TestSortStageMixedTypePin pins the cross-type sort order (nil <
// bool < number < string < time, ties stable by insertion) so the
// pushdown top-K merge and the streaming stable sort can never drift
// apart on heterogenous columns — the flexible-schema case where older
// documents carry a differently-typed field.
func TestSortStageMixedTypePin(t *testing.T) {
	ts := time.Unix(1700000000, 0).UTC()
	c := NewDBWithPartitions(4).Collection("x")
	c.Insert(Doc{"v": "bravo", "tag": "s2"})
	c.Insert(Doc{"v": 7.0, "tag": "n7"})
	c.Insert(Doc{"v": true, "tag": "bt"})
	c.Insert(Doc{"v": ts, "tag": "t"})
	c.Insert(Doc{"v": nil, "tag": "nil"})
	c.Insert(Doc{"v": "alpha", "tag": "s1"})
	c.Insert(Doc{"v": 7, "tag": "n7i"}) // int 7 ties float 7.0: insertion order breaks it
	c.Insert(Doc{"v": false, "tag": "bf"})
	c.Insert(Doc{"tag": "missing"}) // absent field sorts as nil, after the explicit nil

	want := []string{"nil", "missing", "bf", "bt", "n7", "n7i", "s1", "s2", "t"}
	for _, pipeline := range [][]Stage{
		{SortStage{Field: "v"}},
		{SortStage{Field: "v"}, Limit{N: 9}},
	} {
		got, err := c.Aggregate(nil, pipeline...)
		if err != nil {
			t.Fatal(err)
		}
		tags := make([]string, len(got))
		for i, d := range got {
			tags[i], _ = d["tag"].(string)
		}
		if !reflect.DeepEqual(tags, want) {
			t.Fatalf("ascending mixed-type sort order %v, want %v", tags, want)
		}
		oracle, err := c.aggregateStreaming(nil, pipeline...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("pushdown %v != streaming %v", got, oracle)
		}
	}
	// Descending reverses the type ranking; equal keys keep insertion
	// order (stable), they do not reverse.
	desc, err := c.Aggregate(nil, SortStage{Field: "-v"}, Limit{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	gotDesc := []string{desc[0]["tag"].(string), desc[1]["tag"].(string), desc[2]["tag"].(string)}
	if want := []string{"t", "s2", "s1"}; !reflect.DeepEqual(gotDesc, want) {
		t.Fatalf("descending top-3 %v, want %v", gotDesc, want)
	}
}

// TestExplainPlans pins the planner's shape dispatch: which pipelines
// push down, as what kind, how many stages land where, and that a head
// the planner cannot push is an error.
func TestExplainPlans(t *testing.T) {
	group := Group{By: []string{"zip"}, Accs: map[string]Accumulator{"n": {Op: "count"}}}
	type shape struct {
		kind      planKind
		pushed    int
		central   int
		cacheable bool
	}
	cases := []struct {
		name   string
		filter Doc
		stages []Stage
		want   shape
	}{
		{"bare find", Doc{"zip": "8000"}, nil,
			shape{kind: planScan}},
		{"match fold", nil, []Stage{Match{Filter: Doc{"zip": "8000"}}, Match{Filter: Doc{"verified": true}}},
			shape{kind: planScan, pushed: 2}},
		{"group", nil, []Stage{group},
			shape{kind: planGroup, pushed: 1, cacheable: true}},
		{"match group tail", nil, []Stage{Match{Filter: Doc{"verified": true}}, group, SortStage{Field: "-n"}, Limit{N: 3}},
			shape{kind: planGroup, pushed: 2, central: 2, cacheable: true}},
		{"bucket", nil, []Stage{Bucket{Field: "ts", Origin: 0, Width: 60}},
			shape{kind: planBucket, pushed: 1, cacheable: true}},
		{"topk", nil, []Stage{SortStage{Field: "-duration"}, Limit{N: 10}},
			shape{kind: planTopK, pushed: 2}},
		{"full sort", nil, []Stage{SortStage{Field: "duration"}},
			shape{kind: planTopK, pushed: 1}},
		{"limit scan", nil, []Stage{Limit{N: 5}, Limit{N: 3}},
			shape{kind: planScan, pushed: 1, central: 1}},
		{"custom tail stays central", nil, []Stage{group, passthrough{}},
			shape{kind: planGroup, pushed: 1, central: 1, cacheable: true}},
		{"regex filter uncacheable", Doc{"zip": map[string]any{"$regexPrefix": "80"}}, []Stage{group},
			shape{kind: planGroup, pushed: 1, cacheable: true}},
	}
	for _, tc := range cases {
		plan, err := planAggregate(tc.filter, tc.stages)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		got := shape{plan.kind, len(tc.stages) - len(plan.tail), len(plan.tail), plan.cacheable()}
		if got != tc.want {
			t.Errorf("%s: plan = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// A custom stage at the head has nowhere to run.
	for _, stages := range [][]Stage{{passthrough{}, group}, {Match{Filter: Doc{"zip": "8000"}}, passthrough{}}, {nil}} {
		if plan, err := planAggregate(nil, stages); !errors.Is(err, ErrBadFilter) {
			t.Errorf("unplannable head %T: plan %+v, err %v; want ErrBadFilter", stages[len(stages)-1], plan, err)
		}
	}
	c := NewDBWithPartitions(2).Collection("x")
	c.Insert(Doc{"zip": "8000"})
	if out, err := c.Aggregate(nil, passthrough{}, group); !errors.Is(err, ErrBadFilter) {
		t.Errorf("Aggregate ran an unplannable pipeline: %v, %v", out, err)
	}
}

// TestPushdownMatchesStreamingBasics runs each planned shape over a
// small fixed corpus and requires byte-identical answers from both
// executors — the hand-written complement of the property battery.
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
			"verified":  i%3 == 0,
		})
	}
	group := Group{By: []string{"zip"}, Accs: map[string]Accumulator{
		"n":    {Op: "count"},
		"sum":  {Op: "sum", Field: "duration"},
		"avg":  {Op: "avg", Field: "duration"},
		"min":  {Op: "min", Field: "duration"},
		"max":  {Op: "max", Field: "duration"},
		"mac0": {Op: "first", Field: "deviceMac"},
	}}
	pipelines := [][]Stage{
		nil,
		{Match{Filter: Doc{"verified": true}}},
		{group},
		{Match{Filter: Doc{"duration": map[string]any{"$gte": 10.0}}}, group, SortStage{Field: "-n"}, Limit{N: 2}},
		{Group{By: []string{"deviceMac", "verified"}, Accs: map[string]Accumulator{"n": {Op: "count"}}}},
		{Bucket{Field: "ts", Origin: 1000, Width: 250}},
		{Match{Filter: Doc{"deviceMac": "mac-3"}}, Bucket{Field: "ts", Origin: 0, Width: 100}},
		{SortStage{Field: "-ts"}, Limit{N: 9}},
		{SortStage{Field: "duration"}, Limit{N: 15}, Match{Filter: Doc{"verified": true}}},
		{SortStage{Field: "duration"}},
		{Limit{N: 13}},
		{Limit{N: 17}, Match{Filter: Doc{"verified": true}}, Limit{N: 11}},
		{group, passthrough{}, SortStage{Field: "-sum"}},
	}
	filters := []Doc{nil, {"deviceMac": "mac-2"}, {"verified": false}}
	for fi, filter := range filters {
		for pi, stages := range pipelines {
			want, werr := c.aggregateStreaming(filter, stages...)
			got, gerr := c.Aggregate(filter, stages...)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("filter %d pipeline %d: streaming err %v vs pushdown err %v", fi, pi, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("filter %d pipeline %d: pushdown %v\nwant %v", fi, pi, got, want)
			}
		}
	}
}

// TestAggregateMultiMatchesSingle: the batched sweep must answer each
// filter exactly as a standalone Aggregate would.
func TestAggregateMultiMatchesSingle(t *testing.T) {
	c, err := NewDBWithPartitions(3).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		c.Insert(Doc{
			"deviceMac": fmt.Sprintf("mac-%d", i%6),
			"ts":        float64(100 * i),
			"duration":  float64(i % 13),
		})
	}
	filters := []Doc{
		{"deviceMac": "mac-0"},
		{"deviceMac": "mac-4"},
		nil,
		{"duration": map[string]any{"$lt": 6.0}},
		{"deviceMac": "mac-no-such"},
	}
	for _, stages := range [][]Stage{
		{Bucket{Field: "ts", Origin: 0, Width: 1000}},
		{Group{By: []string{"deviceMac"}, Accs: map[string]Accumulator{"n": {Op: "count"}}}},
		{SortStage{Field: "-ts"}, Limit{N: 4}},
	} {
		batch, err := c.AggregateMulti(filters, stages...)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(filters) {
			t.Fatalf("AggregateMulti returned %d results for %d filters", len(batch), len(filters))
		}
		for i, filter := range filters {
			want, err := c.Aggregate(filter, stages...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[i], want) {
				t.Fatalf("filter %d: batched %v != single %v", i, batch[i], want)
			}
		}
	}
	if out, err := c.AggregateMulti(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

// TestAggregateSnapshotCache: a repeated cacheable aggregation is
// served from the partials the partitions kept; a write shows in the
// next answer; served answers never alias cache internals.
func TestAggregateSnapshotCache(t *testing.T) {
	c, err := NewDBWithPartitions(2).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Insert(Doc{"deviceMac": fmt.Sprintf("mac-%d", i%4), "ts": float64(i)})
	}
	pipeline := []Stage{Group{By: []string{"deviceMac"}, Accs: map[string]Accumulator{"n": {Op: "count"}}}}
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
		t.Fatal("cacheable aggregation left no partials behind")
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

// TestGroupValidationErrors: unknown accumulators and malformed
// bucket widths surface as ErrBadFilter on both executors.
func TestGroupValidationErrors(t *testing.T) {
	c := NewDBWithPartitions(2).Collection("x")
	c.Insert(Doc{"v": 1.0})
	bad := []Stage{Group{By: []string{"v"}, Accs: map[string]Accumulator{"x": {Op: "median"}}}}
	if _, err := c.Aggregate(nil, bad...); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("pushdown bad accumulator: %v", err)
	}
	if _, err := c.aggregateStreaming(nil, bad...); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("streaming bad accumulator: %v", err)
	}
	if _, err := c.Aggregate(nil, Bucket{Field: "v", Width: 0}); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("pushdown zero bucket width: %v", err)
	}
	if _, err := c.aggregateStreaming(nil, Bucket{Field: "v", Width: -1}); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("streaming negative bucket width: %v", err)
	}
}
