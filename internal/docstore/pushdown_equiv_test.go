package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// probe is one question of a shape the store answers: a group count (a
// single-field count Group, then SortStage and Limit), or — when bucket
// is set — a typed histogram per conjunction of conds. Any other
// pipeline must be ErrBadFilter.
type probe struct {
	filter []Cond
	stages []Stage
	conds  [][]Cond
	bucket Bucket
}

func (pr probe) histogram() bool { return pr.bucket != (Bucket{}) }

// answer is what a probe returned: documents, or one histogram per
// conjunction.
type answer struct {
	docs []Doc
	bars [][]BucketCount
}

// pushdown asks the probe of the store's pushdown.
func (pr probe) pushdown(c *Collection) (answer, error) {
	if pr.histogram() {
		bars, err := bucketCounts(c, pr.conds, pr.bucket)
		return answer{bars: bars}, err
	}
	docs, err := c.Aggregate(pr.filter, pr.stages...)
	return answer{docs: docs}, err
}

// streaming asks the probe of the streaming reference.
func (pr probe) streaming(c *Collection) (answer, error) {
	if pr.histogram() {
		bars, err := c.bucketStreaming(pr.conds, pr.bucket)
		return answer{bars: bars}, err
	}
	docs, err := c.aggregateStreaming(pr.filter, pr.stages...)
	return answer{docs: docs}, err
}

func (pr probe) String() string {
	if pr.histogram() {
		return fmt.Sprintf("histogram %v of %v", pr.bucket, pr.conds)
	}
	return fmt.Sprintf("filter %v stages %v", pr.filter, pr.stages)
}

// runBoth asks the probe of the pushdown and of the streaming reference
// and fails the test on any divergence — in error presence or, via
// DeepEqual, in content, order, and the nil-versus-empty distinction.
func runBoth(t *testing.T, c *Collection, pr probe, tag string) answer {
	t.Helper()
	got, gotErr := pr.pushdown(c)
	want, wantErr := pr.streaming(c)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: %v: pushdown err %v, streaming err %v", tag, pr, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %v:\npushdown  %v\nstreaming %v", tag, pr, got, want)
	}
	return got
}

// groupFields are the fields the generators group by: indexed and
// unindexed strings, an int, a float64, the id and a field no document
// carries.
var groupFields = []string{"deviceMac", "zip", "level", "duration", "_id", "absent"}

// genStages draws one pipeline: mostly the shape Aggregate runs (a
// count Group with a central SortStage/Limit tail), sometimes one it
// refuses.
func genStages(r *rand.Rand) []Stage {
	switch r.Intn(8) {
	case 0:
		return nil
	case 1: // refused: a second By field, an accumulator other than count, a limit or sort head, a custom stage, a negative limit
		return [][]Stage{
			{Group{By: []string{"zip", "level"}}},
			{Group{By: []string{"zip"}, Accs: map[string]Accumulator{"s": {Op: "sum"}}}},
			{Limit{N: 5}},
			{SortStage{Field: "-duration"}, Limit{N: 3}},
			{countGroup("zip"), passthrough{}},
			{countGroup("zip"), Limit{N: -1}},
		}[r.Intn(6)]
	}
	g := Group{By: []string{groupFields[r.Intn(len(groupFields))]}, Accs: map[string]Accumulator{}}
	for n := r.Intn(3); n > 0; n-- {
		g.Accs[fmt.Sprintf("n%d", n)] = Accumulator{Op: "count"}
	}
	stages := []Stage{g}
	for n := r.Intn(4); n > 0; n-- {
		if r.Intn(2) == 0 {
			stages = append(stages, Limit{N: r.Intn(30)})
			continue
		}
		field := g.By[0]
		if r.Intn(2) == 0 {
			field = "n1"
		}
		if r.Intn(2) == 0 {
			field = "-" + field
		}
		stages = append(stages, SortStage{Field: field})
	}
	return stages
}

// genHistogram draws a typed histogram ask over one to three devices,
// the history's per-device filter among them.
func genHistogram(r *rand.Rand) probe {
	pr := probe{bucket: Bucket{Field: "duration", Origin: float64(r.Intn(50)), Width: float64(10 * (1 + r.Intn(8)))}}
	for n := 1 + r.Intn(3); n > 0; n-- {
		mac := Cond{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", r.Intn(24)))}
		switch r.Intn(3) {
		case 0:
			pr.conds = append(pr.conds, []Cond{mac})
		case 1:
			pr.conds = append(pr.conds, []Cond{mac, {Field: "duration", Op: "$gte", Value: Float(float64(r.Intn(400)))}})
		default:
			pr.conds = append(pr.conds, []Cond{{Field: "zip", Op: "$eq", Value: String(fmt.Sprintf("%04d", 8000+r.Intn(12)))}})
		}
	}
	return pr
}

// genProbe draws a probe of any shape.
func genProbe(r *rand.Rand) probe {
	if r.Intn(4) == 0 {
		return genHistogram(r)
	}
	var filter []Cond
	if r.Intn(4) > 0 {
		filter = genFilter(r)
	}
	return probe{filter: filter, stages: genStages(r)}
}

// TestPropertyPushdownEquivalence is the pushdown battery's core
// property: over random corpora, filters and asks, the pushdown and the
// streaming reference (the executable specification) return
// byte-identical answers, across partition counts and with indexes
// present or absent — on a store at rest, and then with the standing
// queries asked between writes of every kind on a durable one
// (pushdown_interleave_test.go).
func TestPropertyPushdownEquivalence(t *testing.T) {
	for _, parts := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(parts) * 1237))
			c, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
			if err != nil {
				t.Fatal(err)
			}
			genCorpus(c, r, 350)
			if err := c.CreateIndex("zip"); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 120; round++ {
				runBoth(t, c, genProbe(r), fmt.Sprintf("round %d", round))
			}
			script := make([]byte, 6000)
			r.Read(script)
			runInterleaved(t, &fuzzReader{data: script}, parts, 300, 120, t.TempDir(), nil)
		})
	}
}

// TestPropertyPushdownPartitionInvariance: the same insert sequence
// must yield identical answers whatever the partition count. A merge
// bug that depends on how documents land across partitions (torn group
// partials, dropped or doubled bars) shows up as a diff against the
// single-partition build.
func TestPropertyPushdownPartitionInvariance(t *testing.T) {
	build := func(parts int) *Collection {
		c, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(4242))
		genCorpus(c, r, 300)
		return c
	}
	r := rand.New(rand.NewSource(99991))
	probes := make([]probe, 50)
	for i := range probes {
		probes[i] = genProbe(r)
	}
	ref := build(1)
	for _, parts := range []int{2, 5, 8} {
		c := build(parts)
		for i, pr := range probes {
			want, wantErr := pr.pushdown(ref)
			got, gotErr := pr.pushdown(c)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("partitions=%d probe %d: err %v vs reference err %v", parts, i, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partitions=%d probe %d (%v):\ngot  %v\nwant %v", parts, i, pr, got, want)
			}
		}
	}
}

// TestPropertyPushdownDurableReopen pins the battery onto the durable
// store: answers must survive a WAL checkpoint, mutations past the
// checkpoint, Close, and recovery — and the recovered store must again
// satisfy pushdown ≡ streaming. It runs in strict mode and beside a
// 1 ms group syncer.
func TestPropertyPushdownDurableReopen(t *testing.T) {
	group := fastOpts()
	group.SyncInterval = time.Millisecond
	for _, mode := range []struct {
		name string
		opts DurableOptions
	}{{"strict", fastOpts()}, {"group", group}} {
		t.Run(mode.name, func(t *testing.T) { pushdownDurableReopen(t, mode.opts) })
	}
}

func pushdownDurableReopen(t *testing.T, opts DurableOptions) {
	dir := t.TempDir()
	db, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3331))
	genCorpus(c, r, 200)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutations past the checkpoint force WAL replay on recovery.
	genCorpus(c, r, 60)
	if _, err := c.deleteWhere([]Cond{eq("zip", "8007")}); err != nil {
		t.Fatal(err)
	}

	probes := make([]probe, 40)
	for i := range probes {
		probes[i] = genProbe(r)
	}
	before := make([]answer, len(probes))
	for i, pr := range probes {
		before[i] = runBoth(t, c, pr, fmt.Sprintf("pre-close probe %d", i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Collection("alarms")
	for i, pr := range probes {
		after := runBoth(t, c2, pr, fmt.Sprintf("post-reopen probe %d", i))
		if !reflect.DeepEqual(after, before[i]) {
			t.Fatalf("post-reopen probe %d (%v): answer changed across recovery:\nbefore %v\nafter  %v",
				i, pr, before[i], after)
		}
	}
}
