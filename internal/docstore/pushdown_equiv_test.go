package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// genGroup draws a Group stage whose By fields and accumulators stay
// inside the corpus's scalar fields (no map/slice values at min/max
// fields — compareValues rejects rank-5 pairs in both paths, but a
// test crash teaches nothing).
func genGroup(r *rand.Rand) Group {
	bys := [][]string{
		{"deviceMac"},
		{"zip"},
		{"verified"},
		{"meta.sensor"},
		{"deviceMac", "verified"},
		{"zip", "meta.sensor"},
	}
	ops := []string{"count", "sum", "avg", "min", "max", "first"}
	accs := map[string]Accumulator{}
	for n := 1 + r.Intn(3); n > 0; n-- {
		op := ops[r.Intn(len(ops))]
		field := "duration"
		if op == "min" || op == "max" || op == "first" {
			// Strings and numbers both order totally; mix them in.
			field = []string{"duration", "zip", "deviceMac"}[r.Intn(3)]
		}
		accs[fmt.Sprintf("a%d_%s", n, op)] = Accumulator{Op: op, Field: field}
	}
	return Group{By: bys[r.Intn(len(bys))], Accs: accs}
}

// genSortField draws a sort key, sometimes descending, sometimes a
// field absent from every doc (ties everywhere — pins the stable
// id-order tie-break).
func genSortField(r *rand.Rand) string {
	f := []string{"duration", "deviceMac", "zip", "_id", "meta.sensor", "absent"}[r.Intn(6)]
	if r.Intn(2) == 0 {
		return "-" + f
	}
	return f
}

// genStages draws one pipeline from a grammar spanning every plannable
// head shape (group, bucket, sort+limit top-K, limit scans) and central
// tails behind pushed heads, custom stages among them.
func genStages(r *rand.Rand) []Stage {
	var stages []Stage
	for n := r.Intn(3); n > 0; n-- {
		stages = append(stages, Match{Filter: genFilter(r)})
	}
	switch r.Intn(7) {
	case 0:
		stages = append(stages, genGroup(r))
	case 1:
		stages = append(stages, Bucket{
			Field:  "duration",
			Origin: float64(r.Intn(50)),
			Width:  float64(10 * (1 + r.Intn(8))),
		})
	case 2:
		stages = append(stages, SortStage{Field: genSortField(r)})
		if r.Intn(2) == 0 {
			stages = append(stages, Limit{N: r.Intn(40)})
		}
	case 3:
		if r.Intn(2) == 0 {
			stages = append(stages, Limit{N: r.Intn(40)})
		}
	case 4:
		// Pushed group head with a central tail over its outputs.
		g := genGroup(r)
		stages = append(stages, g)
		for name := range g.Accs {
			stages = append(stages, SortStage{Field: "-" + name}, Limit{N: 1 + r.Intn(10)})
			break
		}
	case 5:
		// Mid-pipeline Match stays central behind a pushed scan head.
		stages = append(stages, Limit{N: 5 + r.Intn(40)}, Match{Filter: genFilter(r)})
	default:
		// A custom stage runs centrally behind a pushed head.
		stages = append(stages, Limit{N: 5 + r.Intn(40)}, passthrough{})
		if r.Intn(2) == 0 {
			stages = append(stages, SortStage{Field: genSortField(r)})
		}
	}
	return stages
}

// runBoth executes the same pipeline through the pushdown planner and
// the streaming oracle and fails the test on any divergence — in error
// presence or, via DeepEqual, in document content, order, and the
// nil-versus-empty distinction.
func runBoth(t *testing.T, c *Collection, filter Doc, stages []Stage, tag string) []Doc {
	t.Helper()
	got, gotErr := c.Aggregate(filter, stages...)
	want, wantErr := c.aggregateStreaming(filter, stages...)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: filter %v stages %v: pushdown err %v, streaming err %v",
			tag, filter, stages, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: filter %v stages %v:\npushdown  %v\nstreaming %v",
			tag, filter, stages, got, want)
	}
	return got
}

// TestPropertyPushdownEquivalence is the pushdown battery's core
// property: over random corpora, filters, and pipelines, Aggregate
// (pushdown) and aggregateStreaming (the executable
// specification) return byte-identical answers, across partition
// counts and with indexes present or absent — on a store at rest, and
// then with the standing queries asked between writes of every kind on
// a durable one (pushdown_interleave_test.go).
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
				var filter Doc
				if r.Intn(4) > 0 {
					filter = genFilter(r)
				}
				runBoth(t, c, filter, genStages(r), fmt.Sprintf("round %d", round))
			}
			script := make([]byte, 6000)
			r.Read(script)
			runInterleaved(t, &fuzzReader{data: script}, parts, 300, 120, t.TempDir(), nil)
		})
	}
}

// TestPropertyPushdownPartitionInvariance: the same insert sequence
// must yield identical Aggregate answers whatever the partition count.
// A merge bug that depends on how documents land across partitions
// (torn group partials, wrong top-K clip, dropped bucket cells) shows
// up as a diff against the single-partition build.
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
		var filter Doc
		if r.Intn(4) > 0 {
			filter = genFilter(r)
		}
		probes[i] = probe{filter: filter, stages: genStages(r)}
	}
	ref := build(1)
	for _, parts := range []int{2, 5, 8} {
		c := build(parts)
		for i, pr := range probes {
			want, wantErr := ref.Aggregate(pr.filter, pr.stages...)
			got, gotErr := c.Aggregate(pr.filter, pr.stages...)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("partitions=%d probe %d: err %v vs reference err %v",
					parts, i, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partitions=%d probe %d (filter %v stages %v):\ngot  %v\nwant %v",
					parts, i, pr.filter, pr.stages, got, want)
			}
		}
	}
}

// TestPropertyPushdownDurableReopen pins the battery onto the durable
// store: aggregation answers must survive a WAL checkpoint, mutations
// past the checkpoint, Close, and recovery — and the recovered store
// must again satisfy pushdown ≡ streaming. It runs in strict mode and
// beside a 1 ms group syncer.
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
	if _, err := c.Delete(Doc{"zip": "8007"}); err != nil {
		t.Fatal(err)
	}

	probes := make([]probe, 40)
	for i := range probes {
		var filter Doc
		if r.Intn(4) > 0 {
			filter = genFilter(r)
		}
		probes[i] = probe{filter: filter, stages: genStages(r)}
	}
	before := make([][]Doc, len(probes))
	for i, pr := range probes {
		before[i] = runBoth(t, c, pr.filter, pr.stages, fmt.Sprintf("pre-close probe %d", i))
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
		after := runBoth(t, c2, pr.filter, pr.stages, fmt.Sprintf("post-reopen probe %d", i))
		if !reflect.DeepEqual(after, before[i]) {
			t.Fatalf("post-reopen probe %d (filter %v stages %v): answer changed across recovery:\nbefore %v\nafter  %v",
				i, pr.filter, pr.stages, before[i], after)
		}
	}
}
