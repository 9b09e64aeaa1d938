package docstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzCorpus is the fixed collection every FuzzAggregate execution
// queries. Built once: aggregations never mutate the store, and the
// fuzz engine drives executions sequentially within a process.
var fuzzCorpus = func() *Collection {
	c, err := NewDBWithPartitions(3).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		panic(err)
	}
	genCorpus(c, rand.New(rand.NewSource(777)), 150)
	if err := c.CreateIndex("zip"); err != nil {
		panic(err)
	}
	return c
}()

// fuzzReader draws small values from the fuzz input, yielding zeros
// once the bytes run out (so every input decodes to some pipeline).
type fuzzReader struct {
	data []byte
	pos  int
}

func (f *fuzzReader) byte() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

// decodeFilter maps one byte to a filter from the same shapes the
// property generator draws — well-formed by construction, because a
// malformed filter's error can legitimately surface from a different
// partition (and so with different text) than the oracle's sequential
// scan, and the battery compares error presence, not provenance.
func decodeFilter(f *fuzzReader) Doc {
	sel := f.byte()
	switch sel % 6 {
	case 0:
		return nil
	case 1:
		return Doc{"zip": fmt.Sprintf("%04d", 8000+int(f.byte())%12)}
	case 2:
		return Doc{"deviceMac": fmt.Sprintf("mac-%02d", int(f.byte())%24)}
	case 3:
		lo := float64(int(f.byte()) * 2)
		return Doc{"duration": map[string]any{"$gte": lo, "$lt": lo + float64(1+int(f.byte()))}}
	case 4:
		return Doc{"verified": f.byte()%2 == 0}
	default:
		return Doc{"$or": []any{
			map[string]any{"zip": fmt.Sprintf("%04d", 8000+int(f.byte())%12)},
			map[string]any{"duration": map[string]any{"$lt": float64(f.byte())}},
		}}
	}
}

// decodeStages maps the remaining bytes to a pipeline. Invalid shapes
// whose rejection is doc-independent — negative limits, zero bucket
// widths, unknown accumulator ops — are reachable on purpose: both
// executors must reject them, and identically often (error presence is
// part of the differential). So is a custom stage at the head, which
// only the oracle can run (unplannable). Map-valued fields stay out of
// sort and accumulator positions, matching the documented pushdown
// contract.
func decodeStages(f *fuzzReader) []Stage {
	sortFields := []string{"duration", "deviceMac", "zip", "_id", "meta.sensor", "absent"}
	accFields := []string{"duration", "zip", "deviceMac"}
	accOps := []string{"count", "sum", "avg", "min", "max", "first", "median"}
	var stages []Stage
	n := 1 + int(f.byte())%4
	for i := 0; i < n; i++ {
		switch f.byte() % 8 {
		case 0:
			stages = append(stages, Match{Filter: decodeFilter(f)})
		case 1:
			g := Group{By: []string{[]string{"deviceMac", "zip", "verified", "meta.sensor"}[f.byte()%4]},
				Accs: map[string]Accumulator{}}
			for k := 1 + int(f.byte())%2; k > 0; k-- {
				g.Accs[fmt.Sprintf("a%d", k)] = Accumulator{
					Op:    accOps[f.byte()%7],
					Field: accFields[f.byte()%3],
				}
			}
			stages = append(stages, g)
		case 2:
			stages = append(stages, Bucket{
				Field:  "duration",
				Origin: float64(int8(f.byte())),
				Width:  float64(int8(f.byte())), // may be <= 0: ErrBadFilter
			})
		case 3:
			field := sortFields[f.byte()%6]
			if f.byte()%2 == 0 {
				field = "-" + field
			}
			stages = append(stages, SortStage{Field: field})
		case 4:
			stages = append(stages, Limit{N: int(int8(f.byte()))}) // may be negative
		case 5:
			stages = append(stages, Limit{N: int(f.byte()) % 50})
		case 6:
			stages = append(stages, Match{Filter: decodeFilter(f)})
		default:
			stages = append(stages, passthrough{})
		}
	}
	return stages
}

// unplannable reports whether the pipeline's head — its first stage
// that is not a Match — is a custom stage: Aggregate refuses it.
func unplannable(stages []Stage) bool {
	for _, s := range stages {
		if _, isMatch := s.(Match); !isMatch {
			_, custom := s.(passthrough)
			return custom
		}
	}
	return false
}

// FuzzAggregate is the differential fuzz half of the pushdown battery:
// any filter+pipeline the decoder can express must behave identically
// through the pushdown planner and the streaming oracle — same error
// presence, and byte-identical documents on success — on the fixed
// corpus, and then, with whatever bytes are left as a script of writes,
// asked between those writes on a small store of its own
// (pushdown_interleave_test.go). Run continuously by `make fuzz-smoke`.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 1, 0, 5})
	f.Add([]byte{0, 2, 1, 1, 6, 0, 1, 2})                // group heads
	f.Add([]byte{3, 10, 4, 3, 2, 0, 4, 255})             // sort + negative limit
	f.Add([]byte{5, 1, 1, 2, 2, 0, 0})                   // zero-width bucket
	f.Add([]byte{2, 7, 3, 7, 3, 1, 4, 20})               // custom stage + tail
	f.Add([]byte{4, 1, 1, 2, 1, 6, 1, 1, 0, 2, 3, 1, 4}) // mixed
	f.Add([]byte{0, 0, 1, 0, 1, 5, 0,                    // a group head, then a script of writes
		0, 3, 2, 2, 2, 3, 2, 2, 4, 3, 0, 9, 1, 5, 40, 6, 7, 7, 4, 5, 1, 7, 0, 5, 90, 2, 1, 1, 6, 0, 2, 3, 1, 1, 5, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fuzzReader{data: data}
		filter := decodeFilter(fr)
		stages := decodeStages(fr)
		got, gotErr := fuzzCorpus.Aggregate(filter, stages...)
		if unplannable(stages) {
			if !errors.Is(gotErr, ErrBadFilter) {
				t.Fatalf("filter %v stages %v: unplannable head returned %v, %v", filter, stages, got, gotErr)
			}
			return
		}
		want, wantErr := fuzzCorpus.aggregateStreaming(filter, stages...)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("filter %v stages %v: pushdown err %v, streaming err %v",
				filter, stages, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %v stages %v:\npushdown  %v\nstreaming %v",
				filter, stages, got, want)
		}
		if fr.pos < len(fr.data) {
			runInterleaved(t, fr, 2, 30, 12, "", &probe{filter, stages})
		}
	})
}
