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
// partition (and so with different text) than the reference's sequential
// scan, and the battery compares error presence, not provenance.
func decodeFilter(f *fuzzReader) []Cond {
	sel := f.byte()
	switch sel % 6 {
	case 0:
		return nil
	case 1:
		return []Cond{eq("zip", fmt.Sprintf("%04d", 8000+int(f.byte())%12))}
	case 2:
		return []Cond{eq("deviceMac", fmt.Sprintf("mac-%02d", int(f.byte())%24))}
	case 3:
		lo := float64(int(f.byte()) * 2)
		return []Cond{cond("duration", "$gte", lo), cond("duration", "$lt", lo+float64(1+int(f.byte())))}
	case 4:
		return []Cond{eq("level", int(f.byte())%3)}
	default:
		return []Cond{eq("zip", fmt.Sprintf("%04d", 8000+int(f.byte())%12)), cond("duration", "$lt", float64(f.byte()))}
	}
}

// decodeStages maps bytes to a pipeline. Shapes Aggregate refuses — a
// second or no By field, an accumulator other than count, a stage other
// than a Group at the head or a second Group, a custom stage, a
// negative limit — are reachable on purpose: the pushdown must refuse
// exactly those, and answer every other pipeline as the streaming
// reference does.
func decodeStages(f *fuzzReader) []Stage {
	sortFields := []string{"duration", "deviceMac", "zip", "_id", "level", "absent", "n", "a1"}
	accOps := []string{"count", "count", "count", "sum", "min", "median"}
	var stages []Stage
	n := int(f.byte()) % 5
	for i := 0; i < n; i++ {
		sel := f.byte() % 8
		if sel <= 2 && i > 0 && f.byte()%4 != 0 {
			sel = 3 // mostly a tail behind the head, sometimes a second Group
		}
		switch {
		case sel <= 2:
			lo := int(f.byte()) % len(groupFields)
			by := []int{1, 1, 1, 0, 2}[f.byte()%5]
			g := Group{By: groupFields[lo:min(lo+by, len(groupFields))], Accs: map[string]Accumulator{}}
			for k := int(f.byte()) % 3; k > 0; k-- {
				g.Accs[fmt.Sprintf("a%d", k)] = Accumulator{Op: accOps[f.byte()%6]}
			}
			stages = append(stages, g)
		case sel == 3:
			field := sortFields[f.byte()%8]
			if f.byte()%2 == 0 {
				field = "-" + field
			}
			stages = append(stages, SortStage{Field: field})
		case sel == 4:
			stages = append(stages, Limit{N: int(int8(f.byte()))}) // may be negative
		case sel <= 6:
			stages = append(stages, Limit{N: int(f.byte()) % 50})
		default:
			stages = append(stages, passthrough{})
		}
	}
	return stages
}

// decodeProbe maps the input's leading bytes to a probe: a typed
// histogram (whose width may be <= 0: ErrBadFilter) or a filter and a
// pipeline.
func decodeProbe(f *fuzzReader) probe {
	if f.byte()%4 == 0 {
		pr := probe{bucket: Bucket{Field: "duration", Origin: float64(int8(f.byte())), Width: float64(int8(f.byte()))}}
		for n := 1 + int(f.byte())%3; n > 0; n-- {
			conds := []Cond{{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", int(f.byte())%24))}}
			if b := f.byte(); b%2 == 0 {
				conds = append(conds, Cond{Field: "duration", Op: "$lt", Value: Float(float64(b) * 2)})
			}
			pr.conds = append(pr.conds, conds)
		}
		return pr
	}
	return probe{filter: decodeFilter(f), stages: decodeStages(f)}
}

// FuzzAggregate is the differential fuzz half of the pushdown battery:
// any probe the decoder can express must behave identically through the
// pushdown and the streaming reference — same error presence, and
// byte-identical answers on success; a pipeline outside the one shape
// Aggregate runs must be ErrBadFilter — on the fixed corpus, and then,
// with whatever bytes are left as a script of writes, asked between
// those writes on a small store of its own (pushdown_interleave_test.go).
// Run continuously by `make fuzz-smoke`.
func FuzzAggregate(f *testing.F) {
	script := []byte{0, 3, 2, 2, 2, 3, 2, 2, 4, 3, 0, 9, 1, 5, 40, 6, 7, 7, 4, 5, 1, 7, 0, 5, 90, 2, 1, 1, 6, 0, 2, 3, 1, 1, 5, 0, 7}
	f.Add([]byte{})                                                          // a zero-width histogram of mac-00
	f.Add([]byte{1, 3, 2, 1, 0, 5})                                          // no stages: refused
	f.Add([]byte{1, 0, 1, 1, 1, 0, 1, 2})                                    // a group count
	f.Add([]byte{1, 3, 10, 4, 2, 3, 2, 0, 4, 255})                           // sort head + negative limit
	f.Add([]byte{0, 1, 0, 0, 2, 1})                                          // zero-width histogram
	f.Add([]byte{1, 2, 7, 2, 0, 0, 1, 0, 7})                                 // group + custom stage
	f.Add([]byte{1, 4, 1, 4, 1, 3, 0, 2, 0, 2, 3, 7, 0, 5, 13, 3, 3, 1})     // group, two counts, sort, limit, sort
	f.Add(append([]byte{1, 0, 3, 1, 0, 1, 1, 0, 3, 7, 0, 5, 10}, script...)) // TopDevices, then a script of writes
	f.Add(append([]byte{0, 0, 20, 2, 5, 8, 3, 7}, script...))                // a three-device histogram, then writes
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fuzzReader{data: data}
		pr := decodeProbe(fr)
		got, gotErr := pr.pushdown(fuzzCorpus)
		if !pr.histogram() && !supported(pr.stages) {
			if !errors.Is(gotErr, ErrBadFilter) {
				t.Fatalf("%v: a pipeline outside the kept shape returned %v, %v", pr, got, gotErr)
			}
			return
		}
		want, wantErr := pr.streaming(fuzzCorpus)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%v: pushdown err %v, streaming err %v", pr, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%v:\npushdown  %v\nstreaming %v", pr, got, want)
		}
		if fr.pos < len(fr.data) {
			runInterleaved(t, fr, 2, 30, 12, "", &pr)
		}
	})
}
