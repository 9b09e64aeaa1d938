package docstore

import (
	"math"
	"reflect"
	"testing"
)

// FuzzRowFrame feeds arbitrary frame payloads — row frames seeded from
// the encoder, and whatever else the fuzzer makes of them — through
// replayFrame into a fresh partition, as recovery does with what it
// reads from disk. No payload may panic; one that is refused must
// leave the partition empty; and a row frame that is accepted must
// hold exactly the rows it stored, and encode back to the same cells.
// Run continuously by `make fuzz-smoke`.
func FuzzRowFrame(f *testing.F) {
	seed := func(names []string, ids []int64, rows ...[]Cell) {
		var enc rowEncoder
		slots := make([]int, len(names))
		for i := range slots {
			slots[i] = i
		}
		for _, row := range rows {
			enc.define(slots, row)
		}
		enc.begin(names, len(rows))
		for i, row := range rows {
			enc.add(ids[i], slots, row)
		}
		fr, err := enc.finish()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), fr[8:]...))
	}
	seed([]string{"alarmId", "deviceMac", "ts", "duration"}, []int64{0, 1, 2},
		[]Cell{Int64(1), String("00:1a:2b"), Float(1.7e9), Float(12.5)},
		[]Cell{Int64(2), String("00:1a:2c"), Float(1.7e9 + 60), Float(0)},
		[]Cell{Int64(3), String("00:1a:2b"), Float(1.7e9 + 120), Float(math.Inf(1))})
	// A verified alarm's row: the alarm, then its verdict's four cells
	// (predicted, probability, model, modelVersion); beside it a row
	// stored unverified, which has none of them.
	seed([]string{"alarmId", "deviceMac", "ts", "predicted", "probability", "model", "modelVersion"}, []int64{3, 4},
		[]Cell{Int64(11), String("00:1a:2b"), Float(1.7e9), Int64(1), Float(0.5 + math.Sqrt2/10), String("random-forest"), Int64(2)},
		[]Cell{Int64(12), String("00:1a:2c"), Float(1.7e9 + 60), {}, {}, {}, {}})
	seed([]string{"alarmId", "deviceMac", "verdict", "at"}, []int64{7, 9},
		[]Cell{Int64(-5), String(""), {kind: kindInt, num: 1}, Float(-0.5)},
		[]Cell{{}, String("mac"), {}, Float(math.NaN())})
	seed([]string{"a"}, []int64{1 << 40}, []Cell{{}})
	// One row naming slot 0 twice: refused.
	f.Add([]byte{frameRows, 1, 0, 1, 'a', 1, 3, 2, 0, byte(kindInt), 2, 0, byte(kindInt), 4})
	seed(nil, nil)
	f.Add([]byte(`{"op":"del","filter":{"ts":{"$lt":1577839800}}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return // readFrames hands over no empty payload
		}
		c := newCollection("f", "", 1)
		p := c.parts[0]
		maxID := int64(-1)
		err := replayFrame(p, &rowDecoder{dict: c.dict}, payload, &maxID)
		if err != nil {
			if p.ids.Len() != 0 {
				t.Fatalf("a refused frame (%v) stored %d rows", err, p.ids.Len())
			}
			return
		}
		if payload[0] != frameRows {
			return
		}
		// Accepted: decode it again on the side, and encode what came out.
		var got Rows
		got.off = []int32{0}
		if err := (&rowDecoder{dict: c.dict}).decode(payload, &got); err != nil {
			t.Fatalf("replayed, then refused on a second decode: %v", err)
		}
		if p.ids.Len() != got.n || p.size.Load() != int64(got.n) {
			t.Fatalf("%d rows decoded, %d stored (size %d)", got.n, p.ids.Len(), p.size.Load())
		}
		for s, col := range p.cols {
			if col != nil && col.n > p.ids.Len() {
				t.Fatalf("column %d holds %d rows of %d: a row stored a field twice", s, col.n, p.ids.Len())
			}
		}
		var enc rowEncoder
		for i := 0; i < got.n; i++ {
			enc.define(got.row(i))
		}
		enc.begin(c.dict.fieldNames(), got.n)
		for i := 0; i < got.n; i++ {
			slots, cells := got.row(i)
			enc.add(got.ids[i], slots, cells)
		}
		var again Rows
		again.off = []int32{0}
		fr, err := enc.finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := (&rowDecoder{dict: c.dict}).decode(fr[8:], &again); err != nil {
			t.Fatalf("the re-encoded frame is refused: %v", err)
		}
		if !reflect.DeepEqual(again.ids, got.ids) || !reflect.DeepEqual(again.slots, got.slots) ||
			!reflect.DeepEqual(again.off, got.off) || !sameCells(again.cells, got.cells) {
			t.Fatalf("re-encoded frame decodes to\n%v %v\nnot\n%v %v", again.ids, again.cells, got.ids, got.cells)
		}
	})
}

// sameCells compares cells bit for bit (NaN equals NaN).
func sameCells(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
