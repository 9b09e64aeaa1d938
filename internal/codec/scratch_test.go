package codec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"alarmverify/internal/alarm"
)

// TestScratchEquivalenceProperty is the decode equivalence guarantee:
// for any alarm the fast codec can produce, UnmarshalScratch yields an
// alarm.Alarm bit-identical to the test reference's.
func TestScratchEquivalenceProperty(t *testing.T) {
	sc := NewScratch()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := quickAlarm(r)
		wire, err := (FastCodec{}).Marshal(nil, &a)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		var ref, scratch alarm.Alarm
		errRef := referenceUnmarshal(wire, &ref)
		errScratch := (FastCodec{}).UnmarshalScratch(wire, &scratch, sc)
		if (errRef == nil) != (errScratch == nil) {
			t.Logf("error divergence: reference=%v scratch=%v (wire %q)", errRef, errScratch, wire)
			return false
		}
		if errRef != nil {
			return true
		}
		if !reflect.DeepEqual(ref, scratch) {
			t.Logf("value divergence:\n reference %+v\n scratch   %+v\n(wire %q)", ref, scratch, wire)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestScratchEquivalenceEdgeCases pins the equivalence with the test
// reference, error text included, on handwritten wire forms the
// marshaller never emits: escaped keys and values, whitespace, unknown
// fields, absent fields, duplicate fields, and the malformed inputs
// the fuzz corpus starts from. With a Scratch and without, the scanner
// must accept what the reference accepts, decode it to the same alarm,
// and reject the rest with the reference's error.
func TestScratchEquivalenceEdgeCases(t *testing.T) {
	cases := []string{
		`{}`,
		`{"alarmType":"fire","objectType":"public"}`,
		`{ "id" : 7 , "alarmType" : "fire" , "objectType" : "public" }`,
		`{"id":5,"alarmType":"fire","objectType":"public"}`,
		`{"id":1,"deviceMac":"a\nbé","deviceIp":"😀","zip":"z",` +
			`"ts":1455,"duration":1.25e2,"alarmType":"water","objectType":"commercial",` +
			`"sensorType":"s","softwareVersion":"v","payload":"p\"q"}`,
		`{"id":9223372036854775808,"alarmType":"fire","objectType":"public"}`,
		`{"duration":1e309,"alarmType":"fire","objectType":"public"}`,
		`{"id":2,"unknown":{"nested":[1,"two",{"x":"\""}]},"alarmType":"panic",` +
			`"objectType":"agricultural"}`,
		`{"alarmType":"earthquake","objectType":"public"}`,
		`{"alarmType":"fire","objectType":"castle"}`,
		`{"alarmType":"fire","alarmType":"nope","objectType":"public"}`,
		`{"alarmType":"nope","alarmType":"fire","objectType":"public"}`,
		`{"id":-42,"ts":-1,"duration":-0.5,"alarmType":"fire","objectType":"public"}`,
		`{"id":`,
		`{"id":}`,
		``,
		`{"payload":"\q"}`,
		`{"\u0069d":3,"alarmType":"fire","objectType":"public"}`,
		`{"id":1,"ts":2,}`,
		`{"id":1 "ts":2}`,
		`{"deviceMac":"\u00"}`,
	}
	sc := NewScratch()
	for _, wire := range cases {
		var ref alarm.Alarm
		errRef := referenceUnmarshal([]byte(wire), &ref)
		for _, s := range []*Scratch{sc, nil} {
			var got alarm.Alarm
			err := (FastCodec{}).UnmarshalScratch([]byte(wire), &got, s)
			if fmt.Sprint(err) != fmt.Sprint(errRef) {
				t.Errorf("%q (scratch %v): error divergence: reference=%v scanner=%v", wire, s != nil, errRef, err)
				continue
			}
			if err == nil && !reflect.DeepEqual(ref, got) {
				t.Errorf("%q (scratch %v): value divergence:\n reference %+v\n scanner   %+v", wire, s != nil, ref, got)
			}
		}
	}
}

// TestScratchDoesNotAliasInput guards the view discipline: every
// string field of the decoded alarm but Payload must be safe to keep
// after the input buffer is reused, so for those the parser may only
// hand out copies (or interned copies), never views. Payload is the one
// view — of the input, or of its own decoded bytes when it had escapes
// — and without a scratch it is a copy like the rest.
func TestScratchDoesNotAliasInput(t *testing.T) {
	a := sampleAlarm()
	wire, err := (FastCodec{}).Marshal(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	var got alarm.Alarm
	if err := (FastCodec{}).UnmarshalScratch(wire, &got, sc); err != nil {
		t.Fatal(err)
	}
	escaped := a
	escaped.Payload = "escaped\n\"payload\""
	wireEsc, _ := (FastCodec{}).Marshal(nil, &escaped)
	var gotEsc, gotNil alarm.Alarm
	if err := (FastCodec{}).UnmarshalScratch(wireEsc, &gotEsc, sc); err != nil {
		t.Fatal(err)
	}
	if err := (FastCodec{}).UnmarshalScratch(wire, &gotNil, nil); err != nil {
		t.Fatal(err)
	}
	if got.Payload != a.Payload {
		t.Fatalf("payload = %q, want %q", got.Payload, a.Payload)
	}
	for _, w := range [][]byte{wire, wireEsc} {
		for i := range w {
			w[i] = 0xDB // poison the input buffers
		}
	}
	if got.DeviceMAC != a.DeviceMAC || got.ZIP != a.ZIP ||
		got.SensorType != a.SensorType {
		t.Fatalf("decoded alarm aliases the input buffer: %+v", got)
	}
	if got.Payload != strings.Repeat("\xdb", len(a.Payload)) {
		t.Fatalf("payload %q is not a view of the input", got.Payload)
	}
	if gotEsc.Payload != escaped.Payload || gotNil.Payload != a.Payload {
		t.Fatalf("escaped payload %q / scratch-less payload %q alias the input", gotEsc.Payload, gotNil.Payload)
	}
}

// TestInternerBoundsAndHits checks both interner contracts: repeat
// sightings return the identical retained string, and the table stops
// growing at its bound instead of retaining high-cardinality values.
func TestInternerBoundsAndHits(t *testing.T) {
	in := NewInterner(4)
	first := in.Intern([]byte("alpha"))
	second := in.Intern([]byte("alpha"))
	if first != second {
		t.Fatalf("interned values differ: %q vs %q", first, second)
	}
	for _, s := range []string{"b", "c", "d", "e", "f", "g"} {
		in.Intern([]byte(s))
	}
	if len(in.m) > 4 {
		t.Fatalf("interner exceeded its bound: %d entries", len(in.m))
	}
	if got := in.Intern([]byte("overflow")); got != "overflow" {
		t.Fatalf("overflow intern returned %q", got)
	}
}

// TestInternerChunks: first sightings are copied into byte chunks, and
// what Intern hands out stays equal to what it was given — across
// several chunks, a GC, and the input buffer being overwritten after
// every call (a retained string never aliases a record) — while the
// table stays within its bound and a repeat sighting returns the
// retained bytes themselves.
func TestInternerChunks(t *testing.T) {
	in := NewInterner(0)
	const n = 5000 // past the 4 096 bound: the rest are plain copies
	want, got := make([]string, n), make([]string, n)
	buf := make([]byte, 0, 64)
	bytes := 0
	for i := range want {
		want[i] = fmt.Sprintf("%02x:%04d:%s", i%251, i, strings.Repeat("z", i%23))
		buf = append(buf[:0], want[i]...)
		got[i] = in.Intern(buf)
		for j := range buf {
			buf[j] = 0xDB // poison the source
		}
		if i < 4096 {
			bytes += len(want[i])
		}
	}
	if bytes < 4*internChunk {
		t.Fatalf("retained %d bytes: fewer than four chunks' worth", bytes)
	}
	runtime.GC()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("string %d reads %q, want %q", i, got[i], want[i])
		}
	}
	if len(in.m) > 4096 {
		t.Fatalf("interner holds %d strings, bound 4096", len(in.m))
	}
	again := in.Intern([]byte(want[17]))
	if unsafe.StringData(again) != unsafe.StringData(got[17]) {
		t.Fatal("a repeat sighting did not return the retained string")
	}
	if allocs := testing.AllocsPerRun(100, func() { in.Intern([]byte(want[17])) }); allocs != 0 {
		t.Fatalf("a repeat sighting allocates %.1f, want 0", allocs)
	}
}

// TestScratchDecodeAllocs pins the headline claim: decoding a record
// whose field values have been seen before performs zero heap
// allocations. Unmarshal, which runs the same scanner without a
// Scratch, allocates its six string copies and nothing else.
func TestScratchDecodeAllocs(t *testing.T) {
	a := sampleAlarm()
	wire, err := (FastCodec{}).Marshal(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	var out alarm.Alarm
	// Warm the interner so the steady state is measured. The payload
	// stays in: it is a view of the record, not a copy.
	if err := (FastCodec{}).UnmarshalScratch(wire, &out, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := (FastCodec{}).UnmarshalScratch(wire, &out, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state scratch decode allocates %.1f/op, want 0", allocs)
	}
	copying := testing.AllocsPerRun(100, func() {
		if err := (FastCodec{}).Unmarshal(wire, &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Unmarshal %.1f allocs/op, scratch %.1f allocs/op", copying, allocs)
	if copying != 6 {
		t.Errorf("Unmarshal allocates %.1f/op, want 6: one per string field", copying)
	}
}

// BenchmarkUnmarshalScratch measures the decode serving runs, with a
// warm Scratch, next to BenchmarkUnmarshal's copying decodes;
// TestScratchDecodeAllocs holds its allocation count.
func BenchmarkUnmarshalScratch(b *testing.B) {
	a := sampleAlarm()
	wire, err := (FastCodec{}).Marshal(nil, &a)
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScratch()
	var out alarm.Alarm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (FastCodec{}).UnmarshalScratch(wire, &out, sc); err != nil {
			b.Fatal(err)
		}
	}
	if out.ID != a.ID {
		b.Fatal("decode drift")
	}
}
