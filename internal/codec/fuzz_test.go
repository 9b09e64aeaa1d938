package codec

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"alarmverify/internal/alarm"
)

// FuzzDecode hammers FastCodec's scanner with arbitrary JSON-shaped
// payloads, decoding each three ways: with one Scratch reused across
// inputs (as a serving shard does), without a Scratch, and through the
// test reference. The contract under fuzzing: malformed input must
// return an error — never panic, never hang — and all three must agree
// on whether to accept, on the error text when they reject, and on the
// decoded alarm when they accept. A Scratch-decoded alarm may keep
// Payload as a view of the input but no other field: after the input
// is overwritten, the rest must still read what the reference decoded.
// Any input the scanner accepts must also survive a re-marshal/
// re-decode round-trip through the reflection codec (the two codecs
// promise interchangeable wire bytes).
func FuzzDecode(f *testing.F) {
	valid, err := (FastCodec{}).Marshal(nil, &alarm.Alarm{
		ID:              42,
		DeviceMAC:       "00:11:22:33:44:55",
		DeviceIP:        "10.0.0.7",
		ZIP:             "8400",
		Timestamp:       time.Date(2016, 2, 11, 10, 30, 0, 0, time.UTC),
		Duration:        90.5,
		Type:            alarm.TypeFire,
		ObjectType:      alarm.ObjectResidential,
		SensorType:      "smoke",
		SoftwareVersion: "v2.1",
		Payload:         `quoted "payload" with\escapes`,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"id":}`))
	f.Add([]byte(`{"id":-}`))
	f.Add([]byte(`{"id":1,"ts":2,}`))
	f.Add([]byte(`{"duration":1e309}`))
	f.Add([]byte(`{"alarmType":"no-such-type"}`))
	f.Add([]byte(`{"deviceMac":"\u00"}`))
	f.Add([]byte(`{"deviceMac":"😀 \udead"}`))
	f.Add([]byte(`{"payload":"\q"}`))
	f.Add([]byte(`{"unknown":{"nested":[1,"two",{"x":"\""}]}}`))
	f.Add([]byte(`{"unknown":[[[[`))
	f.Add([]byte(`{"id":9223372036854775808}`))
	f.Add([]byte("{\"zip\":\"\x00\xff\"}"))

	sc := NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref alarm.Alarm
		errRef := referenceUnmarshal(data, &ref)
		buf := append([]byte(nil), data...)
		var a, plain alarm.Alarm
		err := (FastCodec{}).UnmarshalScratch(buf, &a, sc)
		errPlain := (FastCodec{}).UnmarshalScratch(data, &plain, nil)
		if fmt.Sprint(err) != fmt.Sprint(errRef) || fmt.Sprint(errPlain) != fmt.Sprint(errRef) {
			t.Fatalf("input %q: reference error %v, scratch %v, no scratch %v", data, errRef, err, errPlain)
		}
		if errRef != nil {
			return // rejected: exactly what malformed input should get
		}
		if !reflect.DeepEqual(a, ref) || !reflect.DeepEqual(plain, ref) {
			t.Fatalf("input %q: decodes diverge:\n reference  %+v\n scratch    %+v\n no scratch %+v", data, ref, a, plain)
		}
		for i := range buf {
			buf[i] = 0xDB // poison the input the Scratch decode read
		}
		a.Payload, ref.Payload = "", ""
		if !reflect.DeepEqual(a, ref) {
			t.Fatalf("input %q: a field but Payload aliases the input:\n got  %+v\n want %+v", data, a, ref)
		}
		out, err := (FastCodec{}).Marshal(nil, &plain)
		if err != nil {
			t.Fatalf("re-marshal of accepted input %q failed: %v", data, err)
		}
		var back alarm.Alarm
		if err := (ReflectCodec{}).Unmarshal(out, &back); err != nil {
			t.Fatalf("reflect codec rejected fast codec output %q (from %q): %v", out, data, err)
		}
		if back.ID != plain.ID || back.Duration != plain.Duration ||
			back.Type != plain.Type || !back.Timestamp.Equal(plain.Timestamp) {
			t.Fatalf("round-trip drift: %+v vs %+v (input %q)", plain, back, data)
		}
		// String fields only compare for valid UTF-8: encoding/json
		// coerces invalid bytes to U+FFFD by design, which is not a
		// parser bug.
		if utf8.ValidString(plain.ZIP) && back.ZIP != plain.ZIP {
			t.Fatalf("zip drift: %q vs %q (input %q)", plain.ZIP, back.ZIP, data)
		}
	})
}
