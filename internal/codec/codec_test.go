package codec

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"alarmverify/internal/alarm"
)

func sampleAlarm() alarm.Alarm {
	return alarm.Alarm{
		ID:              42,
		DeviceMAC:       "00:1b:44:11:3a:b7",
		DeviceIP:        "192.168.10.7",
		ZIP:             "zh-8400",
		Timestamp:       time.Date(2016, 2, 11, 23, 45, 12, 0, time.UTC),
		Duration:        37.5,
		Type:            alarm.TypeIntrusion,
		ObjectType:      alarm.ObjectIndustrial,
		SensorType:      "motion-v2",
		SoftwareVersion: "3.1.4",
		Payload:         "zone=basement;battery=87",
	}
}

func codecs() []Codec { return []Codec{ReflectCodec{}, FastCodec{}} }

func TestRoundTripEachCodec(t *testing.T) {
	want := sampleAlarm()
	for _, c := range codecs() {
		b, err := c.Marshal(nil, &want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.Name(), err)
		}
		var got alarm.Alarm
		if err := c.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", c.Name(), got, want)
		}
	}
}

func TestCrossCodecCompatibility(t *testing.T) {
	want := sampleAlarm()
	for _, enc := range codecs() {
		for _, dec := range codecs() {
			b, err := enc.Marshal(nil, &want)
			if err != nil {
				t.Fatalf("%s marshal: %v", enc.Name(), err)
			}
			var got alarm.Alarm
			if err := dec.Unmarshal(b, &got); err != nil {
				t.Fatalf("%s->%s unmarshal: %v", enc.Name(), dec.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s->%s mismatch: got %+v", enc.Name(), dec.Name(), got)
			}
		}
	}
}

func TestFastCodecOutputIsValidJSON(t *testing.T) {
	a := sampleAlarm()
	a.Payload = "weird \"quotes\" and \\slashes\\ and\nnewlines\tand\x01control"
	b, err := FastCodec{}.Marshal(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("fast codec output is not valid JSON: %v\n%s", err, b)
	}
	if m["payload"] != a.Payload {
		t.Errorf("payload mismatch: got %q want %q", m["payload"], a.Payload)
	}
}

func TestFastCodecSkipsUnknownFields(t *testing.T) {
	raw := `{"id":7,"futureField":{"nested":[1,2,{"x":"y"}]},"zip":"zh-8000",` +
		`"deviceMac":"m","deviceIp":"i","ts":1000,"duration":3,` +
		`"alarmType":"fire","objectType":"public","sensorType":"s",` +
		`"softwareVersion":"v","extra":"ignored"}`
	var got alarm.Alarm
	if err := (FastCodec{}).Unmarshal([]byte(raw), &got); err != nil {
		t.Fatalf("unmarshal with unknown fields: %v", err)
	}
	if got.ID != 7 || got.ZIP != "zh-8000" || got.Type != alarm.TypeFire {
		t.Errorf("fields after skip wrong: %+v", got)
	}
}

func TestFastCodecOmitsEmptyPayload(t *testing.T) {
	a := sampleAlarm()
	a.Payload = ""
	b, err := FastCodec{}.Marshal(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["payload"]; ok {
		t.Error("empty payload should be omitted")
	}
}

func TestUnmarshalRejectsUnknownEnums(t *testing.T) {
	raw := `{"id":1,"deviceMac":"m","deviceIp":"i","zip":"z","ts":0,` +
		`"duration":0,"alarmType":"earthquake","objectType":"public",` +
		`"sensorType":"s","softwareVersion":"v"}`
	const want = `codec: unknown alarm type "earthquake"`
	for _, c := range codecs() {
		var a alarm.Alarm
		if err := c.Unmarshal([]byte(raw), &a); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", c.Name(), err, want)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	bad := []string{"", "{", `{"id":}`, "null garbage", `{"id":1`}
	for _, s := range bad {
		var a alarm.Alarm
		if err := (FastCodec{}).Unmarshal([]byte(s), &a); err == nil {
			t.Errorf("fast codec accepted garbage %q", s)
		}
	}
}

// TestUnmarshalRejectLeavesAlarm pins the Codec contract callers rely
// on: a record Unmarshal rejects leaves the alarm as it was, even when
// fields before the fault had already scanned (the experiments' replay
// consumer ignores the error and filters on a zero ID).
func TestUnmarshalRejectLeavesAlarm(t *testing.T) {
	rejected := []string{
		`{"id":5,"alarmType":"nope","objectType":"public"}`,
		`{"id":7,"deviceMac":"m","zip":"z`,
	}
	for _, c := range codecs() {
		for _, raw := range rejected {
			a := sampleAlarm()
			if err := c.Unmarshal([]byte(raw), &a); err == nil {
				t.Fatalf("%s accepted %q", c.Name(), raw)
			}
			if want := sampleAlarm(); !reflect.DeepEqual(a, want) {
				t.Errorf("%s: rejecting %q rewrote the alarm:\n got %+v\nwant %+v", c.Name(), raw, a, want)
			}
		}
	}
}

// quickAlarm builds a deterministic pseudo-random alarm from quick's
// rand source, restricted to the invariants real alarms satisfy
// (millisecond timestamps, finite durations).
func quickAlarm(r *rand.Rand) alarm.Alarm {
	strs := func() string {
		n := r.Intn(20)
		b := make([]rune, n)
		for i := range b {
			b[i] = rune(r.Intn(0x250) + 1) // include some multi-byte runes
		}
		return string(b)
	}
	d := math.Abs(r.NormFloat64() * 300)
	return alarm.Alarm{
		ID:              r.Int63(),
		DeviceMAC:       strs(),
		DeviceIP:        strs(),
		ZIP:             strs(),
		Timestamp:       time.UnixMilli(r.Int63n(4102444800000)).UTC(),
		Duration:        d,
		Type:            alarm.Type(r.Intn(alarm.NumTypes())),
		ObjectType:      alarm.ObjectType(r.Intn(alarm.NumObjectTypes())),
		SensorType:      strs(),
		SoftwareVersion: strs(),
		Payload:         strs(),
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		c := c
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			want := quickAlarm(r)
			b, err := c.Marshal(nil, &want)
			if err != nil {
				t.Logf("%s marshal: %v", c.Name(), err)
				return false
			}
			var got alarm.Alarm
			if err := c.Unmarshal(b, &got); err != nil {
				t.Logf("%s unmarshal: %v (wire %q)", c.Name(), err, b)
				return false
			}
			return reflect.DeepEqual(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestPropertyCrossDecode(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := quickAlarm(r)
		b, err := FastCodec{}.Marshal(nil, &want)
		if err != nil {
			return false
		}
		var got alarm.Alarm
		if err := (ReflectCodec{}).Unmarshal(b, &got); err != nil {
			t.Logf("reflect decode of fast output: %v (wire %q)", err, b)
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	a := sampleAlarm()
	for _, c := range codecs() {
		b.Run(c.Name(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = c.Marshal(buf[:0], &a)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	a := sampleAlarm()
	for _, c := range codecs() {
		buf, err := c.Marshal(nil, &a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			var out alarm.Alarm
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Unmarshal(buf, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
