package netbroker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// wireMsg is what every binary message does.
type wireMsg interface {
	appendTo(dst []byte) []byte
	decode(b []byte) error
}

// wireKinds makes a fresh message of each binary kind, in the order the
// fuzz target numbers them.
var wireKinds = []func() wireMsg{
	func() wireMsg { return new(appendReq) },
	func() wireMsg { return new(appendResp) },
	func() wireMsg { return new(fetchReq) },
	func() wireMsg { return new(fetchResp) },
	func() wireMsg { return new(commitReq) },
	func() wireMsg { return new(commitResp) },
	func() wireMsg { return new(fetchLogReq) },
	func() wireMsg { return new(replFetchReq) },
	func() wireMsg { return new(replFetchResp) },
	func() wireMsg { return new(heartbeatReq) },
	func() wireMsg { return new(heartbeatResp) },
	func() wireMsg { return new(hwReq) },
	func() wireMsg { return new(hwResp) },
}

func wireRec(topic string, p int, off, epoch int64, key, value string) broker.Record {
	r := broker.Record{Topic: topic, Partition: p, Offset: off, Epoch: epoch, Timestamp: time.Unix(0, 1_700_000_000_000_000_000+off)}
	if key != "" {
		r.Key = []byte(key)
	}
	if value != "" {
		r.Value = []byte(value)
	}
	return r
}

// wireSamples is one realistic message per kind (index = kind), written
// in the form a decoder produces: empty keys nil, times from time.Unix.
func wireSamples() []wireMsg {
	return []wireMsg{
		&appendReq{Partition: 3, ProducerID: 1 << 40, BaseSeq: 7, Topic: "alarms",
			Recs: []broker.Record{wireRec("", 0, 0, 0, "dev-1", `{"a":1}`), wireRec("", 0, 0, 0, "", "x")}},
		&appendResp{wireErr: wireErr{Err: "netbroker: not the leader (node 1, leader 0)", Kind: kindNotLeader}, Base: 41},
		&fetchReq{WaitMicros: 500, Max: 512, Topic: "alarms", Parts: []partOffset{{P: 0, Off: 5}, {P: 2, Off: 0}}},
		&fetchResp{Recs: []broker.Record{wireRec("", 0, 5, 1, "k", "v"), wireRec("", 0, 6, 1, "k", "w"), wireRec("", 2, 0, 2, "", "z")}},
		&commitReq{Gen: 2, Group: "verify", Member: "m1", Offsets: []partOffset{{P: 0, Off: 7}, {P: 2, Off: 1}}},
		&commitResp{wireErr: wireErr{Err: "stale", Kind: kindStale}},
		&fetchLogReq{Partition: 1, Offset: 9, Max: 1, Topic: "alarms"},
		&replFetchReq{NodeID: 2, Epoch: 3, Topics: []topicTails{
			{Name: "alarms", Sizes: []int64{7, 0, 1}, Tails: []int64{3, 0, 2}},
			{Name: "audit", Sizes: []int64{0}, Tails: []int64{0}}}},
		&replFetchResp{Epoch: 3, Leader: 0,
			Topics: []topicCommits{{Name: "alarms", Commits: []int64{7, 0, 1}, Starts: []int64{5, 0, 1}, StartEpochs: []int64{2, 0, 3}},
				{Name: "audit", Commits: []int64{0}, Starts: []int64{0}, StartEpochs: []int64{0}}},
			Recs:   []broker.Record{wireRec("alarms", 0, 7, 3, "k", "v"), wireRec("alarms", 2, 1, 3, "", "w"), wireRec("audit", 0, 0, 3, "k", "")},
			Truncs: []truncAt{{Topic: "alarms", P: 1, Size: 4}},
			Groups: []broker.GroupOffset{{Group: "verify", Topic: "alarms", Partition: 0, Offset: 6}, {Group: "verify", Topic: "alarms", Partition: 2, Offset: 1}}},
		&heartbeatReq{Gen: 4, Group: "verify", Member: "host-12-shard-0"},
		&heartbeatResp{Gen: 5},
		&hwReq{Parts: []int{0, 3, 5}, Topic: "alarms"},
		&hwResp{HWs: []int64{120, 0, 7}},
	}
}

// oldJSONBodies are bodies as the JSON wire format before this one wrote
// them, one per binary message plus an error envelope.
var oldJSONBodies = []string{
	`{"topic":"alarms","partition":3,"pid":1099511627776,"seq":7,"recs":[{"p":3,"off":0,"k":"ZGV2LTE=","v":"eyJhIjoxfQ==","ts":1700000000000000000}]}`,
	`{"topic":"alarms","partition":3,"pid":1099511627776,"seq":7,"recs":[{"p":3,"off":0,"k":"ZGV2LTE=","v":"` + strings.Repeat("QUJD", 200) + `","ts":1700000000000000000}]}`,
	`{"base":41}`,
	`{"err":"netbroker: not the leader (node 1, leader 0)","kind":"not_leader","base":0}`,
	`{"topic":"alarms","parts":[{"p":0,"off":5},{"p":1,"off":0},{"p":2,"off":0},{"p":3,"off":9},{"p":4,"off":0},{"p":5,"off":0},{"p":6,"off":0},{"p":7,"off":0}],"max":512,"waitMs":100}`,
	`{"recs":[{"p":0,"off":5,"k":"aw==","v":"dg==","ts":1700000000000000005,"e":1}]}`,
	`{"group":"verify","member":"m1","gen":2,"offsets":{"0":7,"2":1}}`,
	`{}`,
	`{"topic":"alarms","partition":1,"off":9,"max":1}`,
	`{"node":2,"epoch":3,"sizes":{"alarms":[7,0,1]},"tails":{"alarms":[3,0,2]}}`,
	`{"epoch":3,"leader":0,"partitions":{"alarms":3},"recs":{"alarms":{"0":[{"p":0,"off":7,"v":"dg==","ts":1,"e":3}]}},"commits":{"alarms":[7,0,1]},"groups":{"verify":{"topic":"alarms","offsets":{"0":6}}}}`,
	`{"group":"verify","member":"host-12-shard-0"}`,
	`{"gen":5}`,
	`{"topic":"alarms","parts":[0,1,2,3,4,5,6,7]}`,
	`{"hws":[120,0,7,3,0,0,9,1]}`,
}

func TestWireRoundTrip(t *testing.T) {
	for kind, want := range wireSamples() {
		body := want.appendTo(nil)
		got := wireKinds[kind]()
		if err := got.decode(body); err != nil {
			t.Fatalf("%T: decode: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", want, got, want)
		}
		// A second decode into the same message reuses it and must not
		// leave anything of the first behind.
		if err := got.decode(body); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%T decoded twice: %v, %+v", want, err, got)
		}
		for cut := 0; cut < len(body); cut++ {
			if err := wireKinds[kind]().decode(body[:cut]); !errors.Is(err, errMalformed) {
				t.Fatalf("%T cut to %d of %d bytes: %v", want, cut, len(body), err)
			}
		}
		if err := wireKinds[kind]().decode(append(body, 0)); !errors.Is(err, errMalformed) {
			t.Errorf("%T with a trailing byte: %v", want, err)
		}
	}
}

// TestWireRecordLenIsExact: the byte budget counts what the encoder
// writes.
func TestWireRecordLenIsExact(t *testing.T) {
	for _, r := range []broker.Record{
		{},
		wireRec("alarms", 1, 2, 3, "key", strings.Repeat("v", 300)),
		{Timestamp: time.Unix(0, -1), Epoch: 1 << 40, Value: make([]byte, 1<<14)},
	} {
		if got, want := recordLen(&r), len(appendRecord(nil, &r)); got != want {
			t.Errorf("recordLen = %d, encoded %d bytes", got, want)
		}
	}
}

// TestWireHostileCounts: a count the body cannot hold is refused before
// anything is sized from it.
func TestWireHostileCounts(t *testing.T) {
	huge := func(prefix ...byte) []byte {
		b := binary.AppendUvarint(prefix, 1<<32)
		return append(b, make([]byte, 40-len(b))...)
	}
	bodies := []struct {
		kind int
		body []byte
	}{
		{0, huge(0, 2, 0, 0)},          // appendReq: 2³² records
		{2, huge(0, 2, 0)},             // fetchReq: 2³² cursors
		{3, huge(0)},                   // fetchResp: a run of 2³² records
		{4, huge(0, 0, 0)},             // commitReq: 2³² offsets
		{7, huge(0, 0)},                // replFetchReq: 2³² topics
		{7, huge(0, 0, 1, 0)},          // replFetchReq: one topic of 2³² partitions
		{8, huge(0, 0, 0)},             // replFetchResp: 2³² topics
		{8, huge(0, 0, 0, 1, 0)},       // replFetchResp: one topic of 2³² commit indexes
		{8, huge(0, 0, 0, 0)},          // replFetchResp: 2³² truncations
		{8, huge(0, 0, 0, 0, 0)},       // replFetchResp: 2³² group offsets
		{0, huge(0, 2, 0, 0, 1, 0, 0)}, // appendReq: one record with a 2³²-byte key
		{9, huge(0, 0)},                // heartbeatReq: a 2³²-byte member name
		{11, huge()},                   // hwReq: 2³¹ partitions (the count is zig-zag)
		{12, huge(0)},                  // hwResp: 2³² high watermarks
	}
	for _, c := range bodies {
		m := wireKinds[c.kind]()
		if err := m.decode(c.body); !errors.Is(err, errMalformed) {
			t.Errorf("%T %v: %v", m, c.body[:8], err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = m.decode(c.body) }); allocs != 0 {
			t.Errorf("%T %v: %.0f allocations refusing it", m, c.body[:8], allocs)
		}
	}
}

// TestWireRefusesJSONBodies: a node that still speaks the JSON format
// is refused at the first field of whatever it sends, whichever message
// the opcode says it is.
func TestWireRefusesJSONBodies(t *testing.T) {
	for _, body := range oldJSONBodies {
		for _, fresh := range wireKinds {
			m := fresh()
			if err := m.decode([]byte(body)); !errors.Is(err, errMalformed) {
				t.Errorf("%T decoded %.40s…: %v", m, body, err)
			}
		}
	}
}

// elements counts the slice elements (byte strings as one) a decoded
// message holds.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
		return n
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return 0
		}
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	}
	return 0
}

// FuzzWireDecode: no body makes a decoder panic or hold more elements
// than the body has bytes, and whatever decodes survives a round trip.
func FuzzWireDecode(f *testing.F) {
	for kind, m := range wireSamples() {
		f.Add(uint8(kind), m.appendTo(nil))
	}
	for i, body := range oldJSONBodies {
		f.Add(uint8(i), []byte(body))
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		fresh := wireKinds[int(kind)%len(wireKinds)]
		m := fresh()
		if err := m.decode(body); err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("%T: %v", m, err)
			}
			return
		}
		if n := elements(reflect.ValueOf(m)); n > len(body) {
			t.Fatalf("%T: %d elements out of %d bytes", m, n, len(body))
		}
		again := fresh()
		enc := m.appendTo(nil)
		if err := again.decode(enc); err != nil {
			t.Fatalf("%T: re-decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", m, again, m)
		}
		if !bytes.Equal(again.appendTo(nil), enc) {
			t.Fatalf("%T: encoding is not stable", m)
		}
	})
}
