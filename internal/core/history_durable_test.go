package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/docstore"
)

// alarmWireOnlyFields are alarm.Alarm fields the history intentionally
// does NOT persist: DeviceIP duplicates the MAC as device identity,
// and Payload is wire-size padding (§5.5.2) with no analytical value.
// Every other field must survive fillRow → store → rowAlarm exactly —
// the reflection walk below fails when a field is added to the struct
// without a decision here, which is how PR 4's silent
// sensorType/swVersion loss stays fixed.
var alarmWireOnlyFields = map[string]bool{"DeviceIP": true, "Payload": true}

func randomAlarm(rng *rand.Rand, id int64) alarm.Alarm {
	return alarm.Alarm{
		ID:              id,
		DeviceMAC:       fmt.Sprintf("%02x:%02x:%02x", rng.Intn(256), rng.Intn(256), rng.Intn(256)),
		DeviceIP:        fmt.Sprintf("10.0.%d.%d", rng.Intn(256), rng.Intn(256)),
		ZIP:             fmt.Sprintf("%04d", rng.Intn(10000)),
		Timestamp:       time.Unix(1700000000+rng.Int63n(1e7), 0).UTC(),
		Duration:        rng.Float64() * 900,
		Type:            alarm.Type(rng.Intn(alarm.NumTypes())),
		ObjectType:      alarm.ObjectType(rng.Intn(alarm.NumObjectTypes())),
		SensorType:      fmt.Sprintf("sensor-%d", rng.Intn(5)),
		SoftwareVersion: fmt.Sprintf("v%d.%d", rng.Intn(4), rng.Intn(10)),
		Payload:         "padding-not-persisted",
	}
}

// stored is what the history keeps of an alarm: the wire-only fields
// zeroed, everything else as recorded.
func stored(a alarm.Alarm) alarm.Alarm {
	for name := range alarmWireOnlyFields {
		reflect.ValueOf(&a).Elem().FieldByName(name).SetZero()
	}
	return a
}

// requireStored fails unless got holds exactly want's alarms, as
// stored, matched by id.
func requireStored(t *testing.T, got, want []alarm.Alarm) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read back %d alarms, want %d", len(got), len(want))
	}
	byID := make(map[int64]alarm.Alarm, len(got))
	for _, a := range got {
		byID[a.ID] = a
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			t.Fatalf("alarm %d missing", w.ID)
		}
		if !reflect.DeepEqual(g, stored(w)) {
			t.Fatalf("alarm changed in the store:\n got %+v\nwant %+v", g, stored(w))
		}
	}
}

// TestAlarmRowRoundTripAllFields is the persistence property test: for
// random alarms over the full value space, RecordBatch → RecentAlarms
// reproduces every persisted field at the store's whole-second
// timestamp resolution, and a reflection walk over alarm.Alarm pins
// the persisted-vs-wire-only split so a future schema addition cannot
// be dropped silently — it must either round-trip or be added to
// alarmWireOnlyFields deliberately.
func TestAlarmRowRoundTripAllFields(t *testing.T) {
	h, err := NewHistory(docstore.NewDBWithPartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := make([]alarm.Alarm, 500)
	for i := range want {
		want[i] = randomAlarm(rng, int64(i)<<40|rng.Int63n(1<<30))
	}
	h.RecordBatch(want)
	got, err := h.RecentAlarms(0)
	if err != nil {
		t.Fatal(err)
	}
	requireStored(t, got, want)
	// The reflection guard proper: any field that is neither declared
	// wire-only nor reproduced by the round trip is a silently-dropped
	// schema addition. (randomAlarm sets every field non-zero, so a
	// dropped one cannot pass by being zero on both sides.)
	byID := make(map[int64]alarm.Alarm, len(got))
	for _, a := range got {
		byID[a.ID] = a
	}
	rt := reflect.TypeOf(alarm.Alarm{})
	for _, a := range want[:50] {
		gv, av := reflect.ValueOf(byID[a.ID]), reflect.ValueOf(a)
		for i := 0; i < rt.NumField(); i++ {
			name := rt.Field(i).Name
			if alarmWireOnlyFields[name] {
				continue
			}
			if !reflect.DeepEqual(gv.Field(i).Interface(), av.Field(i).Interface()) {
				t.Fatalf("field %s dropped by persistence: got %v, want %v",
					name, gv.Field(i).Interface(), av.Field(i).Interface())
			}
		}
	}
}

// TestAlarmRoundTripThroughWALReplay extends the property through the
// durable store: alarms recorded into a WAL-backed history — some
// before a checkpoint, so they come back out of a snapshot, some
// after, so they come back out of the log — must read back identical
// after a close + reopen, so the row frames (exact int64 ids beyond
// float64 exactness, timestamps) cannot corrupt the retrain loop's
// train set. The alarms after the checkpoint are stored with verdicts,
// which must come back bit for bit. The thirteen fields must also
// still be typed columns: recovery must not have promoted any of them
// to the boxed fallback.
func TestAlarmRoundTripThroughWALReplay(t *testing.T) {
	dir := t.TempDir()
	opts := docstore.DurableOptions{Partitions: 2, SyncInterval: -1, CheckpointInterval: -1}
	db, err := docstore.OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var want []alarm.Alarm
	for i := 0; i < 128; i++ {
		want = append(want, randomAlarm(rng, (int64(1)<<55)+int64(i))) // ids beyond float64 exactness
	}
	h.RecordBatch(want[:64])
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verdicts := make([]alarm.Verification, 0, 64)
	for i := range want[64:] {
		a := &want[64+i]
		v := alarm.Verification{AlarmID: a.ID, Predicted: alarm.Label(i % 2), Probability: 1 / (1 + rng.Float64()),
			ModelName: "rf", ModelVersion: i / 32}
		h.Record(a, v)
		verdicts = append(verdicts, v)
	}
	requireTypedAlarmColumns(t, db)
	h.RecordFeedback(Feedback{AlarmID: want[0].ID, DeviceMAC: want[0].DeviceMAC, Verdict: alarm.True, At: time.Unix(1700000001, 0)})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := docstore.OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	h2, err := NewHistory(db2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.RecentAlarms(0)
	if err != nil {
		t.Fatal(err)
	}
	requireStored(t, got, want)
	requireTypedAlarmColumns(t, db2)
	_, vs := h2.Verdicts()
	if len(vs) != len(verdicts) {
		t.Fatalf("%d verdicts after WAL replay, want %d", len(vs), len(verdicts))
	}
	for i := range vs {
		if err := sameVerification(vs[i], verdicts[i]); err != nil {
			t.Fatalf("verdict %d corrupted by WAL replay: %v", i, err)
		}
	}
	fbs, err := h2.Feedbacks()
	if err != nil {
		t.Fatal(err)
	}
	if len(fbs) != 1 || fbs[0].AlarmID != want[0].ID || fbs[0].Verdict != alarm.True {
		t.Fatalf("feedback corrupted by WAL replay: %+v", fbs)
	}
}

// requireTypedAlarmColumns asserts the fallback is not taken on the
// alarms path: all nine stored fields sit in typed columns, none
// promoted to the boxed representation.
func requireTypedAlarmColumns(t *testing.T, db *docstore.DB) {
	t.Helper()
	kinds := map[string]string{"alarmId": "int64", "ts": "float64", "duration": "float64",
		"predicted": "int64", "probability": "float64", "modelVersion": "int64"}
	fields := db.Collection("alarms").Fields()
	if len(fields) != len(alarmFields) {
		t.Fatalf("alarms has %d fields, want the %d of alarmFields: %+v", len(fields), len(alarmFields), fields)
	}
	for _, f := range fields {
		want := kinds[f.Name]
		if want == "" {
			want = "string"
		}
		if f.Kind != want {
			t.Errorf("field %s: kind %s, want %s", f.Name, f.Kind, want)
		}
	}
}

// TestHistoryFlushCloseHammer races writers against Flush under -race:
// whatever the interleaving, every alarm recorded before its writer
// returned must be in the store once the writers finish, and Flush
// reports a healthy store throughout.
func TestHistoryFlushCloseHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		h, err := NewHistory(docstore.NewDBWithPartitions(2))
		if err != nil {
			t.Fatal(err)
		}
		const producers, per = 4, 50
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*producers + w)))
				for i := 0; i < per; i++ {
					a := randomAlarm(rng, int64(w*per+i))
					if i%2 == 0 {
						h.Record(&a, alarm.Verification{AlarmID: a.ID, Predicted: alarm.True, Probability: 0.75, ModelName: "m"})
					} else {
						h.RecordBatch([]alarm.Alarm{a})
					}
				}
			}(w)
		}
		flushErrs := make(chan error, 10)
		wg.Add(1)
		go func() { // Flush racing the writers
			defer wg.Done()
			for i := 0; i < 10; i++ {
				flushErrs <- h.Flush()
			}
		}()
		wg.Wait()
		close(flushErrs)
		for err := range flushErrs {
			if err != nil {
				t.Fatalf("round %d: Flush on a memory store: %v", round, err)
			}
		}
		if n := h.Len(); n != producers*per {
			t.Fatalf("round %d: %d alarms stored, want %d", round, n, producers*per)
		}
	}
}
