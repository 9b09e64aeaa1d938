package docstore_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// The data directories under testdata were written by
// testdata/genformat.go through core.History: format at the revision
// before the store dropped boxed cells, every alarm stored unverified;
// format-verdicts once the store kept verdicts, alarms 1–8 stored
// unverified and 9–24 each with its verdict. These are the values they
// wrote.

var formatBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func formatAlarm(i int) alarm.Alarm {
	return alarm.Alarm{
		ID:              int64(i + 1),
		DeviceMAC:       fmt.Sprintf("mac-%d", i%4),
		ZIP:             fmt.Sprintf("80%02d", i%3),
		Timestamp:       formatBase.Add(time.Duration(i) * 600 * time.Second),
		Duration:        float64(30 * (i + 1)),
		Type:            alarm.Type(i % 3),
		ObjectType:      alarm.ObjectType(i % 2),
		SensorType:      fmt.Sprintf("sensor-%d", i%2),
		SoftwareVersion: "1.0",
	}
}

// formatVerdict is the verdict format-verdicts stored with alarm i.
func formatVerdict(i int) alarm.Verification {
	return alarm.Verification{
		AlarmID:      int64(i + 1),
		Predicted:    alarm.Label(i % 2),
		Probability:  0.5 + math.Sqrt(float64(i))/10,
		ModelName:    "random-forest",
		ModelVersion: 1 + i/16,
	}
}

// openFormatCopy opens a copy of the pinned data directory testdata/pin.
func openFormatCopy(t *testing.T, pin string) *docstore.DB {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", pin)
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("open the pinned data directory: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestPinnedFormatReplays: a data directory an older build wrote — a
// checkpoint snapshot, later row frames and a retention delete frame —
// opens, and every read the pipeline makes returns what was written:
// both generations, the one whose rows carry no verdict and the one
// whose verified rows do.
func TestPinnedFormatReplays(t *testing.T) {
	for _, pin := range []string{"format", "format-verdicts"} {
		t.Run(pin, func(t *testing.T) { replayPinnedFormat(t, pin, pin == "format-verdicts") })
	}
}

func replayPinnedFormat(t *testing.T, pin string, verdicts bool) {
	db := openFormatCopy(t, pin)
	col, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Indexes(); !reflect.DeepEqual(got, []string{"deviceMac"}) {
		t.Errorf("indexes %v, want [deviceMac]", got)
	}

	// The retention frame removed alarms 1–5; 6–24 remain, in id order.
	rows := col.NewRows("alarmId", "deviceMac", "zip", "ts", "duration", "alarmType", "objectType", "sensorType", "swVersion")
	col.TailRows(0, rows)
	if rows.Len() != 19 {
		t.Fatalf("TailRows: %d rows, want 19", rows.Len())
	}
	for r := 0; r < rows.Len(); r++ {
		a := formatAlarm(r + 5)
		want := []docstore.Cell{docstore.Int64(a.ID), docstore.String(a.DeviceMAC), docstore.String(a.ZIP),
			docstore.Float(float64(a.Timestamp.Unix())), docstore.Float(a.Duration), docstore.String(a.Type.String()),
			docstore.String(a.ObjectType.String()), docstore.String(a.SensorType), docstore.String(a.SoftwareVersion)}
		if got := rows.Row(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("TailRows row %d: %v, want %v", r, got, want)
		}
	}

	groups, err := col.GroupCounts("deviceMac", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := []docstore.GroupCount{
		{Key: docstore.String("mac-1"), Count: 5}, {Key: docstore.String("mac-2"), Count: 5},
		{Key: docstore.String("mac-3"), Count: 5}, {Key: docstore.String("mac-0"), Count: 4},
	}
	if !reflect.DeepEqual(groups, wantGroups) {
		t.Errorf("GroupCounts: %v, want %v", groups, wantGroups)
	}

	// mac-1 holds alarms 6, 10, 14, 18 and 22: at 3 000, 5 400, 7 800,
	// 10 200 and 12 600 s.
	origin := float64(formatBase.Unix())
	var bars []docstore.BucketCount
	err = col.BucketCounts([][]docstore.Cond{{
		{Field: "deviceMac", Op: "$eq", Value: docstore.String("mac-1")},
		{Field: "ts", Op: "$gte", Value: docstore.Float(origin)},
	}}, docstore.Bucket{Field: "ts", Origin: origin, Width: 3600}, func(_ int, b []docstore.BucketCount) {
		bars = append(bars, b...)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBars := []docstore.BucketCount{{Start: origin, Count: 1}, {Start: origin + 3600, Count: 1},
		{Start: origin + 7200, Count: 2}, {Start: origin + 10800, Count: 1}}
	if !reflect.DeepEqual(bars, wantBars) {
		t.Errorf("BucketCounts: %v, want %v", bars, wantBars)
	}

	fields, wantFields := col.Fields(), 9
	if verdicts {
		wantFields = 13
	}
	if len(fields) != wantFields {
		t.Errorf("%d fields, want %d: %v", len(fields), wantFields, fields)
	}
	for _, f := range fields {
		want := "string"
		switch f.Name {
		case "alarmId", "predicted", "modelVersion":
			want = "int64"
		case "ts", "duration", "probability":
			want = "float64"
		}
		if f.Kind != want {
			t.Errorf("field %s: kind %s, want %s", f.Name, f.Kind, want)
		}
	}

	h, err := core.NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	fbs, err := h.Feedbacks()
	if err != nil {
		t.Fatal(err)
	}
	var wantFbs []core.Feedback
	for i := 0; i < 5; i++ {
		wantFbs = append(wantFbs, core.Feedback{AlarmID: int64(i + 1), DeviceMAC: fmt.Sprintf("mac-%d", i%4),
			Verdict: alarm.Label(i % 2), At: formatBase.Add(time.Duration(i) * time.Hour)})
	}
	if !reflect.DeepEqual(fbs, wantFbs) {
		t.Errorf("Feedbacks: %v, want %v", fbs, wantFbs)
	}

	// An older generation's rows read back unverified; the verdicts
	// format-verdicts stored come back bit for bit, with their alarms.
	var wantVerified []int
	if verdicts {
		for i := 8; i < 24; i++ {
			wantVerified = append(wantVerified, i)
		}
	}
	checkVerdicts := func(when string) {
		t.Helper()
		alarms, vs := h.Verdicts()
		if len(alarms) != len(wantVerified) || len(vs) != len(wantVerified) {
			t.Fatalf("%s: %d verified alarms and %d verdicts, want %d", when, len(alarms), len(vs), len(wantVerified))
		}
		for k, i := range wantVerified {
			if a := formatAlarm(i); alarms[k] != a {
				t.Errorf("%s: verified alarm %d = %+v, want %+v", when, k, alarms[k], a)
			}
			w := formatVerdict(i)
			if vs[k] != w || math.Float64bits(vs[k].Probability) != math.Float64bits(w.Probability) {
				t.Errorf("%s: verdict %d = %+v, want %+v", when, k, vs[k], w)
			}
		}
	}
	checkVerdicts("replayed")

	// The replayed columns take the kinds the pipeline writes: the
	// history keeps appending to them, verdicts included.
	more := formatAlarm(24)
	h.Record(&more, formatVerdict(24))
	h.RecordFeedback(core.Feedback{AlarmID: 25, DeviceMAC: "mac-0", Verdict: alarm.True, At: formatBase})
	if col.Len() != 20 || h.FeedbackCount() != 6 {
		t.Errorf("after appends: %d alarms, %d verdicts, want 20 and 6", col.Len(), h.FeedbackCount())
	}
	wantVerified = append(wantVerified, 24)
	checkVerdicts("after an append")
	if err := db.Err(); err != nil {
		t.Fatal(err)
	}
}
