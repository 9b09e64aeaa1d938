//go:build ignore

// Command genformat writes a durable data directory format_test.go
// replays: what core.History writes in production, on two partitions —
//
//   - an "alarms" collection, shard key deviceMac, indexed on it: 8
//     alarms stored unverified in one batch (a boot train set's seed),
//     then 8 stored one at a time, each with its verdict
//     (formatVerdict), then a checkpoint snapshot;
//   - a "feedback" collection of int verdicts: three before the
//     checkpoint, two after;
//   - after the checkpoint, in the logs: 8 more alarms with their
//     verdicts, and one retention delete frame (ts below formatBase +
//     3 000 s, which removes alarms 1–5).
//
// Every value follows from the alarm's index (formatAlarm), so the test
// knows what each read must return. Run it from the module root, at the
// revision whose on-disk format is to be pinned:
//
//	go run ./internal/docstore/testdata/genformat.go -out internal/docstore/testdata/format-verdicts
//
// testdata/format holds the generation before the store kept verdicts:
// the same 24 alarms, each stored unverified in batches of 8.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// formatBase is the first alarm's timestamp; alarm i is i × 600 s later.
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

// formatVerdict is the verdict stored with alarm i: probabilities that
// no short decimal spells, so a read that is not bit-exact shows.
func formatVerdict(i int) alarm.Verification {
	return alarm.Verification{
		AlarmID:      int64(i + 1),
		Predicted:    alarm.Label(i % 2),
		Probability:  0.5 + math.Sqrt(float64(i))/10,
		ModelName:    "random-forest",
		ModelVersion: 1 + i/16,
	}
}

func formatFeedback(i int) core.Feedback {
	return core.Feedback{
		AlarmID:   int64(i + 1),
		DeviceMAC: fmt.Sprintf("mac-%d", i%4),
		Verdict:   alarm.Label(i % 2),
		At:        formatBase.Add(time.Duration(i) * time.Hour),
	}
}

func main() {
	out := flag.String("out", "internal/docstore/testdata/format-verdicts", "data directory to write (must not exist)")
	flag.Parse()
	if _, err := os.Stat(*out); err == nil {
		log.Fatalf("%s exists", *out)
	}
	db, err := docstore.OpenDB(*out, docstore.DurableOptions{Partitions: 2, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		log.Fatal(err)
	}
	h, err := core.NewHistory(db)
	if err != nil {
		log.Fatal(err)
	}
	verified := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := formatAlarm(i)
			h.Record(&a, formatVerdict(i))
		}
	}
	seed := make([]alarm.Alarm, 0, 8)
	for i := 0; i < 8; i++ {
		seed = append(seed, formatAlarm(i))
	}
	h.RecordBatch(seed)
	verified(8, 16)
	for i := 0; i < 3; i++ {
		h.RecordFeedback(formatFeedback(i))
	}
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	verified(16, 24)
	for i := 3; i < 5; i++ {
		h.RecordFeedback(formatFeedback(i))
	}
	// One retention delete frame with a fixed clock, then no window, so
	// reopening never prunes against the wall clock.
	h.SetRetention(time.Hour)
	n, err := db.Collection("alarms").PruneExpired(formatBase.Add(3000*time.Second + time.Hour))
	if err != nil || n != 5 {
		log.Fatalf("prune: %d, %v", n, err)
	}
	h.SetRetention(0)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	if err := os.Remove(filepath.Join(*out, "LOCK")); err != nil {
		log.Fatal(err)
	}
}
