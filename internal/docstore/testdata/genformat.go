//go:build ignore

// Command genformat writes the durable data directory format_test.go
// replays: what core.History writes in production, on two partitions —
//
//   - an "alarms" collection, shard key deviceMac, indexed on it: 16
//     alarms recorded in two batches, then a checkpoint snapshot;
//   - a "feedback" collection of int verdicts: three before the
//     checkpoint, two after;
//   - after the checkpoint, in the logs: 8 more alarms, and one
//     retention delete frame (ts below formatBase + 3 000 s, which
//     removes alarms 1–5).
//
// Every value follows from the alarm's index (formatAlarm), so the test
// knows what each read must return. Run it from the module root, at the
// revision whose on-disk format is to be pinned:
//
//	go run ./internal/docstore/testdata/genformat.go -out internal/docstore/testdata/format
package main

import (
	"flag"
	"fmt"
	"log"
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

func formatFeedback(i int) core.Feedback {
	return core.Feedback{
		AlarmID:   int64(i + 1),
		DeviceMAC: fmt.Sprintf("mac-%d", i%4),
		Verdict:   alarm.Label(i % 2),
		At:        formatBase.Add(time.Duration(i) * time.Hour),
	}
}

func main() {
	out := flag.String("out", "internal/docstore/testdata/format", "data directory to write (must not exist)")
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
	batch := func(lo, hi int) {
		alarms := make([]alarm.Alarm, 0, hi-lo)
		for i := lo; i < hi; i++ {
			alarms = append(alarms, formatAlarm(i))
		}
		h.RecordBatch(alarms)
	}
	batch(0, 8)
	batch(8, 16)
	for i := 0; i < 3; i++ {
		h.RecordFeedback(formatFeedback(i))
	}
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	batch(16, 24)
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
