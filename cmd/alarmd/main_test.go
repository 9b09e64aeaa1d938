package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/serve"
)

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.rate != 5_000 || o.duration != 10*time.Second || o.partitions != 8 {
		t.Errorf("producer defaults wrong: %+v", o)
	}
	if o.shards != 2 {
		t.Errorf("service defaults wrong: shards=%d", o.shards)
	}
	if o.scenario != "constant" || o.skew != 0 {
		t.Errorf("workload defaults wrong: scenario=%q skew=%g", o.scenario, o.skew)
	}
	if o.shedQueue != 0 {
		t.Errorf("overload defaults wrong: shed-queue=%d", o.shedQueue)
	}
	if o.storePartitions != 0 {
		t.Errorf("store defaults wrong: store-partitions=%d", o.storePartitions)
	}
	if o.dataDir != "" || o.walSync != docstore.DefaultWALSyncInterval || o.retention != 0 {
		t.Errorf("durability defaults wrong: data-dir=%q wal-sync=%s retention=%s",
			o.dataDir, o.walSync, o.retention)
	}
	if o.trainN != 30_000 {
		t.Errorf("remaining defaults wrong: %+v", o)
	}
	if o.modelDir != "" || o.retrainInterval != 0 || o.retrainMinFB != 0 || o.listen != "" {
		t.Errorf("lifecycle defaults wrong: %+v", o)
	}
	if o.pprofListen != "" {
		t.Errorf("hot-path defaults wrong: pprof-listen=%q", o.pprofListen)
	}
}

func TestParseOptionsOverrides(t *testing.T) {
	o, err := parseOptions([]string{
		"-rate", "0",
		"-scenario", "flash",
		"-skew", "1.2",
		"-duration", "3s",
		"-partitions", "16",
		"-shards", "4",
		"-shed-queue", "4096",
		"-store-partitions", "8",
		"-data-dir", "/tmp/alarmd-data",
		"-wal-sync", "20ms",
		"-retention", "24h",
		"-train", "1000",
		"-model-dir", "/tmp/models",
		"-retrain-interval", "30s",
		"-retrain-min-feedback", "250",
		"-listen", ":8080",
		"-pprof-listen", ":6060",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.rate != 0 || o.duration != 3*time.Second || o.partitions != 16 {
		t.Errorf("producer overrides lost: %+v", o)
	}
	if o.shards != 4 {
		t.Errorf("service overrides lost: shards=%d", o.shards)
	}
	if o.scenario != "flash" || o.skew != 1.2 {
		t.Errorf("workload overrides lost: scenario=%q skew=%g", o.scenario, o.skew)
	}
	if o.shedQueue != 4096 {
		t.Errorf("overload overrides lost: shed-queue=%d", o.shedQueue)
	}
	if o.storePartitions != 8 {
		t.Errorf("store overrides lost: store-partitions=%d", o.storePartitions)
	}
	if o.dataDir != "/tmp/alarmd-data" || o.walSync != 20*time.Millisecond || o.retention != 24*time.Hour {
		t.Errorf("durability overrides lost: data-dir=%q wal-sync=%s retention=%s",
			o.dataDir, o.walSync, o.retention)
	}
	if o.trainN != 1000 {
		t.Errorf("remaining overrides lost: %+v", o)
	}
	if o.modelDir != "/tmp/models" || o.retrainInterval != 30*time.Second ||
		o.retrainMinFB != 250 || o.listen != ":8080" {
		t.Errorf("lifecycle overrides lost: %+v", o)
	}
	if o.pprofListen != ":6060" {
		t.Errorf("hot-path overrides lost: pprof-listen=%q", o.pprofListen)
	}
}

func TestParseOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"negative rate", []string{"-rate", "-1"}, "-rate"},
		{"unknown scenario", []string{"-scenario", "bogus"}, "-scenario"},
		{"sub-one skew", []string{"-skew", "0.5"}, "-skew"},
		{"negative skew", []string{"-skew", "-1.5"}, "-skew"},
		{"negative shed queue", []string{"-shed-queue", "-1"}, "-shed-queue"},
		{"zero duration", []string{"-duration", "0s"}, "-duration"},
		{"zero partitions", []string{"-partitions", "0"}, "-partitions"},
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"negative shards", []string{"-shards", "-3"}, "-shards"},
		// The stage-queue depth and the idle poll are constants: their
		// old flags are undefined.
		{"zero depth", []string{"-pipeline-depth", "0"}, "not defined: -pipeline-depth"},
		{"negative depth", []string{"-pipeline-depth", "-2"}, "not defined: -pipeline-depth"},
		{"negative store partitions", []string{"-store-partitions", "-1"}, "-store-partitions"},
		{"negative wal-sync", []string{"-data-dir", "/tmp/d", "-wal-sync", "-5ms"}, "-wal-sync"},
		{"negative retention", []string{"-data-dir", "/tmp/d", "-retention", "-1h"}, "-retention"},
		{"wal-sync without data-dir", []string{"-wal-sync", "5ms"}, "-data-dir"},
		{"retention without data-dir", []string{"-retention", "1h"}, "-data-dir"},
		{"zero interval", []string{"-interval", "0s"}, "not defined: -interval"},
		{"zero train", []string{"-train", "0"}, "-train"},
		{"negative retrain interval", []string{"-retrain-interval", "-5s"}, "-retrain-interval"},
		{"negative retrain feedback", []string{"-retrain-min-feedback", "-1"}, "-retrain-min-feedback"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"malformed int", []string{"-shards", "two"}, "shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestServiceConfigBoundsDrains pins the service alarmd runs: the
// serving defaults (serve.DefaultConfig, whose shards drain at most 512
// records a micro-batch, so a backlog after a stall splits into bounded
// batches) with only the shard count, shed bound, member prefix and
// metrics changed.
func TestServiceConfigBoundsDrains(t *testing.T) {
	o, err := parseOptions([]string{"-shards", "3", "-shed-queue", "900"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewPipeline()
	cfg := o.config(m, "host-1")
	if cfg.Shards != 3 || cfg.ShedQueue != 900 || cfg.MemberPrefix != "host-1" || cfg.Consumer.Metrics != m {
		t.Errorf("alarmd's options lost: %+v", cfg)
	}
	want := serve.DefaultConfig()
	want.Shards, want.ShedQueue, want.MemberPrefix, want.Consumer.Metrics = 3, 900, "host-1", m
	if cfg != want {
		t.Errorf("config %+v, want serve.DefaultConfig with alarmd's options %+v", cfg, want)
	}
	if cfg.Consumer.MaxPerBatch != 512 {
		t.Errorf("MaxPerBatch = %d, want 512", cfg.Consumer.MaxPerBatch)
	}
}

// TestOperatorQueueReadsStoredRows: the shutdown queue lists what the
// store holds. Its alarms' ids lie far past any replay slice — as a
// stream that cycled its pool numbers them, or a -produce=false shard's
// do — and each queued alarm still shows its stored type, ZIP and
// probability, most likely true first. Alarms stored unverified (the
// boot train set) or predicted false are not queued.
func TestOperatorQueueReadsStoredRows(t *testing.T) {
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	stored := func(i int) alarm.Alarm {
		return alarm.Alarm{ID: 5_000_000 + int64(i), DeviceMAC: fmt.Sprintf("dev-%d", i%7), ZIP: fmt.Sprintf("80%02d", i),
			Timestamp: base.Add(time.Duration(i) * time.Minute), Type: alarm.Type(i % 3)}
	}
	seed := []alarm.Alarm{stored(100), stored(101)}
	seed[0].ID, seed[1].ID = 1, 2
	h.RecordBatch(seed)
	for i := 0; i < 6; i++ {
		a := stored(i)
		h.Record(&a, alarm.Verification{AlarmID: a.ID, Predicted: alarm.Label(i % 2),
			Probability: 0.5 + float64(i)/20, ModelName: "random-forest"})
	}

	q := operatorQueue(h)
	if q.Len() != 3 {
		t.Fatalf("queue holds %d alarms, want the 3 predicted true", q.Len())
	}
	for _, i := range []int{5, 3, 1} {
		item, ok := q.Pop()
		if !ok {
			t.Fatalf("queue ran dry before alarm %d", i)
		}
		want := stored(i)
		if got := item.Alarm; got.ID != want.ID || got.Type != want.Type || got.ZIP != want.ZIP {
			t.Errorf("queued alarm %d: %+v, want the stored %+v", i, got, want)
		}
		if p := 0.5 + float64(i)/20; item.Verification.Probability != p || item.Verification.Predicted != alarm.True {
			t.Errorf("queued alarm %d: verdict %+v, want true at P=%v", i, item.Verification, p)
		}
	}
}

// TestRestartIssuesNoStoredIDs: a daemon restarted on its data
// directory replays alarms under ids after the highest one the
// recovered store holds, so every stored alarm id is distinct.
func TestRestartIssuesNoStoredIDs(t *testing.T) {
	dir := t.TempDir()
	o, err := parseOptions([]string{"-rate", "0", "-duration", "2s", "-train", "3000", "-data-dir", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := run(o); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
	}
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h, err := core.NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := h.RecentAlarms(0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int64]struct{}, len(stored))
	for _, a := range stored {
		ids[a.ID] = struct{}{}
	}
	if len(ids) != h.Len() {
		t.Fatalf("%d distinct alarm ids among %d stored alarms after a restart", len(ids), h.Len())
	}
}
