//go:build linux

package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
)

// breakWALs fails the store's logs underneath their writers: every
// descriptor this process holds on a *.wal file under dir is pointed
// at a read-only /dev/null, so the next append's write fails however
// privileged the test runs (a chmod does not stop root).
func breakWALs(t *testing.T, dir string) {
	t.Helper()
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to find the log descriptors through")
	}
	broken := 0
	for _, e := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(link, dir) || !strings.HasSuffix(link, ".wal") {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		broken++
	}
	if broken == 0 {
		t.Fatal("found no open WAL to break")
	}
}

// TestWALFailureStopsTheShard pins "committed ⇒ durable" under a disk
// error: once a WAL append has failed, the persist stage's Flush
// reports it, Persist errors, and the batch's offsets are never
// committed.
func TestWALFailureStopsTheShard(t *testing.T) {
	_, alarms := testAlarms(700)
	v := fastVerifier(t, alarms[:300])
	b := broker.New()
	defer b.Close()
	topic, _ := b.CreateTopic("alarms", 1)
	if _, err := NewProducerApp(topic, codec.FastCodec{}).Replay(alarms[300:], 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 2, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 100
	app, err := NewConsumerApp(b, "alarms", "g", "c1", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := app.ProcessBatches(1); err != nil || n != 100 {
		t.Fatalf("healthy batch: %d alarms, %v", n, err)
	}
	committed, _ := b.GroupCommitted("g")
	if committed[0] != 100 {
		t.Fatalf("healthy batch committed offset %d, want 100", committed[0])
	}

	breakWALs(t, dir)
	if _, err := app.ProcessBatches(1); err == nil {
		t.Fatal("persist succeeded over a failed WAL")
	}
	if err := h.Flush(); err == nil {
		t.Fatal("Flush stopped reporting the sticky error")
	}
	committed, _ = b.GroupCommitted("g")
	if committed[0] != 100 {
		t.Fatalf("offset %d committed for alarms that exist only in memory", committed[0])
	}
	app.Close()
	if err := db.Close(); err == nil {
		t.Fatal("Close did not surface the WAL failure")
	}
}

// TestHealthzReportsWALFailure: /healthz answers ok while the store's
// log takes writes and 503 with the error from the first failed append
// on — it reads the sticky error, so it answers even though the shards
// have halted. (Here rather than in httpapi_test.go:
// the fault needs breakWALs, which needs linux.)
func TestHealthzReportsWALFailure(t *testing.T) {
	_, alarms := testAlarms(400)
	dir := t.TempDir()
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 2, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPService(fastVerifier(t, alarms[:300]), h, DefaultCustomerPolicy()).Handler())
	defer srv.Close()
	healthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	h.RecordBatch(alarms[300:350])
	if code, body := healthz(); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthy store: /healthz = %d %q", code, body)
	}
	breakWALs(t, dir)
	h.RecordBatch(alarms[350:])
	if err := h.Flush(); err == nil {
		t.Fatal("the broken log took a write")
	}
	code, body := healthz()
	if code != http.StatusServiceUnavailable || body != h.Flush().Error() {
		t.Fatalf("failed log: /healthz = %d %q, want 503 %q", code, body, h.Flush())
	}
	db.Close()
}

// TestEdgeWritesReportWALFailure: /verify and /feedback store what they
// are sent, so once the store's log has failed they answer 503 with
// the error instead of acknowledging a write that exists in memory
// only and is gone at restart.
func TestEdgeWritesReportWALFailure(t *testing.T) {
	_, alarms := testAlarms(400)
	dir := t.TempDir()
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 2, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPService(fastVerifier(t, alarms[:300]), h, DefaultCustomerPolicy()).Handler())
	defer srv.Close()
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(out))
	}
	verify := func(a *alarm.Alarm) (int, string) {
		t.Helper()
		raw, err := codec.FastCodec{}.Marshal(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return post("/verify", raw)
	}
	feedback := func(a *alarm.Alarm) (int, string) {
		t.Helper()
		return post("/feedback", []byte(fmt.Sprintf(`{"alarmId":%d,"deviceMac":%q,"verdict":"true"}`, a.ID, a.DeviceMAC)))
	}
	if code, body := verify(&alarms[300]); code != http.StatusOK {
		t.Fatalf("healthy store: /verify = %d %q", code, body)
	}
	if code, body := feedback(&alarms[300]); code != http.StatusAccepted {
		t.Fatalf("healthy store: /feedback = %d %q", code, body)
	}
	breakWALs(t, dir)
	code, body := verify(&alarms[301])
	if code != http.StatusServiceUnavailable || h.Flush() == nil || body != h.Flush().Error() {
		t.Fatalf("failed log: /verify = %d %q, want 503 %v", code, body, h.Flush())
	}
	if code, body := feedback(&alarms[301]); code != http.StatusServiceUnavailable || body != h.Flush().Error() {
		t.Fatalf("failed log: /feedback = %d %q, want 503 %q", code, body, h.Flush())
	}
}
