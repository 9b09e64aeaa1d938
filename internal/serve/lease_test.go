package serve

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/netbroker"
)

// TestLeasedPayloadNeverRetained: a decoded alarm's Payload is a view of
// its leased record, so every copy of an alarm that outlives its batch —
// the stored rows, the verdicts — must be free of it. The sharded service drains payload-carrying alarms over the
// in-process broker and over the wire with both poison modes armed
// (released lease copies and released batches are overwritten with
// 0xDB), and afterwards nothing it kept reads differently from what was
// produced: the stored rows are the alarms, the verdicts are the
// verifier's own, and no retained string holds a poison byte.
func TestLeasedPayloadNeverRetained(t *testing.T) {
	v, stream := testSetup(t)
	alarms := append([]alarm.Alarm(nil), stream[:1500]...)
	for i := range alarms {
		alarms[i].Payload = fmt.Sprintf("zone=%d;%s", i, strings.Repeat("pad", 40))
		if i%7 == 0 {
			alarms[i].Payload += "\n\"escaped\"\t\\" // decoded into bytes of its own
		}
	}
	want := make([]alarm.Verification, len(alarms))
	if err := v.VerifyBatchInto(alarms, want); err != nil {
		t.Fatal(err)
	}

	broker.SetLeaseCheck(true)
	defer broker.SetLeaseCheck(false)
	core.SetBatchCheck(true)
	defer core.SetBatchCheck(false)

	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			b := loadedBroker(t, alarms, 4)
			defer b.Close()
			var cluster Cluster = LocalCluster{Broker: b, Topic: "alarms"}
			if wire {
				srv, err := netbroker.NewServer(b, "127.0.0.1:0", netbroker.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				client, err := netbroker.Dial([]string{srv.Addr()}, "alarms", netbroker.ClientOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				cluster = client
			}
			h, err := core.NewHistory(docstore.NewDB())
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(2)
			cfg.Consumer.MaxPerBatch = 64
			svc, err := NewWith(cluster, "g", v, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			svc.Start()
			waitFor(t, 30*time.Second, "all alarms verified", func() bool {
				return svc.Records() >= len(alarms) || svc.Err() != nil
			})
			svc.Stop()
			if err := svc.Err(); err != nil {
				t.Fatal(err)
			}

			clean := func(what, s string) {
				t.Helper()
				if strings.IndexByte(s, 0xDB) >= 0 { // the lease poison byte; the batch poison string holds it too
					t.Fatalf("%s holds poison: %q", what, s)
				}
			}
			got := svc.Verified()
			sort.Slice(got, func(i, j int) bool { return got[i].AlarmID < got[j].AlarmID })
			if len(got) != len(want) {
				t.Fatalf("%d verdicts, want %d", len(got), len(want))
			}
			for i := range got {
				clean("verdict model name", got[i].ModelName)
				if got[i].AlarmID != want[i].AlarmID || got[i].Predicted != want[i].Predicted ||
					got[i].Probability != want[i].Probability || got[i].ModelName != want[i].ModelName {
					t.Fatalf("verdict %d = %+v, the verifier says %+v", i, got[i], want[i])
				}
			}
			stored, err := h.RecentAlarms(0)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(stored, func(i, j int) bool { return stored[i].ID < stored[j].ID })
			if len(stored) != len(alarms) {
				t.Fatalf("%d stored rows, want %d", len(stored), len(alarms))
			}
			for i := range stored {
				a, s := alarms[i], stored[i]
				for _, f := range []string{s.DeviceMAC, s.ZIP, s.SensorType, s.SoftwareVersion, s.Payload} {
					clean("stored row", f)
				}
				// The store keeps whole seconds and neither the payload
				// nor the device IP.
				a.Timestamp, a.Payload, a.DeviceIP = a.Timestamp.Truncate(time.Second), "", ""
				if s != a {
					t.Fatalf("stored row %d = %+v, produced %+v", i, s, a)
				}
			}
			top, err := h.TopDevices(5)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range top {
				clean("top device", d.Mac)
			}
		})
	}
}

// TestLeaseOccupancyOnMetrics: each shard's consumer publishes its lease
// free list through the pipeline metrics the HTTP edge serves — leases
// lent and free, and the bytes of receive buffer under them. While
// batches are in flight some are out; once the service has stopped every
// batch was released, so active reads 0, and over the wire the free
// leases hold the buffers the fetches were read into.
func TestLeaseOccupancyOnMetrics(t *testing.T) {
	v, stream := testSetup(t)
	alarms := stream[:1500]
	b := loadedBroker(t, alarms, 4)
	defer b.Close()
	srv, err := netbroker.NewServer(b, "127.0.0.1:0", netbroker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := netbroker.Dial([]string{srv.Addr()}, "alarms", netbroker.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Consumer.MaxPerBatch = 64
	cfg.Consumer.Metrics = metrics.NewPipeline()
	svc, err := NewWith(client, "g", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	waitFor(t, 30*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(alarms) || svc.Err() != nil
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}

	api := core.NewHTTPService(v, h, core.DefaultCustomerPolicy())
	api.AttachPipeline(cfg.Consumer.Metrics)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for i, sh := range svc.Stats().Shards {
		st := sh.Leases
		t.Logf("%s: %d batches drained through %d leases holding %d B", sh.ID, sh.Batches, st.Free, st.Bytes)
		if st.Active != 0 || st.Free == 0 || st.Bytes == 0 {
			t.Fatalf("%s after Stop: %+v, want nothing lent and free leases holding receive buffers", sh.ID, st)
		}
		// Lent at once: a batch per pipeline queue slot and stage, a poll
		// or two each — not one per batch the shard ever drained.
		if st.Free > 32 || int(st.Free) >= sh.Batches {
			t.Fatalf("%s drained %d batches and keeps %d leases", sh.ID, sh.Batches, st.Free)
		}
		for _, line := range []string{
			fmt.Sprintf(`alarmverify_consumer_leases{shard="shard-%d",state="active"} 0`, i),
			fmt.Sprintf(`alarmverify_consumer_leases{shard="shard-%d",state="free"} %d`, i, st.Free),
			fmt.Sprintf(`alarmverify_consumer_lease_bytes{shard="shard-%d"} %d`, i, st.Bytes),
		} {
			if !strings.Contains(body, line+"\n") {
				t.Fatalf("/metrics lacks %q:\n%s", line, body)
			}
		}
	}
}
