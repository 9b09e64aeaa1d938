package netbroker

import (
	"sync"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/metrics"
)

// budgetClient boots a standalone node with an eight-partition topic
// and a client whose heartbeats stay out of the measurements: the
// server's 20-minute session paces them at one a minute.
func budgetClient(t testing.TB) (*Server, *Client) {
	t.Helper()
	b := broker.New()
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.EnsureTopic(8); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// dropConns closes every connection s has accepted, as a peer or a
// network fault would.
func dropConns(s *Server) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// TestPeerReconnectCounted: a follower whose connection to its leader
// drops dials it again on the next pull, and its replication metrics
// count that reconnect against the leader's node id — what brokerd's
// /metrics serves as alarmverify_broker_peer_reconnects_total.
func TestPeerReconnectCounted(t *testing.T) {
	pp := newPullPair(t, 2*time.Millisecond)
	repl := metrics.NewReplication()
	pp.follower.opts.Repl = repl
	pp.topic(t, "alarms", 2)
	pull := func() error {
		_, err := pp.follower.pullFrom(0)
		return err
	}
	if err := pull(); err != nil {
		t.Fatal(err)
	}
	if n := repl.PeerReconnects()[0]; n != 0 {
		t.Fatalf("%d reconnects counted for the first dial", n)
	}
	dropConns(pp.leader)
	if err := pull(); err == nil {
		t.Fatal("a pull over the dropped connection succeeded")
	}
	if err := pull(); err != nil {
		t.Fatalf("pull after the drop: %v", err)
	}
	if n := repl.PeerReconnects()[0]; n != 1 {
		t.Fatalf("%d reconnects to node 0 after one drop, want 1", n)
	}
}

// TestClientCountsRetriesAndReconnects: a send whose connection dropped
// pauses once, dials the leader again and goes through, and the client
// counts both.
func TestClientCountsRetriesAndReconnects(t *testing.T) {
	srv, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	send := func() {
		if _, _, err := p.SendAt([]byte("k"), []byte("v"), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if ws := c.WireStats(); ws.Retries != 0 || ws.Reconnects != 0 {
		t.Fatalf("before any drop: %d retries, %d reconnects", ws.Retries, ws.Reconnects)
	}
	dropConns(srv)
	send()
	if ws := c.WireStats(); ws.Retries != 1 || ws.Reconnects != 1 {
		t.Fatalf("after one drop: %d retries, %d reconnects, want 1 and 1", ws.Retries, ws.Reconnects)
	}
}

// TestLagFromSeveralGoroutines: a shard asks Lag once a batch while the
// service totals its shards' lag from another goroutine, and both go
// through the consumer's one set of Lag messages.
func TestLagFromSeveralGoroutines(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, _, err := p.SendAt([]byte{byte(i)}, []byte("v"), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if n, err := cons.Lag(); err != nil || n != 10 {
					t.Errorf("Lag = %d, %v; want 10", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// drainPair is a producer and a shard's consumer app on one client:
// the app drains at most 512 records a batch and has neither verifier
// nor history, so it runs Drain, Decode and ReleaseBatch only. send
// produces one encoded alarm.
func drainPair(t testing.TB, c *Client) (app *core.ConsumerApp, send func()) {
	t.Helper()
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	gc, parts, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConsumerConfig()
	cfg.MaxPerBatch = 512
	app = core.NewConsumerAppFor(gc, parts, nil, nil, cfg)
	t.Cleanup(app.Close)
	a := alarm.Alarm{ID: 1, DeviceMAC: "00:11:22:33:44:55", ZIP: "8001", Timestamp: time.Unix(1_700_000_000, 0)}
	value, err := codec.FastCodec{}.Marshal(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(a.DeviceMAC)
	return app, func() {
		if _, _, err := p.SendAt(key, value, a.Timestamp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneRecordDrainIsOneFetch: a shard that drains one record over the
// wire makes one fetch round trip. The fetch sweeps every assigned
// partition up to its ask, so the drain does not poll again for what
// arrived meanwhile — which cost a second, empty fetch a batch.
func TestOneRecordDrainIsOneFetch(t *testing.T) {
	_, c := budgetClient(t)
	app, send := drainPair(t, c)
	for i := 0; i < 20; i++ {
		send()
		before := c.WireStats()
		b := app.Drain()
		app.Decode(b)
		after := c.WireStats()
		if b.Len() != 1 {
			t.Fatalf("drain %d decoded %d alarms, want 1", i, b.Len())
		}
		app.ReleaseBatch(b)
		if n, empty := after.Fetches-before.Fetches, after.EmptyFetches-before.EmptyFetches; n != 1 || empty != 0 {
			t.Fatalf("drain %d of one record: %d fetches, %d of them empty; want 1 and 0", i, n, empty)
		}
	}
}

// BenchmarkWire times the round trips a remote shard repeats, both ends
// in this process: an RF 1 SendAt, a consumer heartbeat, and one record
// sent and drained (SendAt, then Drain to ReleaseBatch: what a batch of
// an idle shard costs on the wire). Run with -benchmem -cpu 1 (make
// bench-wire).
func BenchmarkWire(b *testing.B) {
	b.Run("send", func(b *testing.B) {
		_, c := budgetClient(b)
		p, err := c.NewProducer()
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		key, value, ts := []byte("00:11:22:33:44:55"), make([]byte, 300), time.Unix(1_700_000_000, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.SendAt(key, value, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heartbeat", func(b *testing.B) {
		_, c := budgetClient(b)
		gc, _, err := c.NewGroupConsumer("verify", "m1")
		if err != nil {
			b.Fatal(err)
		}
		defer gc.Close()
		cons := gc.(*Consumer)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cons.heartbeat(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("drain", func(b *testing.B) {
		_, c := budgetClient(b)
		app, send := drainPair(b, c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
			app.ReleaseBatch(app.Drain())
		}
	})
}
