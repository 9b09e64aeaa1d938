//go:build !race

package serve

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/netbroker"
)

// TestWarmShardAllocBudget: once a shard set is warm, its batches
// allocate nothing of their own, even right after a GC. Two shards drain
// a fixed device population over the in-process broker and over a
// loopback RF 1 node until the store has passed its first chunk
// generations. Then each window runs runtime.GC twice — the first only
// moves a sync.Pool's objects to its victim cache, the second drops
// them, as production's GCs do — and produces and drains K one-alarm
// batches, each through Drain, Decode, Classify, Persist, the commit and
// ReleaseBatch. Mallocs counts the whole process, so a window's count is
// what the store and the broker's log grow by for those rows (a row's
// verdict is four of its columns), plus whatever another goroutine of the test binary
// allocates meanwhile: the least of several windows is held to the
// store's chunk generations for K rows and a small constant. It reads
// 0 on both brokers. While the batch path drew its batches and its
// classify, persist and commit scratch from sync.Pools, every window
// rebuilt them: the least window read 145 allocations in process and
// 157 over the wire.
func TestWarmShardAllocBudget(t *testing.T) {
	const (
		devices    = 200
		warmRows   = 12_000 // past every store partition's first 4 096-row chunk
		k          = 200    // batches a window
		windows    = 5
		partitions = 2 // the store's
		// chunkObjects is about what a store partition allocates when
		// its lanes start a chunk generation: a block per element type
		// and the device index's next page.
		chunkObjects = 4
		// slack covers a growth of the broker log's arena or record
		// list landing in the window.
		slack = 6
	)
	v, stream := testSetup(t)
	macs := make(map[string]bool)
	var population []alarm.Alarm
	for i := range stream {
		if a := stream[i]; len(macs) < devices || macs[a.DeviceMAC] {
			macs[a.DeviceMAC] = true
			population = append(population, a)
		}
	}
	total := warmRows + windows*k
	values := make([][]byte, total)
	keys := make([][]byte, total)
	for i := range values {
		a := population[i%len(population)]
		a.ID = int64(i + 1)
		var err error
		if values[i], err = (codec.FastCodec{}).Marshal(nil, &a); err != nil {
			t.Fatal(err)
		}
		keys[i] = []byte(a.DeviceMAC)
	}
	// The store's chunk generations for a window's K rows: each
	// partition starts at most one, since K < 4 096.
	budget := uint64(partitions*chunkObjects + slack)

	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			b := broker.New()
			defer b.Close()
			topic, err := b.CreateTopic("alarms", 4)
			if err != nil {
				t.Fatal(err)
			}
			var cluster Cluster = LocalCluster{Broker: b, Topic: "alarms"}
			var prod broker.RecordSender = broker.NewProducer(topic)
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
				p, err := client.NewProducer()
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				cluster, prod = client, p
			}
			h, err := core.NewHistory(docstore.NewDBWithPartitions(partitions))
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewWith(cluster, "g", v, h, testConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			svc.Start()

			sent := 0
			// send produces n alarms and waits until the shards have
			// persisted them and have no batch in flight.
			send := func(n int) {
				for ; n > 0; n-- {
					if _, _, err := prod.SendAt(keys[sent], values[sent], time.Time{}); err != nil {
						t.Fatal(err)
					}
					sent++
				}
				deadline := time.Now().Add(10 * time.Second)
				for svc.Records() < sent || svc.shards[0].inflight.Load() > 0 || svc.shards[1].inflight.Load() > 0 {
					if err := svc.Err(); err != nil {
						t.Fatal(err)
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d alarms verified after 10 s", svc.Records(), sent)
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
			// Warm: backlogs of 1 to 700 alarms (up to three batches a
			// shard), then one alarm at a time as in the windows.
			for i := 0; sent < warmRows-k; i++ {
				send(min(1+i*97%700, warmRows-k-sent))
			}
			for i := 0; i < k; i++ {
				send(1)
			}

			least := uint64(math.MaxUint64)
			for w := 0; w < windows; w++ {
				batches := svc.Stats().Batches
				runtime.GC()
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < k; i++ {
					send(1)
				}
				runtime.ReadMemStats(&after)
				if got := svc.Stats().Batches - batches; got != k {
					t.Fatalf("window %d drained %d batches, want %d", w, got, k)
				}
				n := after.Mallocs - before.Mallocs
				t.Logf("window %d: %d batches after a GC, %d allocations", w, k, n)
				least = min(least, n)
			}
			t.Logf("least of %d windows: %d allocations for %d batches, budget %d", windows, least, k, budget)
			if least > budget {
				t.Fatalf("least of %d windows: %d allocations for %d warm batches after a GC, budget %d", windows, least, k, budget)
			}
		})
	}
}
