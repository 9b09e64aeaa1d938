package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestReplicationRoleAndFailovers(t *testing.T) {
	r := NewReplication()
	if r.epoch.Load() != 0 || r.failovers.Load() != 0 {
		t.Fatalf("fresh Replication not zeroed: epoch=%d failovers=%d", r.epoch.Load(), r.failovers.Load())
	}
	r.SetRole(3, 1, true)
	if r.epoch.Load() != 3 {
		t.Fatalf("Epoch = %d, want 3", r.epoch.Load())
	}
	r.AddFailover()
	r.AddFailover()
	if r.failovers.Load() != 2 {
		t.Fatalf("Failovers = %d, want 2", r.failovers.Load())
	}
}

func TestReplicationLagSnapshotIsolated(t *testing.T) {
	r := NewReplication()
	r.SetReplicaLag(1, 40)
	r.SetReplicaLag(2, 7)
	r.SetReplicaLag(1, 12) // overwrite, not accumulate
	snap := r.ReplicaLag()
	if snap[1] != 12 || snap[2] != 7 || len(snap) != 2 {
		t.Fatalf("ReplicaLag snapshot = %v, want map[1:12 2:7]", snap)
	}
	snap[1] = 999 // the snapshot must be a copy
	if again := r.ReplicaLag(); again[1] != 12 {
		t.Fatalf("snapshot mutation leaked into the gauge: %v", again)
	}
}

func TestReplicationWriteProm(t *testing.T) {
	r := NewReplication()
	r.SetRole(5, 2, true)
	r.AddFailover()
	r.SetReplicaLag(2, 0)
	r.SetReplicaLag(1, 34)
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"alarmverify_broker_epoch 5\n",
		"alarmverify_broker_is_leader 1\n",
		"alarmverify_broker_failovers_total 1\n",
		`alarmverify_broker_replica_lag_records{node="1"} 34` + "\n",
		`alarmverify_broker_replica_lag_records{node="2"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
	// Follower view: is_leader renders 0.
	r.SetRole(6, 0, false)
	b.Reset()
	r.WriteProm(&b)
	if !strings.Contains(b.String(), "alarmverify_broker_is_leader 0\n") {
		t.Errorf("follower WriteProm missing is_leader 0:\n%s", b.String())
	}
}

func TestReplicationConcurrentUpdates(t *testing.T) {
	r := NewReplication()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.SetRole(int64(i), g, g%2 == 0)
				r.SetReplicaLag(g, int64(i))
				r.AddFailover()
				_ = r.ReplicaLag()
			}
		}(g)
	}
	wg.Wait()
	if r.failovers.Load() != 8*200 {
		t.Fatalf("Failovers = %d, want %d", r.failovers.Load(), 8*200)
	}
	var b strings.Builder
	r.WriteProm(&b)
	if !strings.Contains(b.String(), `alarmverify_broker_replica_lag_records{node="7"} 199`) {
		t.Fatalf("final lag gauges wrong:\n%s", b.String())
	}
}
