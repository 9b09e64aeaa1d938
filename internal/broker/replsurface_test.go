package broker

import (
	"testing"
	"time"
)

// TestLogTailAndEpochAt pins the replication bookkeeping surface:
// records carry the epoch they were appended under, LogTail reports
// (size, last epoch), and EpochAt addresses any offset — the pairs
// log reconciliation compares to detect divergent suffixes.
func TestLogTailAndEpochAt(t *testing.T) {
	b := New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if size, tail, err := topic.LogTail(0); err != nil || size != 0 || tail != 0 {
		t.Fatalf("empty LogTail = (%d, %d, %v), want (0, 0, nil)", size, tail, err)
	}
	for i, epoch := range []int64{1, 1, 3} {
		recs := []Record{{Key: []byte("k"), Value: []byte{byte(i)}, Epoch: epoch, Timestamp: time.Unix(int64(i), 0)}}
		if _, err := topic.Append(0, -1, 0, recs); err != nil {
			t.Fatal(err)
		}
	}
	size, tail, err := topic.LogTail(0)
	if err != nil || size != 3 || tail != 3 {
		t.Fatalf("LogTail = (%d, %d, %v), want (3, 3, nil)", size, tail, err)
	}
	for off, want := range []int64{1, 1, 3} {
		if e, err := topic.EpochAt(0, int64(off)); err != nil || e != want {
			t.Fatalf("EpochAt(%d) = (%d, %v), want %d", off, e, err, want)
		}
	}
	if _, err := topic.EpochAt(0, 3); err == nil {
		t.Fatal("EpochAt past the log succeeded")
	}
	// Replica appends install the leader's epochs verbatim.
	rep := []Record{{Offset: 3, Value: []byte("r"), Epoch: 4}}
	if err := topic.AppendReplica(0, rep); err != nil {
		t.Fatal(err)
	}
	if _, tail, _ := topic.LogTail(0); tail != 4 {
		t.Fatalf("replica append tail epoch = %d, want 4", tail)
	}
	// Truncation drops the suffix and the tail epoch follows.
	if err := topic.Truncate(0, 3); err != nil {
		t.Fatal(err)
	}
	if size, tail, _ := topic.LogTail(0); size != 3 || tail != 3 {
		t.Fatalf("post-truncate LogTail = (%d, %d), want (3, 3)", size, tail)
	}
}

// TestAppendStampsReplicaKeeps: the one install loop under Append and
// AppendReplica stamps the broker's clock on a leader record that
// carries no timestamp, keeps one that does, and installs a replica's
// record with the leader's timestamp as it came.
func TestAppendStampsReplicaKeeps(t *testing.T) {
	b := New()
	defer b.Close()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	b.clock = func() time.Time { return at }
	leader, err := b.CreateTopic("leader", 1)
	if err != nil {
		t.Fatal(err)
	}
	sent := time.Unix(42, 0)
	if _, err := leader.Append(0, -1, 0, []Record{{Value: []byte("a")}, {Value: []byte("b"), Timestamp: sent}}); err != nil {
		t.Fatal(err)
	}
	recs, err := leader.FetchInto(0, 0, 2, nil, nil)
	if err != nil || len(recs) != 2 {
		t.Fatalf("leader log = %d records, %v", len(recs), err)
	}
	if !recs[0].Timestamp.Equal(at) || !recs[1].Timestamp.Equal(sent) {
		t.Fatalf("Append stamped %v and %v, want the clock's %v and the record's own %v",
			recs[0].Timestamp, recs[1].Timestamp, at, sent)
	}
	replica, err := b.CreateTopic("replica", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.AppendReplica(0, recs); err != nil {
		t.Fatal(err)
	}
	got, err := replica.FetchInto(0, 0, 2, nil, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("replica log = %d records, %v", len(got), err)
	}
	for i, r := range got {
		if !r.Timestamp.Equal(recs[i].Timestamp) || string(r.Value) != string(recs[i].Value) ||
			r.Offset != int64(i) || r.Topic != "replica" {
			t.Fatalf("replica record %d = %+v, want the leader's %+v at offset %d of topic replica", i, r, recs[i], i)
		}
	}
}
