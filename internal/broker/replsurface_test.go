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
