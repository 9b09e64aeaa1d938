package broker

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"
)

// releaseLog is a one-partition topic, a group member on it and a
// helper that appends n records of size-byte values, the value of
// offset o filled with byte(o).
func releaseLog(t testing.TB) (*Broker, *Topic, *Consumer, func(n, size int)) {
	t.Helper()
	b := New()
	t.Cleanup(func() { b.Close() })
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(b, "verify", topic, "m1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var recs []Record
	appendN := func(n, size int) {
		t.Helper()
		for i := 0; i < n; i++ {
			end, _ := topic.LogSize(0)
			if cap(recs) == 0 {
				recs = make([]Record, 1)
			}
			recs[0].Value = bytes.Repeat([]byte{byte(end)}, size)
			if _, err := topic.Append(0, -1, 0, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b, topic, c, appendN
}

// ownBytes reports whether v holds the value appendN wrote at offset.
func ownBytes(v []byte, offset int64) bool {
	for _, c := range v {
		if c != byte(offset) {
			return false
		}
	}
	return len(v) > 0
}

// TestCommittedGroupReleasesLog: after 1 000 000 appends and a commit
// at 999 000, the partition's log start is 999 000, a read below it
// fails with ErrBelowLogStart, the records above it read back whole,
// and the partition retains a few header chunks and arena blocks, not
// the million records (112 MB of headers alone before).
func TestCommittedGroupReleasesLog(t *testing.T) {
	const n, at = 1_000_000, 999_000
	_, topic, c, appendN := releaseLog(t)
	appendN(n, 8)
	if err := c.CommitOffsets(map[int]int64{0: at}); err != nil {
		t.Fatal(err)
	}
	if start, _, _ := topic.LogStart(0); start != at {
		t.Fatalf("log start %d after a commit at %d", start, at)
	}
	if _, err := topic.FetchInto(0, at-1, 1, nil, nil); !errors.Is(err, ErrBelowLogStart) {
		t.Fatalf("a fetch below the log start: %v, want ErrBelowLogStart", err)
	}
	recs, err := topic.FetchInto(0, at, n, nil, nil)
	if err != nil || len(recs) != n-at {
		t.Fatalf("fetch from the log start: %d records, %v", len(recs), err)
	}
	for _, r := range recs {
		if !ownBytes(r.Value, r.Offset) {
			t.Fatalf("record %d reads %v", r.Offset, r.Value)
		}
	}
	if size, _ := topic.LogSize(0); size != n {
		t.Fatalf("LogSize %d, want the end offset %d", size, n)
	}
	// Two header chunks (the one holding the start and the last), two
	// blocks (the one holding the start and the last) and the spare list.
	budget := int64(2*4096*unsafe.Sizeof(entry{}) + (2+maxSpare)*arenaBlockSize)
	if got := topic.partitions[0].retained(); got > budget {
		t.Fatalf("the partition retains %d B after the release, budget %d", got, budget)
	}
}

// TestShortLogRetainsItsChunk: a log of fewer than lane.ChunkRows
// records holds a young header chunk — 512 headers, doubling as it
// fills — and retained counts it at that size, not as a full chunk.
func TestShortLogRetainsItsChunk(t *testing.T) {
	_, topic, _, appendN := releaseLog(t)
	for _, tc := range []struct{ records, headers int }{{100, 512}, {600, 1024}} {
		end, _ := topic.LogSize(0)
		appendN(tc.records-int(end), 8)
		// The headers, and one arena block holds every 8-byte value.
		want := int64(tc.headers)*int64(unsafe.Sizeof(entry{})) + arenaBlockSize
		if got := topic.partitions[0].retained(); got != want {
			t.Fatalf("a log of %d records retains %d B, want %d (%d headers and one block)", tc.records, got, want, tc.headers)
		}
	}
}

// TestUncommittedGroupHoldsLog: a group that has joined but commits
// nothing holds the log at its start, however far another group
// commits, and a topic no group has joined releases nothing.
func TestUncommittedGroupHoldsLog(t *testing.T) {
	b, topic, c, appendN := releaseLog(t)
	appendN(10_000, 8)
	idle, err := NewConsumer(b, "audit", topic, "a1")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := c.CommitOffsets(map[int]int64{0: 9_000}); err != nil {
		t.Fatal(err)
	}
	if start, _, _ := topic.LogStart(0); start != 0 {
		t.Fatalf("log start %d while a group has committed nothing", start)
	}
	if err := idle.CommitOffsets(map[int]int64{0: 4_000}); err != nil {
		t.Fatal(err)
	}
	if start, _, _ := topic.LogStart(0); start != 4_000 {
		t.Fatalf("log start %d, want the lower group's commit 4000", start)
	}

	lone, err := b.CreateTopic("lone", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Append(0, -1, 0, []Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	lone.SetLogStartFloor(0, 1)
	if start, _, _ := lone.LogStart(0); start != 0 {
		t.Fatalf("a topic no group joined starts at %d", start)
	}
}

// TestNewGroupStartsAtLogStart: a group joining after the log start
// has risen resumes there, not at offset 0, and its first poll reads
// the first record kept.
func TestNewGroupStartsAtLogStart(t *testing.T) {
	b, topic, c, appendN := releaseLog(t)
	appendN(100, 8)
	if err := c.CommitOffsets(map[int]int64{0: 60}); err != nil {
		t.Fatal(err)
	}
	late, err := NewConsumer(b, "late", topic, "l1")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if pos := late.PositionsInto(nil)[0]; pos != 60 {
		t.Fatalf("a group joining at log start 60 resumes at %d", pos)
	}
	recs, lease, err := late.PollLeased(10, 0, nil)
	if err != nil || len(recs) == 0 || recs[0].Offset != 60 {
		t.Fatalf("first poll: %d records from %v, %v", len(recs), recs, err)
	}
	lease.Release()
}

// TestStalePositionResumesAtLogStart: a member polling on a stale
// assignment, its position below a log start its group's commit has
// raised, resumes at the start instead of failing the poll.
func TestStalePositionResumesAtLogStart(t *testing.T) {
	_, _, c, appendN := releaseLog(t)
	appendN(100, 8)
	if err := c.CommitOffsets(map[int]int64{0: 70}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.positions[0] = 10 // what an assignment read before the commit held
	c.mu.Unlock()
	recs, lease, err := c.PollLeased(5, 0, nil)
	if err != nil || len(recs) != 5 || recs[0].Offset != 70 {
		t.Fatalf("poll from a stale position: %d records from %v, %v", len(recs), recs, err)
	}
	lease.Release()
}

// TestFloorCapsLogStart: a floor holds the log start below the groups'
// commits, a raised floor lets it follow them, and the start never
// falls when the floor does.
func TestFloorCapsLogStart(t *testing.T) {
	_, topic, c, appendN := releaseLog(t)
	appendN(100, 8)
	topic.SetLogStartFloor(0, 10)
	if err := c.CommitOffsets(map[int]int64{0: 80}); err != nil {
		t.Fatal(err)
	}
	if start, _, _ := topic.LogStart(0); start != 10 {
		t.Fatalf("log start %d under floor 10", start)
	}
	topic.SetLogStartFloor(0, 50)
	if start, _, _ := topic.LogStart(0); start != 50 {
		t.Fatalf("log start %d after the floor rose to 50", start)
	}
	// A floor that falls below the start leaves it; rising past it
	// again, the floor raises it.
	topic.SetLogStartFloor(0, 0)
	topic.SetLogStartFloor(0, 60)
	if start, _, _ := topic.LogStart(0); start != 60 {
		t.Fatalf("log start %d after the floor fell to 0 and rose to 60", start)
	}
	topic.SetLogStartFloor(0, -1)
	if start, _, _ := topic.LogStart(0); start != 80 {
		t.Fatalf("log start %d with the floor gone, want the commit 80", start)
	}
	if size, epoch, _ := topic.LogTail(0); size != 100 || epoch != 0 {
		t.Fatalf("LogTail = %d, %d", size, epoch)
	}
	if _, err := topic.EpochAt(0, 79); err != nil {
		t.Fatalf("EpochAt the record below the start: %v", err)
	}
	if _, err := topic.EpochAt(0, 78); !errors.Is(err, ErrBelowLogStart) {
		t.Fatalf("EpochAt below the start: %v", err)
	}
	if err := topic.Truncate(0, 70); err == nil {
		t.Fatal("a truncation below the log start succeeded")
	}
}

// TestResetLogMovesEmptyReplica: a replica log that ends below a start
// is reset to it — empty, at that size, the epoch below it the one
// given — and appends go on from there.
func TestResetLogMovesEmptyReplica(t *testing.T) {
	b := New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topic.AppendReplica(0, []Record{{Offset: 0, Value: []byte("a"), Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := topic.ResetLog(0, 5000, 3); err != nil {
		t.Fatal(err)
	}
	if size, epoch, _ := topic.LogTail(0); size != 5000 || epoch != 3 {
		t.Fatalf("after the reset LogTail = %d, %d; want 5000, 3", size, epoch)
	}
	if err := topic.AppendReplica(0, []Record{{Offset: 5000, Value: []byte("b"), Epoch: 4}}); err != nil {
		t.Fatal(err)
	}
	recs, err := topic.FetchLogInto(0, 5000, 10, nil, nil)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "b" || recs[0].Offset != 5000 {
		t.Fatalf("after the reset: %v, %v", recs, err)
	}
	if _, err := topic.FetchLogInto(0, 0, 10, nil, nil); !errors.Is(err, ErrBelowLogStart) {
		t.Fatalf("a fetch of the dropped records: %v", err)
	}
	if err := topic.ResetLog(0, 10, 9); err != nil {
		t.Fatal(err)
	}
	if size, _ := topic.LogSize(0); size != 5001 {
		t.Fatalf("a reset below the log's end moved it to %d", size)
	}
}

// TestPinnedViewSurvivesRelease: records a leased poll returned read
// their own bytes after the group commits past them and a burst of
// appends follows — more than the spare list holds — because the
// lease pins the partition: the blocks released under it wait (or go
// to the collector) and carry none of the burst. Once the lease is
// released, the next release hands blocks to the appends again.
func TestPinnedViewSurvivesRelease(t *testing.T) {
	_, topic, c, appendN := releaseLog(t)
	const size = 1000
	appendN(400, size) // about six blocks
	recs, lease, err := c.PollLeased(400, 0, nil)
	if err != nil || len(recs) != 400 {
		t.Fatalf("poll: %d records, %v", len(recs), err)
	}
	if err := c.CommitOffsets(map[int]int64{0: 400}); err != nil {
		t.Fatal(err)
	}
	appendN(4000, size) // sixty blocks, committed as they go
	for i := 0; i < 40; i++ {
		if err := c.CommitOffsets(map[int]int64{0: int64(400 + 100*i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs {
		if !ownBytes(r.Value, r.Offset) {
			t.Fatalf("pinned record %d reads %d..., a later append's bytes", r.Offset, r.Value[0])
		}
	}
	lease.Release()
	part := topic.partitions[0]
	part.mu.Lock()
	pins, held, spare := part.pins, part.arena.held.n, part.arena.spare.n
	part.mu.Unlock()
	if pins != 0 || held != 0 || spare == 0 {
		t.Fatalf("after the lease's release: %d pins, %d held, %d spare blocks", pins, held, spare)
	}
}

// TestStaleViewReadsPoison: in lease-check mode a block released with
// no pin out is poisoned as it becomes spare, so an unpinned view kept
// past the log start reads 0xDB, and still does where the block's reuse
// has not yet written; no stale view reads its own record again.
func TestStaleViewReadsPoison(t *testing.T) {
	SetLeaseCheck(true)
	defer SetLeaseCheck(false)
	_, topic, c, appendN := releaseLog(t)
	const size, n = 1000, 200
	perBlock := arenaBlockSize / size // 65: blocks end at 64, 129, 194
	appendN(n, size)
	stale, err := topic.FetchInto(0, 0, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitOffsets(map[int]int64{0: 190}); err != nil {
		t.Fatal(err)
	}
	released := 2 * perBlock // the blocks wholly below 190
	poisoned := func(v []byte) bool { return bytes.Count(v, []byte{leasePoison}) == len(v) }
	for _, r := range stale {
		if gone := r.Offset < int64(released); gone != poisoned(r.Value) || gone == ownBytes(r.Value, r.Offset) {
			t.Fatalf("record %d (released %v): view reads %d...", r.Offset, gone, r.Value[0])
		}
	}
	// Fill the current block and one record more: that one is written
	// into a spare block, over one stale view.
	appendN(4*perBlock-n+1, size)
	still := 0
	for _, r := range stale[:released] {
		if ownBytes(r.Value, r.Offset) {
			t.Fatalf("stale view of record %d reads its own bytes after its block's reuse", r.Offset)
		}
		if poisoned(r.Value) {
			still++
		}
	}
	if still != released-1 {
		t.Fatalf("%d of %d stale views read the poison after one record reused a block", still, released)
	}
}
