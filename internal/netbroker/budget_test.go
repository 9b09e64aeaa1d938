//go:build !race

package netbroker

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// The wire path's allocation budgets. They hold because the per-alarm
// messages are encoded into and decoded out of buffers their connection
// keeps, and would not survive a return to encoding/json (a send was 29
// allocations, an idle pull about as many on each side). Each run
// counts both ends of the round trip: client and server share the
// process. Since readFrame reads header and body into the connection's
// buffer (a header of its own cost each end one allocation a frame), an
// idle round trip allocates nothing; since the heartbeat and the
// high-watermarks request joined the binary messages, neither does a
// heartbeat or a Lag. The race runtime inflates the counts, hence the
// tag.

func TestSendAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	key, value, ts := []byte("00:11:22:33:44:55"), make([]byte, 300), time.Unix(1_700_000_000, 0)
	send := func() {
		if _, _, err := p.SendAt(key, value, ts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		send() // fill the partition's first arena block and grow the buffers
	}
	allocs := testing.AllocsPerRun(500, send)
	t.Logf("RF 1 SendAt round trip: %.2f allocations", allocs)
	if allocs > 7 {
		t.Fatalf("RF 1 SendAt round trip: %.2f allocations, budget 7", allocs)
	}
}

func TestIdlePullAllocBudget(t *testing.T) {
	pp := newPullPair(t, 2*time.Millisecond)
	pp.topic(t, "alarms", 8)
	pp.produce(t, "alarms", 3, 4, 300)
	if resp := pp.leader.handleJoin(joinReq{Group: "verify", Topic: "alarms", Member: "m1"}); resp.Err != "" {
		t.Fatal(resp.Err)
	} else if err := pp.lb.GroupCommit("verify", resp.Gen, map[int]int64{3: 4}); err != nil {
		t.Fatal(err)
	}
	pull := func() {
		if served, err := pp.follower.pullFrom(0); err != nil || !served {
			t.Fatalf("pull: served %v, %v", served, err)
		}
	}
	pull() // catch up, dial, grow the buffers
	pull()
	allocs := testing.AllocsPerRun(50, pull)
	t.Logf("idle held pull round: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("idle held pull round: %.2f allocations, budget 0", allocs)
	}
}

func TestEmptyPollLeasedAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	dst := make([]broker.Record, 0, 16)
	poll := func() {
		out, lease, err := cons.PollLeased(16, time.Millisecond, dst)
		if err != nil || len(out) != 0 {
			t.Fatalf("empty poll = %d records, %v", len(out), err)
		}
		lease.Release()
	}
	poll()
	allocs := testing.AllocsPerRun(50, poll)
	t.Logf("empty PollLeased: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("empty PollLeased: %.2f allocations, budget 0", allocs)
	}
}

// TestPollLeasedAllocBudget: a poll that fetches reads the response
// into a buffer its lease owns and hands out views of it; lease and
// buffer come off the consumer's free list, so fetch and Release
// allocate nothing on either end (a slab and a lease per poll before).
func TestPollLeasedAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 300; i++ {
		if _, _, err := p.SendAt([]byte{byte(i)}, make([]byte, 300), time.Unix(1_700_000_000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	dst := make([]broker.Record, 0, 16)
	poll := func() {
		out, lease, err := cons.PollLeased(1, time.Second, dst)
		if err != nil || len(out) != 1 || len(out[0].Value) != 300 {
			t.Fatalf("leased poll = %d records, %v; want 1 of 300 bytes", len(out), err)
		}
		lease.Release()
	}
	poll() // the lease and its buffer
	poll() // the buffer the first poll swapped it for
	allocs := testing.AllocsPerRun(200, poll)
	t.Logf("PollLeased of one record + Release: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("PollLeased of one record + Release: %.2f allocations, budget 0", allocs)
	}
	if st := cons.LeaseStats(); st.Active != 0 || st.Free != 1 || st.Bytes == 0 {
		t.Fatalf("lease stats after the run: %+v, want one lease, free, with a buffer", st)
	}
}

func TestCommitOffsetsAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	offsets := make(map[int]int64, 8)
	commit := func() {
		for p := 0; p < 8; p++ {
			offsets[p]++
		}
		if err := cons.CommitOffsets(offsets); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	allocs := testing.AllocsPerRun(100, commit)
	t.Logf("CommitOffsets of 8 partitions: %.2f allocations", allocs)
	if allocs > 2 {
		t.Fatalf("CommitOffsets of 8 partitions: %.2f allocations, budget 2", allocs)
	}
}

// TestHeartbeatAllocBudget: a heartbeat round trip encodes into and
// decodes out of messages both ends keep (18 allocations when its bodies
// were JSON).
func TestHeartbeatAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	gc, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	cons := gc.(*Consumer)
	heartbeat := func() {
		if stale, err := cons.heartbeat(); err != nil || stale {
			t.Fatalf("heartbeat: stale %v, %v", stale, err)
		}
	}
	heartbeat()
	allocs := testing.AllocsPerRun(200, heartbeat)
	t.Logf("heartbeat round trip: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("heartbeat round trip: %.2f allocations, budget 0", allocs)
	}
}

// TestLagAllocBudget: Lag, which a shard that sheds load asks once a
// batch, keeps its messages and positions on the consumer (30
// allocations a call when its bodies were JSON).
func TestLagAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, _, err := p.SendAt([]byte{byte(i)}, []byte("v"), time.Unix(1_700_000_000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	lag := func() {
		if n, err := cons.Lag(); err != nil || n != 10 {
			t.Fatalf("Lag = %d, %v; want 10", n, err)
		}
	}
	lag()
	allocs := testing.AllocsPerRun(200, lag)
	t.Logf("Lag over 8 partitions: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("Lag over 8 partitions: %.2f allocations, budget 0", allocs)
	}
}

// growingFrames serves frames of 1 KB, 2 KB, … up to max, one at a
// time, out of one body it keeps, so reading it allocates nothing.
type growingFrames struct {
	body      []byte
	hdr       [frameHeader]byte
	size, off int
}

func (g *growingFrames) Read(p []byte) (int, error) {
	if g.off == frameHeader+g.size {
		if g.size == len(g.body) {
			return 0, io.EOF
		}
		g.size += 1 << 10
		binary.BigEndian.PutUint32(g.hdr[0:4], uint32(g.size))
		binary.BigEndian.PutUint32(g.hdr[4:8], crc32.ChecksumIEEE(g.body[:g.size]))
		g.off = 0
	}
	var n int
	if g.off < frameHeader {
		n = copy(p, g.hdr[g.off:])
		g.off += n
	}
	m := copy(p[n:], g.body[g.off-frameHeader:g.size])
	g.off += m
	return n + m, nil
}

// TestReadFrameGrowAllocBudget: frames growing from 1 KB to 1 MB in 1 KB
// steps are read through one buffer, which doubles as it fills (by one
// readChunk at most) instead of being allocated again at every new size
// (1 024 allocations when it grew to fit each frame exactly).
func TestReadFrameGrowAllocBudget(t *testing.T) {
	g := &growingFrames{body: make([]byte, 1<<20)}
	for i := range g.body {
		g.body[i] = byte(i * 7)
	}
	fr := &frameReader{r: g}
	var buf []byte
	read := func() {
		g.size, g.off, buf = 0, frameHeader, nil
		for want := 1 << 10; want <= len(g.body); want += 1 << 10 {
			body, b, err := fr.readFrame(buf)
			buf = b
			if err != nil || len(body) != want {
				t.Fatalf("frame of %d bytes: read %d, %v", want, len(body), err)
			}
		}
	}
	allocs := testing.AllocsPerRun(1, read)
	t.Logf("1 024 frames of 1 KB to 1 MB: %.0f buffer allocations, ending at %d KB", allocs, cap(buf)>>10)
	if allocs > 16 {
		t.Fatalf("1 024 frames of 1 KB to 1 MB: %.0f buffer allocations, budget 16", allocs)
	}
}

// repeatedFrame serves one frame over and over, a read ending at the
// frame's end, so reading it allocates nothing.
type repeatedFrame struct {
	frame []byte
	off   int
}

func (r *repeatedFrame) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestReadFrameFreshBufferAllocBudget: a frame read into no buffer — a
// consumer fetch into a new lease's — allocates its buffer once, at the
// frame's size, from 100 B to 200 KB (a minRead buffer for the first
// read and then one of the frame's size was two above 4 KB).
func TestReadFrameFreshBufferAllocBudget(t *testing.T) {
	for _, size := range []int{100, 3_000, 20_000, 200_000} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		frame, err := AppendFrame(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		fr := &frameReader{r: &repeatedFrame{frame: frame}}
		allocs := testing.AllocsPerRun(50, func() {
			got, _, err := fr.readFrame(nil)
			if err != nil || len(got) != size {
				t.Fatalf("%d-byte frame: read %d, %v", size, len(got), err)
			}
		})
		if allocs != 1 {
			t.Errorf("%d-byte body into a fresh buffer: %.1f allocations, budget 1", size, allocs)
		}
	}
}
