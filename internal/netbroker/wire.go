package netbroker

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/frame"
)

// The binary bodies of the five opcodes that carry the traffic (append,
// fetch, commit, replication pull, log fetch) and of the two control
// opcodes that recur (heartbeat, high watermarks); frame.go's package
// comment has the layouts. Encoders append to the caller's buffer;
// decoders fill a message the caller keeps between calls, reusing its
// slices and strings, so a steady-state round trip allocates nothing.
// Decoded keys, values and records are views of the body: they live
// until the connection reads its next frame.

// errMalformed reports a body that is not the encoding of its opcode's
// message: a length or count beyond the bytes that remain, a negative
// value where none is possible, an unknown error kind, trailing bytes.
// It drops the connection.
var errMalformed = errors.New("netbroker: malformed message body")

// partOffset is an offset in one partition: a fetch cursor, a commit.
type partOffset struct {
	P   int
	Off int64
}

// truncAt tells a follower to cut one partition's log back to Size.
type truncAt struct {
	Topic string
	P     int
	Size  int64
}

// topicTails is a follower's log position in one topic: per partition,
// the log size and the epoch of the last record.
type topicTails struct {
	Name         string
	Sizes, Tails []int64
}

// topicCommits is one topic on the leader: per partition, the quorum
// commit index, the log start and the epoch of the record just below
// it; each slice's length is the partition count.
type topicCommits struct {
	Name                         string
	Commits, Starts, StartEpochs []int64
}

type appendReq struct {
	Partition  int
	ProducerID int64
	BaseSeq    int64
	Topic      string
	Recs       []broker.Record // Timestamp, Key and Value travel
}

type appendResp struct {
	wireErr
	Base int64
}

type fetchReq struct {
	WaitMicros int64
	Max        int
	Topic      string
	Parts      []partOffset
}

// fetchResp answers opFetch and opFetchLog. Recs are whole runs of one
// partition at consecutive offsets; Partition, Offset, Timestamp, Epoch,
// Key and Value travel, the topic is the request's.
type fetchResp struct {
	wireErr
	Recs []broker.Record
}

type commitReq struct {
	Gen     int64
	Group   string
	Member  string
	Offsets []partOffset
}

type commitResp struct{ wireErr }

// heartbeatReq keeps a member's session alive. Gen, the member's
// generation, leads so that the body opens with a varint that cannot be
// negative; the member compares the response's with its own.
type heartbeatReq struct {
	Gen    int64
	Group  string
	Member string
}

type heartbeatResp struct {
	wireErr
	Gen int64
}

// hwReq asks for the high watermarks of Parts, answered in their order.
type hwReq struct {
	Parts []int
	Topic string
}

type hwResp struct {
	wireErr
	HWs []int64
}

type fetchLogReq struct {
	Partition int
	Offset    int64
	Max       int
	Topic     string
}

// replFetchReq is the follower's pull: its log sizes per topic and
// partition double as replication acks, and Tails carries the epoch of
// each partition's last record so the leader can verify the follower's
// log is a true prefix of its own before counting the ack (a bare size
// cannot distinguish a caught-up follower from one holding an
// equal-length divergent log). Topics are in name order.
type replFetchReq struct {
	NodeID int
	Epoch  int64
	Topics []topicTails
}

// topic returns the follower's entry for a topic, nil when it has not
// heard of it.
func (m *replFetchReq) topic(name string) *topicTails {
	for i := range m.Topics {
		if m.Topics[i].Name == name {
			return &m.Topics[i]
		}
	}
	return nil
}

// replFetchResp ships the records past the follower's verified prefix:
// Recs holds them topic by topic in Topics' (name) order, each topic's
// as runs of one partition. A partition whose reported tail disagrees
// with the leader's log gets a Truncs entry instead of records: the
// follower truncates to that size and the next pull re-checks one record
// earlier, converging on the divergence point. Topics lists every topic
// the leader holds with its commit indexes; Groups piggybacks the
// consumer groups' committed offsets, so a promoted leader can seed its
// coordinator.
type replFetchResp struct {
	wireErr
	Epoch  int64
	Leader int
	Topics []topicCommits
	Recs   []broker.Record
	Truncs []truncAt
	Groups []broker.GroupOffset
}

// next extends s by one element and returns it. An element an earlier,
// longer use left in s's capacity comes back as it was, so the slices
// and strings inside it are reused; the caller sets every field.
func next[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

//alarmvet:hotpath
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRecord encodes what a record carries besides its position.
//
//alarmvet:hotpath
func appendRecord(dst []byte, r *broker.Record) []byte {
	dst = binary.AppendVarint(dst, r.Timestamp.UnixNano())
	dst = binary.AppendVarint(dst, r.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	return append(dst, r.Value...)
}

// minRecord is the shortest encoding appendRecord produces.
const minRecord = 4

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// recordLen is the number of bytes appendRecord adds — what a response
// builder subtracts from its byte budget.
func recordLen(r *broker.Record) int {
	return varintLen(r.Timestamp.UnixNano()) + varintLen(r.Epoch) +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) + uvarintLen(uint64(len(r.Value))) + len(r.Value)
}

// runLen counts the leading records of recs (not empty) that form one
// run: one topic, one partition, consecutive offsets.
//
//alarmvet:hotpath
func runLen(recs []broker.Record) int {
	n := 1
	for n < len(recs) && recs[n].Partition == recs[0].Partition &&
		recs[n].Offset == recs[0].Offset+int64(n) && recs[n].Topic == recs[0].Topic {
		n++
	}
	return n
}

// appendRuns encodes recs run by run — count, partition, first offset,
// records — and ends the list with a zero count.
//
//alarmvet:hotpath
func appendRuns(dst []byte, recs []broker.Record) []byte {
	for len(recs) > 0 {
		n := runLen(recs)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.AppendVarint(dst, int64(recs[0].Partition))
		dst = binary.AppendVarint(dst, recs[0].Offset)
		for i := range recs[:n] {
			dst = appendRecord(dst, &recs[i])
		}
		recs = recs[n:]
	}
	return append(dst, 0)
}

//alarmvet:hotpath
func appendPartOffsets(dst []byte, v []partOffset) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, po := range v {
		dst = binary.AppendVarint(dst, int64(po.P))
		dst = binary.AppendVarint(dst, po.Off)
	}
	return dst
}

// errKinds lists the error kinds in wire order: a response opens with
// one byte, 0 for success or 1 + the kind's index followed by the text.
var errKinds = [...]string{"", kindNotLeader, kindStale, kindNotMember, kindUnknownTopic,
	kindTopicExists, kindInvalidOffset, kindUnknownGroup, kindClosed, kindAckTimeout, kindBelowLogStart}

//alarmvet:hotpath
func (e *wireErr) appendEnvelope(dst []byte) []byte {
	if e.Err == "" && e.Kind == "" {
		return append(dst, 0)
	}
	code := byte(1)
	for i, k := range errKinds {
		if k == e.Kind {
			code = byte(i + 1)
		}
	}
	dst = append(dst, code)
	return appendString(dst, e.Err)
}

// wireReader reads a message body: the cursor every frame body is read
// with, and the encodings this wire shares between its messages.
type wireReader struct{ frame.Cursor }

//alarmvet:hotpath
func (r *wireReader) record() broker.Record {
	var rec broker.Record
	rec.Timestamp = time.Unix(0, r.Varint())
	rec.Epoch = r.Nonneg()
	rec.Key = r.Bytes()
	rec.Value = r.Bytes()
	return rec
}

// runs decodes what appendRuns wrote, appending to dst.
//
//alarmvet:hotpath
func (r *wireReader) runs(topic string, dst []broker.Record) []broker.Record {
	for n := r.Count(minRecord); n > 0; n = r.Count(minRecord) {
		p, base := int(r.Nonneg()), r.Nonneg()
		for i := 0; i < n && !r.Failed(); i++ {
			rec := r.record()
			rec.Topic, rec.Partition, rec.Offset = topic, p, base+int64(i)
			dst = append(dst, rec)
		}
	}
	return dst
}

//alarmvet:hotpath
func (r *wireReader) partOffsets(dst []partOffset) []partOffset {
	dst = dst[:0]
	for n := r.Count(2); n > 0; n-- {
		dst = append(dst, partOffset{P: int(r.Nonneg()), Off: r.Nonneg()})
	}
	return dst
}

//alarmvet:hotpath
func (r *wireReader) envelope(e *wireErr) {
	e.Err, e.Kind = "", ""
	code := r.Byte()
	if int(code) > len(errKinds) {
		r.Fail()
		return
	}
	if code != 0 {
		e.Kind = errKinds[code-1]
		e.Err = string(r.Bytes())
	}
}

// end closes a decode: bytes left over are as malformed as bytes
// missing.
func (r *wireReader) end() error {
	if !r.Done() {
		return errMalformed
	}
	return nil
}

//alarmvet:hotpath
func (m *appendReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(m.Partition))
	dst = binary.AppendVarint(dst, m.ProducerID)
	dst = binary.AppendVarint(dst, m.BaseSeq)
	dst = appendString(dst, m.Topic)
	dst = binary.AppendUvarint(dst, uint64(len(m.Recs)))
	for i := range m.Recs {
		dst = appendRecord(dst, &m.Recs[i])
	}
	return dst
}

//alarmvet:hotpath
func (m *appendReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.Partition = int(r.Nonneg())
	m.ProducerID = r.Varint()
	m.BaseSeq = r.Varint()
	r.Str(&m.Topic)
	m.Recs = m.Recs[:0]
	for n := r.Count(minRecord); n > 0 && !r.Failed(); n-- {
		m.Recs = append(m.Recs, r.record())
	}
	return r.end()
}

//alarmvet:hotpath
func (m *appendResp) appendTo(dst []byte) []byte {
	return binary.AppendVarint(m.appendEnvelope(dst), m.Base)
}

//alarmvet:hotpath
func (m *appendResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	m.Base = r.Varint()
	return r.end()
}

//alarmvet:hotpath
func (m *fetchReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.WaitMicros)
	dst = binary.AppendVarint(dst, int64(m.Max))
	dst = appendString(dst, m.Topic)
	return appendPartOffsets(dst, m.Parts)
}

//alarmvet:hotpath
func (m *fetchReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.WaitMicros = r.Nonneg()
	m.Max = int(r.Varint())
	r.Str(&m.Topic)
	m.Parts = r.partOffsets(m.Parts)
	return r.end()
}

//alarmvet:hotpath
func (m *fetchResp) appendTo(dst []byte) []byte {
	return appendRuns(m.appendEnvelope(dst), m.Recs)
}

//alarmvet:hotpath
func (m *fetchResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	m.Recs = r.runs("", m.Recs[:0])
	return r.end()
}

//alarmvet:hotpath
func (m *commitReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Gen)
	dst = appendString(dst, m.Group)
	dst = appendString(dst, m.Member)
	return appendPartOffsets(dst, m.Offsets)
}

//alarmvet:hotpath
func (m *commitReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.Gen = r.Nonneg()
	r.Str(&m.Group)
	r.Str(&m.Member)
	m.Offsets = r.partOffsets(m.Offsets)
	return r.end()
}

//alarmvet:hotpath
func (m *commitResp) appendTo(dst []byte) []byte { return m.appendEnvelope(dst) }

//alarmvet:hotpath
func (m *commitResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	return r.end()
}

//alarmvet:hotpath
func (m *heartbeatReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Gen)
	dst = appendString(dst, m.Group)
	return appendString(dst, m.Member)
}

//alarmvet:hotpath
func (m *heartbeatReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.Gen = r.Nonneg()
	r.Str(&m.Group)
	r.Str(&m.Member)
	return r.end()
}

//alarmvet:hotpath
func (m *heartbeatResp) appendTo(dst []byte) []byte {
	return binary.AppendVarint(m.appendEnvelope(dst), m.Gen)
}

//alarmvet:hotpath
func (m *heartbeatResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	m.Gen = r.Nonneg()
	return r.end()
}

// The partition count leads the request as a zig-zag varint, not an
// unsigned one, so that this request too opens with a field that
// cannot be negative.
//
//alarmvet:hotpath
func (m *hwReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(len(m.Parts)))
	for _, p := range m.Parts {
		dst = binary.AppendVarint(dst, int64(p))
	}
	return appendString(dst, m.Topic)
}

//alarmvet:hotpath
func (m *hwReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	n := r.Nonneg()
	if n > int64(r.Len()) {
		r.Fail()
	}
	m.Parts = m.Parts[:0]
	for ; n > 0 && !r.Failed(); n-- {
		m.Parts = append(m.Parts, int(r.Nonneg()))
	}
	r.Str(&m.Topic)
	return r.end()
}

//alarmvet:hotpath
func (m *hwResp) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(m.appendEnvelope(dst), uint64(len(m.HWs)))
	for _, hw := range m.HWs {
		dst = binary.AppendVarint(dst, hw)
	}
	return dst
}

//alarmvet:hotpath
func (m *hwResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	m.HWs = m.HWs[:0]
	for n := r.Count(1); n > 0; n-- {
		m.HWs = append(m.HWs, r.Nonneg())
	}
	return r.end()
}

//alarmvet:hotpath
func (m *fetchLogReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(m.Partition))
	dst = binary.AppendVarint(dst, m.Offset)
	dst = binary.AppendVarint(dst, int64(m.Max))
	return appendString(dst, m.Topic)
}

//alarmvet:hotpath
func (m *fetchLogReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.Partition = int(r.Nonneg())
	m.Offset = r.Nonneg()
	m.Max = int(r.Varint())
	r.Str(&m.Topic)
	return r.end()
}

//alarmvet:hotpath
func (m *replFetchReq) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(m.NodeID))
	dst = binary.AppendVarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(m.Topics)))
	for i := range m.Topics {
		t := &m.Topics[i]
		dst = appendString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Sizes)))
		for p, size := range t.Sizes {
			dst = binary.AppendVarint(dst, size)
			dst = binary.AppendVarint(dst, t.Tails[p])
		}
	}
	return dst
}

//alarmvet:hotpath
func (m *replFetchReq) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	m.NodeID = int(r.Nonneg())
	m.Epoch = r.Nonneg()
	m.Topics = m.Topics[:0]
	for n := r.Count(2); n > 0 && !r.Failed(); n-- {
		var t *topicTails
		m.Topics, t = next(m.Topics)
		r.Str(&t.Name)
		t.Sizes, t.Tails = t.Sizes[:0], t.Tails[:0]
		for parts := r.Count(2); parts > 0; parts-- {
			t.Sizes = append(t.Sizes, r.Nonneg())
			t.Tails = append(t.Tails, r.Nonneg())
		}
	}
	return r.end()
}

//alarmvet:hotpath
func (m *replFetchResp) appendTo(dst []byte) []byte {
	dst = m.appendEnvelope(dst)
	dst = binary.AppendVarint(dst, m.Epoch)
	dst = binary.AppendVarint(dst, int64(m.Leader))
	dst = binary.AppendUvarint(dst, uint64(len(m.Topics)))
	recs := m.Recs
	for i := range m.Topics {
		t := &m.Topics[i]
		dst = appendString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Commits)))
		for p, c := range t.Commits {
			dst = binary.AppendVarint(dst, c)
			dst = binary.AppendVarint(dst, t.Starts[p])
			dst = binary.AppendVarint(dst, t.StartEpochs[p])
		}
		mine := 0
		for mine < len(recs) && recs[mine].Topic == t.Name {
			mine++
		}
		dst = appendRuns(dst, recs[:mine])
		recs = recs[mine:]
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Truncs)))
	for i := range m.Truncs {
		dst = appendString(dst, m.Truncs[i].Topic)
		dst = binary.AppendVarint(dst, int64(m.Truncs[i].P))
		dst = binary.AppendVarint(dst, m.Truncs[i].Size)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Groups)))
	for i := range m.Groups {
		dst = appendString(dst, m.Groups[i].Group)
		dst = appendString(dst, m.Groups[i].Topic)
		dst = binary.AppendVarint(dst, int64(m.Groups[i].Partition))
		dst = binary.AppendVarint(dst, m.Groups[i].Offset)
	}
	return dst
}

//alarmvet:hotpath
func (m *replFetchResp) decode(b []byte) error {
	r := wireReader{frame.NewCursor(b)}
	r.envelope(&m.wireErr)
	m.Epoch = r.Nonneg()
	m.Leader = int(r.Varint())
	m.Topics, m.Recs = m.Topics[:0], m.Recs[:0]
	for n := r.Count(3); n > 0 && !r.Failed(); n-- {
		var t *topicCommits
		m.Topics, t = next(m.Topics)
		r.Str(&t.Name)
		t.Commits, t.Starts, t.StartEpochs = t.Commits[:0], t.Starts[:0], t.StartEpochs[:0]
		for parts := r.Count(3); parts > 0; parts-- {
			t.Commits = append(t.Commits, r.Nonneg())
			t.Starts = append(t.Starts, r.Nonneg())
			t.StartEpochs = append(t.StartEpochs, r.Nonneg())
		}
		m.Recs = r.runs(t.Name, m.Recs)
	}
	m.Truncs = m.Truncs[:0]
	for n := r.Count(3); n > 0 && !r.Failed(); n-- {
		var t *truncAt
		m.Truncs, t = next(m.Truncs)
		r.Str(&t.Topic)
		t.P, t.Size = int(r.Nonneg()), r.Nonneg()
	}
	m.Groups = m.Groups[:0]
	for n := r.Count(4); n > 0 && !r.Failed(); n-- {
		var g *broker.GroupOffset
		m.Groups, g = next(m.Groups)
		r.Str(&g.Group)
		r.Str(&g.Topic)
		g.Partition, g.Offset = int(r.Nonneg()), r.Nonneg()
	}
	return r.end()
}
