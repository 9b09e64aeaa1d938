package netbroker

import (
	"errors"
	"fmt"
	"time"

	"alarmverify/internal/broker"
)

// Opcodes: the first body byte of every frame. Requests and their
// responses share the opcode; the client checks the echo.
const (
	opMeta byte = iota + 1
	opEnsureTopic
	opAppend
	opFetch
	opHighWatermarks
	opJoin
	opLeave
	opCommit
	opGroupCommitted
	opHeartbeat
	opReplFetch
	opVote
	opDeclare
	opFetchLog
)

// Error kinds carried in response envelopes; the client maps them back
// to the broker package's sentinel errors so pipeline code is
// transport-agnostic.
const (
	kindNotLeader     = "not_leader"
	kindStale         = "stale"
	kindNotMember     = "not_member"
	kindUnknownTopic  = "unknown_topic"
	kindTopicExists   = "topic_exists"
	kindInvalidOffset = "invalid_offset"
	kindUnknownGroup  = "unknown_group"
	kindClosed        = "closed"
	kindAckTimeout    = "ack_timeout"
	kindBelowLogStart = "below_log_start"
)

// Protocol-level errors surfaced by the client.
var (
	// ErrNotLeader reports that the contacted node is not the current
	// partition-set leader; the client rediscovers and retries.
	ErrNotLeader = errors.New("netbroker: not the leader")
	// ErrAckTimeout reports that an append could not reach follower
	// quorum before the leader's ack deadline. The append may still
	// commit; the producer's retry is deduplicated by sequence number
	// on the same leader, and may duplicate across a failover
	// (at-least-once, never lost once acked).
	ErrAckTimeout = errors.New("netbroker: replication quorum ack timeout")
)

// wireErr is the error envelope embedded in every response: JSON
// fields on the control opcodes, a kind byte and the text on the binary
// ones (wire.go).
type wireErr struct {
	Err  string `json:"err,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// toErr maps the envelope back to a sentinel error (nil when clean).
func (e *wireErr) toErr() error {
	if e.Err == "" && e.Kind == "" {
		return nil
	}
	switch e.Kind {
	case kindNotLeader:
		return fmt.Errorf("%w: %s", ErrNotLeader, e.Err)
	case kindStale:
		return broker.ErrRebalanceStale
	case kindNotMember:
		return broker.ErrNotMember
	case kindUnknownTopic:
		return fmt.Errorf("%w: %s", broker.ErrUnknownTopic, e.Err)
	case kindTopicExists:
		return fmt.Errorf("%w: %s", broker.ErrTopicExists, e.Err)
	case kindInvalidOffset:
		return fmt.Errorf("%w: %s", broker.ErrInvalidOffset, e.Err)
	case kindUnknownGroup:
		return fmt.Errorf("%w: %s", broker.ErrUnknownGroup, e.Err)
	case kindClosed:
		return broker.ErrClosed
	case kindAckTimeout:
		return ErrAckTimeout
	case kindBelowLogStart:
		return fmt.Errorf("%w: %s", broker.ErrBelowLogStart, e.Err)
	}
	return fmt.Errorf("netbroker: %s", e.Err)
}

// setErr fills the envelope from err, classifying known sentinels.
func (e *wireErr) setErr(err error) {
	if err == nil {
		return
	}
	e.Err = err.Error()
	switch {
	case errors.Is(err, ErrNotLeader):
		e.Kind = kindNotLeader
	case errors.Is(err, broker.ErrRebalanceStale):
		e.Kind = kindStale
	case errors.Is(err, broker.ErrNotMember):
		e.Kind = kindNotMember
	case errors.Is(err, broker.ErrUnknownTopic):
		e.Kind = kindUnknownTopic
	case errors.Is(err, broker.ErrTopicExists):
		e.Kind = kindTopicExists
	case errors.Is(err, broker.ErrInvalidOffset):
		e.Kind = kindInvalidOffset
	case errors.Is(err, broker.ErrUnknownGroup):
		e.Kind = kindUnknownGroup
	case errors.Is(err, broker.ErrClosed):
		e.Kind = kindClosed
	case errors.Is(err, ErrAckTimeout):
		e.Kind = kindAckTimeout
	case errors.Is(err, broker.ErrBelowLogStart):
		e.Kind = kindBelowLogStart
	}
}

type metaReq struct{}

type metaResp struct {
	wireErr
	NodeID int            `json:"node"`
	Epoch  int64          `json:"epoch"`
	Leader int            `json:"leader"`
	Topics map[string]int `json:"topics,omitempty"`
}

type ensureTopicReq struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`
}

type ensureTopicResp struct {
	wireErr
	Partitions int `json:"partitions"`
}

type joinReq struct {
	Group  string `json:"group"`
	Topic  string `json:"topic"`
	Member string `json:"member"`
}

// joinResp is a member's whole assignment, read in one join: its
// partitions, their committed offsets and the generation they belong
// to, plus the pace its heartbeat must keep to hold the session (a
// twentieth of the server's SessionTimeout).
type joinResp struct {
	wireErr
	Gen        int64         `json:"gen"`
	Parts      []int         `json:"parts"`
	Offsets    map[int]int64 `json:"offsets"`
	Partitions int           `json:"partitions"`
	Heartbeat  time.Duration `json:"heartbeat"`
}

type leaveReq struct {
	Group  string `json:"group"`
	Member string `json:"member"`
}

type leaveResp struct{ wireErr }

type groupCommittedReq struct {
	Group string `json:"group"`
}

type groupCommittedResp struct {
	wireErr
	Offsets map[int]int64 `json:"offsets"`
}

type voteReq struct {
	Epoch  int64 `json:"epoch"`
	NodeID int   `json:"node"`
}

// voteResp carries the voter's per-partition log sizes and tail
// epochs: the winning candidate adopts the most up-to-date log — max
// (tail epoch, size), Raft's comparison — among itself and its vote
// quorum before declaring, truncating any divergent local suffix.
// Every quorum-acked record is on at least one member of any vote
// quorum, and the most up-to-date log in the quorum contains all of
// them, so no acked record is lost across a failover.
type voteResp struct {
	wireErr
	Granted bool               `json:"granted"`
	Epoch   int64              `json:"epoch"`
	Sizes   map[string][]int64 `json:"sizes,omitempty"`
	Tails   map[string][]int64 `json:"tails,omitempty"`
	// Starts and StartEpochs are the voter's log starts and the epochs
	// below them: a candidate whose log ends below a start moves to it.
	Starts      map[string][]int64 `json:"starts,omitempty"`
	StartEpochs map[string][]int64 `json:"startEpochs,omitempty"`
	Partitions  map[string]int     `json:"partitions,omitempty"`
}

// declareReq announces a reconciled leader for a new epoch. Sizes are
// the new leader's log sizes; followers truncate longer local logs to
// them (dropping only never-quorum-acked suffixes).
type declareReq struct {
	Epoch      int64              `json:"epoch"`
	Leader     int                `json:"leader"`
	Sizes      map[string][]int64 `json:"sizes"`
	Partitions map[string]int     `json:"partitions,omitempty"`
}

type declareResp struct {
	wireErr
	Epoch int64 `json:"epoch"`
}
