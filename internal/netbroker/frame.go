// Package netbroker puts a real network edge on internal/broker: a
// length-prefixed, CRC-checked framed TCP protocol carrying the broker
// API (append, fetch, consumer-group join/heartbeat/commit), a Server
// that wraps an in-process broker and replicates every partition log
// across peer nodes with quorum acknowledgement and epoch-fenced
// leader failover, and a Client whose Producer/Consumer satisfy the
// same interfaces the serving pipeline consumes in-process — so
// shards run unmodified in separate alarmd processes joining the
// consumer group over the wire.
//
// Wire format: every message is one frame of internal/frame — a
// little-endian length and CRC-32, then the body, bounded by MaxFrame —
// whose body is one opcode byte followed by the payload; that package
// refuses torn, oversized and corrupt frames and bounds what a hostile
// length prefix can allocate.
//
// Payloads: each opcode has one encoding. The five opcodes that carry
// the traffic and the two control opcodes that recur have binary bodies
// (wire.go). Numbers are zig-zag varints, lengths and counts unsigned
// varints, strings and byte strings length-prefixed; a response opens
// with one error-kind byte, 0 for success, else the kind followed by
// the text.
//
//	record       timestamp (Unix ns) | epoch | key | value
//	runs         { count | partition | first offset | count × record } … | 0
//
//	opAppend     partition | producer id | base seq | topic | n | n × record
//	             → kind | base offset
//	opFetch      wait (µs) | max | topic | n | n × (partition | offset)
//	             → kind | runs
//	opCommit     generation | group | member | n | n × (partition | offset)
//	             → kind
//	opFetchLog   partition | offset | max | topic
//	             → kind | runs
//	opHeartbeat  generation | group | member
//	             → kind | generation
//	opHighWatermarks
//	             n (zig-zag) | n × partition | topic
//	             → kind | n | n × high watermark
//	opReplFetch  node | epoch | topics | per topic: name | n | n × (size | tail epoch)
//	             → kind | epoch | leader
//	               | topics | per topic: name | n
//	                 | n × (commit index | log start | epoch below it) | runs
//	               | truncations | each: topic | partition | size
//	               | group offsets | each: group | topic | partition | offset
//
// Topics travel in name order. A decoder checks every count and length
// against the bytes that remain before sizing anything from it and
// treats trailing bytes as an error; because every request opens with
// a varint that cannot be negative and every response with the kind
// byte, a JSON body from a node that predates this format is refused
// at its first field. The other control opcodes (meta, ensure-topic,
// join, leave, group-committed, vote, declare) keep JSON bodies: they
// run at set-up, at a rebalance, or once per election, and carry none
// of the traffic. A join's answer is the member's whole assignment —
// partitions, their committed offsets, generation — and its heartbeat
// pace.
//
// See ARCHITECTURE.md "Distributed deployment" for the replication
// protocol and its delivery invariants.
package netbroker

import (
	"io"

	"alarmverify/internal/frame"
)

// MaxFrame bounds one frame's body (opcode + payload). Fetch
// responses chunk themselves well below it; anything larger on the
// wire is a protocol violation.
const MaxFrame = 16 << 20

// AppendFrame appends the frame of body to dst (frame.Append at
// MaxFrame).
func AppendFrame(dst, body []byte) ([]byte, error) { return frame.Append(dst, body, MaxFrame) }

// DecodeFrame decodes one frame from the front of b (frame.Decode at
// MaxFrame).
func DecodeFrame(b []byte) (body, rest []byte, err error) { return frame.Decode(b, MaxFrame) }

// writeFrame seals f, a frame frame.Begin started with the message
// encoded after it, in place and writes it to w.
func writeFrame(w io.Writer, f []byte) error {
	if err := frame.Seal(f, MaxFrame); err != nil {
		return err
	}
	_, err := w.Write(f)
	return err
}
