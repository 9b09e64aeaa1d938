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
// Wire format: every frame is
//
//	uint32 big-endian body length | uint32 CRC-32 (IEEE) of body | body
//
// where body is one opcode byte followed by the payload. Frames are
// bounded by MaxFrame; a torn, oversized, or CRC-corrupt frame is an
// error, never a panic, and decoding allocates proportionally to the
// bytes actually delivered, not to the claimed length (a hostile
// length prefix cannot balloon memory).
//
// Payloads: each opcode has one encoding. The five opcodes that carry
// the traffic have binary bodies (wire.go). Numbers are zig-zag
// varints, lengths and counts unsigned varints, strings and byte
// strings length-prefixed; a response opens with one error-kind byte,
// 0 for success, else the kind followed by the text.
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
//	opReplFetch  node | epoch | topics | per topic: name | n | n × (size | tail epoch)
//	             → kind | epoch | leader
//	               | topics | per topic: name | n | n × commit index | runs
//	               | truncations | each: topic | partition | size
//	               | group offsets | each: group | topic | partition | offset
//
// Topics travel in name order. A decoder checks every count and length
// against the bytes that remain before sizing anything from it and
// treats trailing bytes as an error; because every request opens with
// a varint that cannot be negative and every response with the kind
// byte, a JSON body from a node that predates this format is refused
// at its first field. The control opcodes (meta, ensure-topic, join,
// leave, assign, committed, group-committed, heartbeat,
// high-watermarks, vote, declare) keep JSON bodies: they run at
// set-up, a few times a second, or once per election, and carry none
// of the traffic.
//
// See ARCHITECTURE.md "Distributed deployment" for the replication
// protocol and its delivery invariants.
package netbroker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds one frame's body (opcode + payload). Fetch
// responses chunk themselves well below it; anything larger on the
// wire is a protocol violation.
const MaxFrame = 16 << 20

// frameHeader is the fixed prefix: length + CRC.
const frameHeader = 8

// Framing errors. ErrFrameTruncated from DecodeFrame means more bytes
// are needed — the streaming reader treats it as "keep reading", a
// datagram-style caller treats it as corruption.
var (
	ErrFrameTooLarge  = errors.New("netbroker: frame exceeds MaxFrame")
	ErrFrameTruncated = errors.New("netbroker: truncated frame")
	ErrFrameCorrupt   = errors.New("netbroker: frame CRC mismatch")
)

// AppendFrame appends the framed encoding of body to dst and returns
// the extended slice. Bodies larger than MaxFrame are refused.
func AppendFrame(dst, body []byte) ([]byte, error) {
	if len(body) > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	dst = append(dst, hdr[:]...)
	return append(dst, body...), nil
}

// DecodeFrame decodes one frame from the front of b, returning the
// body as a view into b and the remaining bytes. It never panics and
// never allocates: a short buffer is ErrFrameTruncated, a length
// beyond MaxFrame is ErrFrameTooLarge, and a checksum mismatch is
// ErrFrameCorrupt.
func DecodeFrame(b []byte) (body, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, b, ErrFrameTruncated
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxFrame {
		return nil, b, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(len(b)-frameHeader) < n {
		return nil, b, ErrFrameTruncated
	}
	body = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, b, ErrFrameCorrupt
	}
	return body, b[frameHeader+int(n):], nil
}

// readChunk bounds how much readFrame grows its buffer per read: a
// hostile length prefix costs at most one chunk before the connection
// errors out, instead of a MaxFrame-sized up-front allocation.
const readChunk = 256 << 10

// readFrame reads one complete frame body from r, reusing scratch's
// capacity when possible, and returns the body plus the (possibly
// grown) scratch for the next call. The header is read into the front
// of scratch and its two fields lifted out before the body overwrites
// it — a header array of its own would escape through the io.Reader
// and cost every frame an allocation. The buffer grows chunk by chunk
// as bytes actually arrive, so allocation tracks delivery.
func readFrame(r io.Reader, scratch []byte) (body, newScratch []byte, err error) {
	buf := scratch
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	if _, err := io.ReadFull(r, buf[:frameHeader]); err != nil {
		return nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(buf[0:4]))
	sum := binary.BigEndian.Uint32(buf[4:8])
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Grow incrementally: each ReadFull below fills at most one chunk,
	// and the buffer only extends once the previous chunk arrived.
	have := 0
	for have < n {
		step := n - have
		if step > readChunk {
			step = readChunk
		}
		if cap(buf) < have+step {
			next := make([]byte, have, have+step)
			copy(next, buf[:have])
			buf = next
		}
		buf = buf[:have+step]
		if _, err := io.ReadFull(r, buf[have:have+step]); err != nil {
			return nil, buf, err
		}
		have += step
	}
	buf = buf[:n]
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, buf, ErrFrameCorrupt
	}
	return buf, buf, nil
}

// writeFrame writes one framed body to w, reusing scratch for the
// encoding; it returns the (possibly grown) scratch.
func writeFrame(w io.Writer, scratch, body []byte) ([]byte, error) {
	out, err := AppendFrame(scratch[:0], body)
	if err != nil {
		return scratch, err
	}
	if _, err := w.Write(out); err != nil {
		return out, err
	}
	return out, nil
}
