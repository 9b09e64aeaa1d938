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
//	               | topics | per topic: name | n | n × commit index | runs
//	               | truncations | each: topic | partition | size
//	               | group offsets | each: group | topic | partition | offset
//
// Topics travel in name order. A decoder checks every count and length
// against the bytes that remain before sizing anything from it and
// treats trailing bytes as an error; because every request opens with
// a varint that cannot be negative and every response with the kind
// byte, a JSON body from a node that predates this format is refused
// at its first field. The other control opcodes (meta, ensure-topic,
// join, leave, assign, committed, group-committed, vote, declare) keep
// JSON bodies: they run at set-up, at a rebalance, or once per
// election, and carry none of the traffic.
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

// readChunk bounds how far past the bytes that have arrived a frame's
// buffer grows: a hostile length prefix costs at most one chunk before
// the connection errors out, instead of a MaxFrame-sized up-front
// allocation.
const readChunk = 256 << 10

// minRead is the smallest buffer readFrame reads into.
const minRead = 4 << 10

// frameReader reads one stream's frames. Bytes a read delivered past the
// end of a frame are kept in carry, storage of its own, for the next
// call: the caller may hand that call a different buffer, and the one
// the frame was read into belongs to whoever holds the body.
type frameReader struct {
	r     io.Reader
	carry []byte
}

// readFrame reads one complete frame into buf, reusing its capacity,
// and returns the body (a view of buf) and the possibly grown buffer,
// header and body at its front, for the next call. It starts from the
// carried bytes and reads as much as has arrived — the header and,
// usually, the whole body — in one read; the rest it reads with
// io.ReadFull, never past the frame. A buffer too small to start from
// is replaced once, at the frame's size: the first bytes are read into
// the carry, whose length prefix sizes the new buffer, capped at one
// readChunk but never smaller than the carried bytes. A full buffer
// grows to the frame's size or to twice its own, whichever is more, but
// never to more than one readChunk past the bytes that have arrived:
// allocation tracks delivery, a hostile length prefix cannot balloon
// it, and frames that grow a little at a time do not cost an
// allocation each.
func (fr *frameReader) readFrame(buf []byte) (body, newBuf []byte, err error) {
	buf = buf[:cap(buf)]
	if len(buf) < minRead || len(buf) < len(fr.carry) {
		if err := fr.fillHeader(); err != nil {
			return nil, buf[:0], err
		}
		total := frameHeader + int(binary.BigEndian.Uint32(fr.carry[0:4]))
		buf = make([]byte, max(len(fr.carry), min(max(minRead, total), readChunk)))
	}
	have := copy(buf, fr.carry)
	fr.carry = fr.carry[:0]
	if have < frameHeader {
		n, err := io.ReadAtLeast(fr.r, buf[have:], frameHeader-have)
		have += n
		if err != nil {
			return nil, buf[:have], err
		}
	}
	n := binary.BigEndian.Uint32(buf[0:4])
	if n > MaxFrame {
		return nil, buf[:have], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	total := frameHeader + int(n)
	if have > total {
		fr.carry = append(fr.carry, buf[total:have]...)
		have = total
	}
	for have < total {
		if have == len(buf) {
			grown := make([]byte, min(max(2*len(buf), total), have+readChunk))
			copy(grown, buf[:have])
			buf = grown
		}
		end := min(total, len(buf))
		if _, err := io.ReadFull(fr.r, buf[have:end]); err != nil {
			return nil, buf[:have], err
		}
		have = end
	}
	body = buf[frameHeader:total]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, buf[:total], ErrFrameCorrupt
	}
	return body, buf[:total], nil
}

// fillHeader reads into the carry, at least minRead of storage kept
// from call to call, until it holds a frame header.
func (fr *frameReader) fillHeader() error {
	have := len(fr.carry)
	if have >= frameHeader {
		return nil
	}
	if cap(fr.carry) < minRead {
		fr.carry = append(make([]byte, 0, minRead), fr.carry...)
	}
	n, err := io.ReadAtLeast(fr.r, fr.carry[have:cap(fr.carry)], frameHeader-have)
	fr.carry = fr.carry[:have+n]
	return err
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
