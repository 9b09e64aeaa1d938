// Package frame owns the one frame format the store's write-ahead log,
// its snapshots and the broker wire share:
//
//	uint32 little-endian body length | uint32 CRC-32 (IEEE) of body | body
//
// A writer reserves the header with Begin and seals it in place after
// the body with Seal. A Reader reads a stream's frames, Scan a log's
// valid prefix, and a Cursor reads a body field by field. The largest
// body is each caller's argument: refused on write, an error on read.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the size of a frame's header.
const HeaderLen = 8

// Framing errors. ErrTruncated means more bytes are needed.
var (
	ErrTooLarge  = errors.New("frame: body exceeds its bound")
	ErrTruncated = errors.New("frame: truncated")
	ErrCorrupt   = errors.New("frame: CRC mismatch")
)

// Begin appends room for a header to dst, for the body to follow.
//
//alarmvet:hotpath
func Begin(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal fills in the header of f, a frame Begin started, whose body is
// f[HeaderLen:]; a body longer than limit is refused.
func Seal(f []byte, limit int) error {
	body := f[HeaderLen:]
	if len(body) > limit {
		return fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, len(body), limit)
	}
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(body))
	return nil
}

// Append appends the frame of body to dst; a body longer than limit is
// refused and dst comes back as it was.
func Append(dst, body []byte, limit int) ([]byte, error) {
	f := append(Begin(dst), body...)
	if err := Seal(f[len(dst):], limit); err != nil {
		return dst, err
	}
	return f, nil
}

// Decode decodes one frame from the front of b, returning the body as a
// view into b and the bytes after the frame. It never panics and never
// allocates: a short buffer is ErrTruncated, a length beyond limit
// ErrTooLarge, a checksum mismatch ErrCorrupt.
func Decode(b []byte, limit int) (body, rest []byte, err error) {
	if len(b) < HeaderLen {
		return nil, b, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if uint64(n) > uint64(limit) {
		return nil, b, fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, n, limit)
	}
	if uint32(len(b)-HeaderLen) < n {
		return nil, b, ErrTruncated
	}
	body = b[HeaderLen : HeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, b, ErrCorrupt
	}
	return body, b[HeaderLen+int(n):], nil
}

// ReadChunk bounds how far past the bytes that have arrived a Reader's
// buffer grows: a hostile length prefix costs at most one chunk.
const ReadChunk = 256 << 10

// minRead is the smallest buffer a Reader reads into.
const minRead = 4 << 10

// Reader reads one stream's frames. Bytes a read delivered past the end
// of a frame are kept in carry, storage of its own, for the next call:
// the caller may hand that call a different buffer, and the one the
// frame was read into belongs to whoever holds the body.
type Reader struct {
	r     io.Reader
	limit int
	carry []byte // carry[next:] is what is read but not yet handed out
	next  int
}

// NewReader reads the frames of r, each body at most limit bytes.
func NewReader(r io.Reader, limit int) *Reader {
	return &Reader{r: r, limit: limit}
}

// Next reads one complete frame into buf, reusing its capacity, and
// returns the body (a view of buf) and the possibly grown buffer, the
// frame at its front, for the next call. It takes the frame's carried
// bytes, and no more, or reads as much as has arrived in one read; the
// rest it reads with io.ReadFull, never past the frame. A buffer too
// small to start from is replaced once, sized from the length prefix
// read into the carry: the frame, capped at one ReadChunk, but never
// less than its carried bytes. A full buffer grows to the frame or to
// twice its own, whichever is more, but never to more than one
// ReadChunk past the bytes that have arrived: allocation tracks
// delivery, and frames that grow a little at a time do not cost an
// allocation each. The stream's end is io.EOF or io.ErrUnexpectedEOF.
func (fr *Reader) Next(buf []byte) (body, newBuf []byte, err error) {
	buf = buf[:cap(buf)]
	if len(buf) < minRead || len(buf) < len(fr.carried()) {
		if err := fr.fillHeader(); err != nil {
			return nil, buf[:0], err
		}
		c := fr.carried()
		total := HeaderLen + int(binary.LittleEndian.Uint32(c[0:4]))
		buf = make([]byte, max(len(c), min(max(minRead, total), ReadChunk)))
	}
	have := copy(buf, fr.carried())
	if fr.next += have; fr.next == len(fr.carry) {
		fr.carry, fr.next = fr.carry[:0], 0
	}
	if have < HeaderLen {
		n, err := io.ReadAtLeast(fr.r, buf[have:], HeaderLen-have)
		have += n
		if err != nil {
			return nil, buf[:have], err
		}
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if uint64(n) > uint64(fr.limit) {
		return nil, buf[:have], fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, n, fr.limit)
	}
	total := HeaderLen + int(n)
	if have > total {
		// Only a read of this call goes past the frame, and that read
		// found the carry empty.
		fr.carry = append(fr.carry, buf[total:have]...)
		have = total
	}
	for have < total {
		if have == len(buf) {
			grown := make([]byte, min(max(2*len(buf), total), have+ReadChunk))
			copy(grown, buf[:have])
			buf = grown
		}
		end := min(total, len(buf))
		if _, err := io.ReadFull(fr.r, buf[have:end]); err != nil {
			return nil, buf[:have], err
		}
		have = end
	}
	body = buf[HeaderLen:total]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, buf[:total], ErrCorrupt
	}
	return body, buf[:total], nil
}

// carried returns the carried bytes that belong to the next frame: all
// of them while they hold no whole header, else no more than the frame.
func (fr *Reader) carried() []byte {
	c := fr.carry[fr.next:]
	if len(c) >= HeaderLen {
		c = c[:min(len(c), HeaderLen+int(binary.LittleEndian.Uint32(c[0:4])))]
	}
	return c
}

// fillHeader reads into the carry, at least minRead of storage kept from
// call to call, until it holds a frame header.
func (fr *Reader) fillHeader() error {
	have := len(fr.carry) - fr.next
	if have >= HeaderLen {
		return nil
	}
	c := fr.carry[:0]
	if cap(c) < minRead {
		c = make([]byte, 0, minRead)
	}
	fr.carry, fr.next = append(c, fr.carry[fr.next:]...), 0
	n, err := io.ReadAtLeast(fr.r, fr.carry[have:cap(fr.carry)], HeaderLen-have)
	fr.carry = fr.carry[:have+n]
	return err
}

// Scan feeds the body of each frame of r to fn, in order, and returns
// how many bytes those frames span: a log's valid prefix. The first torn
// frame — cut short, longer than limit or failing its CRC — ends the
// scan like the end of r; fn's first error and a read error end it and
// are returned. A body is valid only during its call.
func Scan(r io.Reader, limit int, fn func(body []byte) error) (int64, error) {
	fr := NewReader(r, limit)
	var valid int64
	var buf []byte
	for {
		body, b, err := fr.Next(buf)
		buf = b
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTooLarge):
			return valid, nil
		case err != nil:
			return valid, err
		}
		if err := fn(body); err != nil {
			return valid, err
		}
		valid += int64(HeaderLen + len(body))
	}
}
