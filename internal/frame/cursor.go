package frame

import "encoding/binary"

// Cursor reads a frame body field by field, every read bounded by the
// bytes that remain. The first read that would overrun, or finds a
// malformed varint, fails the cursor and empties it, so every later read
// fails too and a decoder checks once, with Done, at its end. Count
// checks a count against the remaining bytes before anything is sized
// from it, so a hostile body cannot make a decoder allocate more than
// its own length.
type Cursor struct {
	b   []byte
	bad bool
}

// NewCursor reads body from its first byte.
func NewCursor(body []byte) Cursor { return Cursor{b: body} }

// Fail fails the cursor: a decoder found a field it refuses.
func (c *Cursor) Fail() { c.b, c.bad = nil, true }

// Failed reports whether a read has failed.
func (c *Cursor) Failed() bool { return c.bad }

// Len is the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) }

// Done reports whether every read succeeded and used the body up.
func (c *Cursor) Done() bool { return !c.bad && len(c.b) == 0 }

// Uvarint reads an unsigned varint.
//
//alarmvet:hotpath
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.Fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Varint reads a zig-zag varint.
//
//alarmvet:hotpath
func (c *Cursor) Varint() int64 {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.Fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Nonneg reads a zig-zag varint that must not be negative.
//
//alarmvet:hotpath
func (c *Cursor) Nonneg() int64 {
	v := c.Varint()
	if v < 0 {
		c.Fail()
		return 0
	}
	return v
}

// Count reads a count of items at least each bytes long, and refuses
// one the remaining bytes cannot hold.
//
//alarmvet:hotpath
func (c *Cursor) Count(each int) int {
	n := c.Uvarint()
	if n > uint64(len(c.b)/each) {
		c.Fail()
		return 0
	}
	return int(n)
}

// Byte reads one byte.
//
//alarmvet:hotpath
func (c *Cursor) Byte() byte {
	if len(c.b) == 0 {
		c.Fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Uint64 reads a fixed 8-byte little-endian word.
//
//alarmvet:hotpath
func (c *Cursor) Uint64() uint64 {
	if len(c.b) < 8 {
		c.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// Bytes reads a length-prefixed byte string as a view of the body, nil
// when empty.
//
//alarmvet:hotpath
func (c *Cursor) Bytes() []byte {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

// Str reads a length-prefixed string into *dst, keeping the string
// already there when it is the same one.
//
//alarmvet:hotpath
func (c *Cursor) Str(dst *string) {
	if b := c.Bytes(); string(b) != *dst {
		*dst = string(b)
	}
}
