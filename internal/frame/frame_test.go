package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"unsafe"
)

// limit is the bound the tests frame under: the broker wire's.
const limit = 16 << 20

func TestSealInPlace(t *testing.T) {
	body := []byte("a body encoded after its header's room")
	f := append(Begin([]byte("kept")), body...)
	if err := Seal(f[4:], limit); err != nil {
		t.Fatal(err)
	}
	want, err := Append([]byte("kept"), body, limit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f, want) {
		t.Fatalf("sealed in place\n%x\nappended\n%x", f, want)
	}
	if got, rest, err := Decode(f[4:], limit); err != nil || !bytes.Equal(got, body) || len(rest) != 0 {
		t.Fatalf("Decode = %q, %d left, %v", got, len(rest), err)
	}
	if err := Seal(f[4:], len(body)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Seal past its bound: %v, want ErrTooLarge", err)
	}
	if got, err := Append([]byte("kept"), body, len(body)-1); !errors.Is(err, ErrTooLarge) || string(got) != "kept" {
		t.Fatalf("Append past its bound = %q, %v; want dst back and ErrTooLarge", got, err)
	}
}

// TestHeaderByteOrder pins the header: length, then CRC-32 (IEEE), both
// little-endian, the layout logs on disk hold.
func TestHeaderByteOrder(t *testing.T) {
	f, err := Append(nil, []byte{0x01, 0x02, 0x03}, limit)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{3, 0, 0, 0, 0x1d, 0x80, 0xbc, 0x55, 0x01, 0x02, 0x03}
	if !bytes.Equal(f, want) {
		t.Fatalf("frame %x, want %x", f, want)
	}
}

// TestReaderTakesOnlyItsFrameFromCarry: a read that delivers many frames
// at once hands them out one by one, each copied out of the carry once,
// whatever buffers the calls pass — a large one, a fresh one, a small
// one.
func TestReaderTakesOnlyItsFrameFromCarry(t *testing.T) {
	var wire []byte
	var bodies [][]byte
	for i := 0; i < 300; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 1+(i*37)%2000)
		bodies = append(bodies, body)
		var err error
		if wire, err = Append(wire, body, limit); err != nil {
			t.Fatal(err)
		}
	}
	src := &countingReader{r: bytes.NewReader(wire)}
	fr := NewReader(src, limit)
	buf := make([]byte, len(wire))
	for i, want := range bodies {
		body, b, err := fr.Next(buf)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(body), err)
		}
		switch i % 3 {
		case 0:
			buf = b
		case 1:
			buf = nil
		case 2:
			buf = make([]byte, 16)
		}
	}
	if _, _, err := fr.Next(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if src.reads != 2 {
		t.Fatalf("%d frames in one delivery took %d reads, want 2 (the frames, then EOF)", len(bodies), src.reads)
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestScanStopsAtTheFirstTornFrame: Scan hands over the frames before
// the first one that is cut short, oversized or corrupt, and reports
// the bytes they span; fn's error stops it and comes back.
func TestScanStopsAtTheFirstTornFrame(t *testing.T) {
	var good []byte
	for _, b := range []string{"one", "two", "three"} {
		good, _ = Append(good, []byte(b), 16)
	}
	bad, _ := Append(nil, []byte("four"), 16)
	bad[len(bad)-1] ^= 1
	long := binary.LittleEndian.AppendUint32(nil, 17)
	long = append(long, make([]byte, 4+17)...)
	for name, tail := range map[string][]byte{
		"nothing":       nil,
		"a torn header": {4, 0, 0},
		"a torn body":   bad[:len(bad)-1],
		"a corrupt one": append(bad, good...),
		"an over-long":  long,
	} {
		var got []string
		valid, err := Scan(iotest.HalfReader(bytes.NewReader(append(bytes.Clone(good), tail...))), 16, func(body []byte) error {
			got = append(got, string(body))
			return nil
		})
		if err != nil || valid != int64(len(good)) || len(got) != 3 || got[2] != "three" {
			t.Fatalf("%s: Scan = %d, %v, %q; want %d, nil, the three frames", name, valid, err, got, len(good))
		}
	}
	stop := errors.New("stop")
	valid, err := Scan(bytes.NewReader(good), 16, func(body []byte) error {
		if string(body) == "two" {
			return stop
		}
		return nil
	})
	if err != stop || valid != HeaderLen+3 {
		t.Fatalf("Scan = %d, %v; want %d, the callback's error", valid, err, HeaderLen+3)
	}
	broken := errors.New("disk")
	if _, err := Scan(iotest.ErrReader(broken), 16, func([]byte) error { return nil }); err != broken {
		t.Fatalf("a failing read: %v, want it back", err)
	}
}

func TestCursor(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = binary.AppendVarint(b, 42)
	b = append(b, 0xAB)
	b = binary.LittleEndian.AppendUint64(b, 1<<60+5)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 2)
	b = append(b, "xy"...)
	b = binary.AppendUvarint(b, 2)
	b = append(b, 1, 2)
	c := NewCursor(b)
	if v := c.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := c.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := c.Nonneg(); v != 42 {
		t.Fatalf("Nonneg = %d", v)
	}
	if v := c.Byte(); v != 0xAB {
		t.Fatalf("Byte = %x", v)
	}
	if v := c.Uint64(); v != 1<<60+5 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := c.Bytes(); string(v) != "abc" || cap(v) != 3 {
		t.Fatalf("Bytes = %q (cap %d)", v, cap(v))
	}
	if v := c.Bytes(); v != nil {
		t.Fatalf("empty Bytes = %q, want nil", v)
	}
	name := "xy"
	before := unsafe.StringData(name)
	c.Str(&name)
	if name != "xy" || unsafe.StringData(name) != before {
		t.Fatalf("Str = %q, or a new string for the same bytes", name)
	}
	if n := c.Count(1); n != 2 || c.Len() != 2 || c.Done() {
		t.Fatalf("Count = %d with %d left", n, c.Len())
	}
	c.Byte()
	c.Byte()
	if !c.Done() || c.Failed() {
		t.Fatal("a body read to its end is not done")
	}
	c.Byte()
	if !c.Failed() || c.Done() {
		t.Fatal("a read past the end did not fail the cursor")
	}

	torn, short := []byte{0x81, 0x81, 0x81}, []byte{0x05, 0x00}
	for _, tc := range []struct {
		name string
		body []byte
		read func(*Cursor)
	}{
		{"a torn uvarint", torn, func(c *Cursor) { c.Uvarint() }},
		{"a torn varint", torn, func(c *Cursor) { c.Varint() }},
		{"a short word", torn, func(c *Cursor) { c.Uint64() }},
		{"a refused field", torn, func(c *Cursor) { c.Fail() }},
		{"a negative nonneg", short, func(c *Cursor) { c.Nonneg() }},
		{"a string too long", short, func(c *Cursor) { c.Bytes() }},
		{"a count too large", short, func(c *Cursor) { c.Count(2) }},
	} {
		c := NewCursor(tc.body)
		tc.read(&c)
		if !c.Failed() || c.Len() != 0 || c.Uvarint() != 0 || c.Byte() != 0 || c.Bytes() != nil || c.Done() {
			t.Fatalf("%s: the cursor did not fail and empty", tc.name)
		}
	}
}

// FuzzFrameDecode fuzzes the wire-frame decoder: arbitrary bytes must
// never panic, never over-allocate, and any accepted frame must
// re-encode to the identical bytes (decode/encode round-trip).
func FuzzFrameDecode(f *testing.F) {
	good, _ := Append(nil, []byte("seed payload"), limit)
	f.Add(good)
	f.Add(good[:3])
	f.Add([]byte{})
	two, _ := Append(good, []byte{0xFF, 0x00}, limit)
	f.Add(two)
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			body, r, err := Decode(rest, limit)
			if err != nil {
				// Errors must be one of the typed framing errors.
				if !errors.Is(err, ErrTruncated) &&
					!errors.Is(err, ErrCorrupt) &&
					!errors.Is(err, ErrTooLarge) {
					t.Fatalf("untyped decode error: %v", err)
				}
				break
			}
			// Round-trip: an accepted frame re-encodes byte-identically.
			enc, encErr := Append(nil, body, limit)
			if encErr != nil {
				t.Fatalf("accepted body failed re-encode: %v", encErr)
			}
			if !bytes.Equal(enc, rest[:len(rest)-len(r)]) {
				t.Fatalf("round-trip mismatch for %d-byte body", len(body))
			}
			if len(r) == len(rest) {
				t.Fatal("decode made no progress")
			}
			rest = r
		}
		// The streaming reader must agree with the datagram decoder on
		// whether the prefix holds a valid first frame — and never
		// allocate more than delivery-proportional memory.
		fr := NewReader(bytes.NewReader(data), limit)
		body, scratch, err := fr.Next(nil)
		if err == nil {
			first, _, derr := Decode(data, limit)
			if derr != nil {
				t.Fatalf("Next accepted what Decode rejects: %v", derr)
			}
			if !bytes.Equal(body, first) {
				t.Fatal("Next/Decode disagree on body")
			}
		}
		if cap(scratch) > len(data)+ReadChunk {
			t.Fatalf("Next allocated %d for %d input bytes", cap(scratch), len(data))
		}
	})
}
