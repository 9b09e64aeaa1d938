package netbroker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"

	"alarmverify/internal/frame"
)

func TestFrameRoundtrip(t *testing.T) {
	bodies := [][]byte{
		nil,
		{},
		{0x01},
		[]byte("hello framed world"),
		bytes.Repeat([]byte{0xAB}, 300<<10), // spans multiple read chunks
	}
	var buf []byte
	for _, body := range bodies {
		var err error
		buf, err = AppendFrame(buf, body)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	rest := buf
	for i, body := range bodies {
		got, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("frame %d: body mismatch (%d vs %d bytes)", i, len(got), len(body))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
}

// countingReader counts the Read calls that reach its reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReadStream reads frames back off a stream however its bytes
// arrive: a frame larger than one read chunk, two frames in one read
// (the second comes from the bytes carried past the first, with no read
// of its own), and a frame delivered one byte at a time.
func TestFrameReadStream(t *testing.T) {
	pattern := make([]byte, 5000)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	cases := []struct {
		name   string
		bodies [][]byte
		reader func([]byte) io.Reader
		reads  int // Read calls the frames may take, 0 for any
	}{
		{"a frame spanning read chunks", [][]byte{[]byte("one"), bytes.Repeat([]byte{7}, 512<<10), []byte("three")},
			func(b []byte) io.Reader { return bytes.NewReader(b) }, 0},
		{"two frames in one read", [][]byte{[]byte("one"), []byte("two")},
			func(b []byte) io.Reader { return bytes.NewReader(b) }, 1},
		{"one byte at a time", [][]byte{pattern, []byte("tail")},
			func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var wire []byte
			for _, b := range c.bodies {
				var err error
				if wire, err = AppendFrame(wire, b); err != nil {
					t.Fatal(err)
				}
			}
			r := &countingReader{r: c.reader(wire)}
			fr := frame.NewReader(r, MaxFrame)
			var scratch []byte
			for i, want := range c.bodies {
				body, s, err := fr.Next(scratch)
				scratch = s
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("frame %d: mismatch", i)
				}
			}
			if c.reads > 0 && r.reads != c.reads {
				t.Fatalf("%d frames took %d reads, want %d", len(c.bodies), r.reads, c.reads)
			}
			if _, _, err := fr.Next(scratch); err != io.EOF {
				t.Fatalf("want EOF, got %v", err)
			}
		})
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	wire, err := AppendFrame(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Torn: every strict prefix must report truncation.
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeFrame(wire[:cut]); !errors.Is(err, frame.ErrTruncated) {
			t.Fatalf("cut %d: want frame.ErrTruncated, got %v", cut, err)
		}
	}
	// Corrupt body: CRC must catch any single-byte flip in the body.
	for i := frame.HeaderLen; i < len(wire); i++ {
		bad := bytes.Clone(wire)
		bad[i] ^= 0xFF
		if _, _, err := DecodeFrame(bad); !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("flip %d: want frame.ErrCorrupt, got %v", i, err)
		}
	}
	// Oversized length prefix.
	huge := bytes.Clone(wire)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrame+1)
	if _, _, err := DecodeFrame(huge); !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("want frame.ErrTooLarge, got %v", err)
	}
	if _, err := AppendFrame(nil, make([]byte, MaxFrame+1)); !errors.Is(err, frame.ErrTooLarge) {
		t.Fatalf("encode oversized: want frame.ErrTooLarge, got %v", err)
	}
}

// TestReadFrameCarryIntoFreshBuffer: frames a large buffer's one read
// delivered ahead are carried into the next calls' fresh buffers whole,
// though the carry outgrows both minRead and the next frame.
func TestReadFrameCarryIntoFreshBuffer(t *testing.T) {
	var wire []byte
	var bodies [][]byte
	for i := 0; i < 200; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 100+i)
		bodies = append(bodies, body)
		var err error
		if wire, err = AppendFrame(wire, body); err != nil {
			t.Fatal(err)
		}
	}
	fr := frame.NewReader(bytes.NewReader(wire), MaxFrame)
	buf := make([]byte, 64<<10)
	for i, want := range bodies {
		body, _, err := fr.Next(buf)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(body), err)
		}
		buf = nil // every later frame into a fresh buffer
	}
	if _, _, err := fr.Next(nil); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestReadFrameHostileLength proves the anti-ballooning property: a
// length prefix claiming MaxFrame with only a few bytes behind it must
// error out after at most one chunk of allocation, not reserve 16MB.
func TestReadFrameHostileLength(t *testing.T) {
	var hdr [frame.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxFrame) // claims 16MB
	wire := append(hdr[:], []byte("tiny")...)
	fr := frame.NewReader(bytes.NewReader(wire), MaxFrame)
	body, scratch, err := fr.Next(nil)
	if err == nil {
		t.Fatalf("want error, got %d-byte body", len(body))
	}
	if cap(scratch) > frame.ReadChunk {
		t.Fatalf("hostile length allocated %d bytes (> one %d chunk)", cap(scratch), frame.ReadChunk)
	}
}

func TestReadFrameCorruptOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		frame, _ := AppendFrame(nil, []byte("good payload"))
		frame[len(frame)-1] ^= 0x01 // corrupt in flight
		c.Write(frame)
		c.Close()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := frame.NewReader(c, MaxFrame)
	if _, _, err := fr.Next(nil); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("want frame.ErrCorrupt, got %v", err)
	}
}
