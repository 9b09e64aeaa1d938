package codec

import (
	"fmt"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"alarmverify/internal/alarm"
)

// Scratch is the caller-owned decode state for the allocation-free
// unmarshal path. It is not safe for concurrent use: give each decode
// goroutine its own Scratch (the pipeline keeps one per shard, used
// only by that shard's single intake goroutine).
type Scratch struct {
	strings *Interner
}

// NewScratch returns a Scratch with a default-bounded string interner.
func NewScratch() *Scratch {
	return &Scratch{strings: NewInterner(0)}
}

// Interner deduplicates the low-cardinality string fields of the alarm
// stream (device addresses, ZIP hashes, sensor types, software
// versions): every later sighting of a value returns the retained copy
// without allocating, and a first sighting is copied into the current
// append-only byte chunk, so a chunk's allocation pays for hundreds of
// them. A retained string is a view of its chunk's bytes, which are
// never rewritten, and never of the input, so it may outlive any
// record it was read from. The table is bounded; once full, unseen
// values fall back to plain copies so a high-cardinality field cannot
// grow the table without bound.
type Interner struct {
	m     map[string]string
	max   int
	chunk []byte // the current chunk: its bytes up to len are handed out
}

// internChunk is the size of an interner's byte chunks; a value longer
// than a chunk gets a plain copy of its own.
const internChunk = 16 << 10

// NewInterner creates an interner bounded to max retained strings;
// max <= 0 selects the 4096 default.
func NewInterner(max int) *Interner {
	if max <= 0 {
		max = 4096
	}
	return &Interner{m: make(map[string]string), max: max}
}

// Intern returns a string equal to b, reusing a previously retained
// copy when one exists. The lookup compiles to a no-allocation map
// probe; a first sighting (while the table has room) allocates only
// when it opens a chunk.
//
//alarmvet:hotpath
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= in.max {
		return string(b)
	}
	s := in.retain(b)
	in.m[s] = s
	return s
}

// retain copies b to the end of the current chunk — into a fresh one
// when it does not fit — and returns the copy.
func (in *Interner) retain(b []byte) string {
	if len(b) == 0 || len(b) > internChunk {
		return string(b)
	}
	if cap(in.chunk)-len(in.chunk) < len(b) {
		in.newChunk()
	}
	at := len(in.chunk)
	in.chunk = append(in.chunk, b...) // within capacity: earlier views stay put
	return unsafe.String(&in.chunk[at], len(b))
}

// newChunk starts the next chunk; the last one stays alive for as long
// as a string retained from it does.
func (in *Interner) newChunk() { in.chunk = make([]byte, 0, internChunk) }

// UnmarshalScratch parses data into a with FastCodec's scanner: one
// pass over the Fig. 11 key set that writes each field into a as it
// reads it. Numbers parse through a non-retaining view of the input
// (strconv does not keep its argument) and enum names match in place.
// With a Scratch, the string fields intern through its Interner, and
// Payload — freeform padding no stage reads — is not copied at all but
// left a view of data: it is valid for as long as data is, and a copy
// of the alarm that may outlive data must drop it. So a record whose
// field values have been seen before decodes with zero heap
// allocations. A nil Scratch copies every string, Payload included.
// A record it rejects may leave a partly written: the pipeline drops
// such a slot, and Unmarshal decodes into a temporary instead.
func (FastCodec) UnmarshalScratch(data []byte, a *alarm.Alarm, sc *Scratch) error {
	var in *Interner
	if sc != nil {
		in = sc.strings
	}
	p := parser{buf: data}
	typeName, objectName, err := p.record(a, in)
	if err != nil {
		return fmt.Errorf("codec: fast unmarshal: %w", err)
	}
	a.Type, a.ObjectType, err = parseEnums(viewString(typeName), viewString(objectName))
	return err
}

// parser is FastCodec's single-pass JSON scanner, specialized for the
// flat wire object.
type parser struct {
	buf []byte
	pos int
}

// record scans one wire object into a and returns the last alarmType
// and objectType names it read, for the caller to map once the whole
// record has scanned: a syntax error anywhere wins over an unknown
// name, and of duplicate keys the last one counts.
func (p *parser) record(a *alarm.Alarm, in *Interner) (typeName, objectName []byte, err error) {
	// An absent "ts" decodes as the epoch, not the zero time, as it
	// does through ReflectCodec.
	*a = alarm.Alarm{Timestamp: time.UnixMilli(0).UTC()}
	p.ws()
	if err := p.expect('{'); err != nil {
		return nil, nil, err
	}
	p.ws()
	if p.peek() == '}' {
		p.pos++
		return nil, nil, nil
	}
	for {
		p.ws()
		// rawString hands back decoded key bytes whether or not the key
		// was escaped, so `"\u0069d"` dispatches like `"id"`.
		key, err := p.rawString()
		if err != nil {
			return nil, nil, err
		}
		p.ws()
		if err := p.expect(':'); err != nil {
			return nil, nil, err
		}
		p.ws()
		if err := p.field(key, a, in, &typeName, &objectName); err != nil {
			return nil, nil, err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return typeName, objectName, nil
		default:
			return nil, nil, fmt.Errorf("unexpected byte %q at %d", p.peek(), p.pos)
		}
	}
}

// field scans the value of key into its field of a; an enum's name
// goes to typeName or objectName unmapped, and an unknown key's value
// is skipped so newer producers stay compatible with older consumers.
func (p *parser) field(key []byte, a *alarm.Alarm, in *Interner, typeName, objectName *[]byte) (err error) {
	switch string(key) { // compiles to allocation-free comparisons
	case "id":
		a.ID, err = p.integer()
	case "ts":
		var ms int64
		ms, err = p.integer()
		a.Timestamp = time.UnixMilli(ms).UTC()
	case "duration":
		a.Duration, err = p.number()
	case "deviceMac":
		a.DeviceMAC, err = p.internString(in)
	case "deviceIp":
		a.DeviceIP, err = p.internString(in)
	case "zip":
		a.ZIP, err = p.internString(in)
	case "alarmType":
		*typeName, err = p.rawString()
	case "objectType":
		*objectName, err = p.rawString()
	case "sensorType":
		a.SensorType, err = p.internString(in)
	case "softwareVersion":
		a.SoftwareVersion, err = p.internString(in)
	case "payload":
		// Payload is freeform data, not a low-cardinality enum-like
		// field; interning it would only churn the table. With a
		// Scratch it stays where it is: a view of the record, or of the
		// bytes rawString decoded its escapes into, which nothing else
		// refers to.
		var b []byte
		b, err = p.rawString()
		if in == nil {
			a.Payload = string(b)
		} else {
			a.Payload = viewString(b)
		}
	default:
		err = p.skip()
	}
	return err
}

func (p *parser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

func (p *parser) expect(c byte) error {
	if p.pos >= len(p.buf) || p.buf[p.pos] != c {
		return fmt.Errorf("expected %q at %d", c, p.pos)
	}
	p.pos++
	return nil
}

// rawString scans a JSON string and returns its contents as bytes: a
// view into the input when the string has no escapes (the hot path),
// or freshly decoded bytes otherwise. A view must not outlive the
// input buffer.
func (p *parser) rawString() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if c == '"' {
			b := p.buf[start:p.pos]
			p.pos++
			return b, nil
		}
		if c == '\\' {
			return p.escapedBytes(start)
		}
		p.pos++
	}
	return nil, fmt.Errorf("unterminated string at %d", start)
}

// internString scans a JSON string and interns its contents; a nil
// interner copies them.
func (p *parser) internString(in *Interner) (string, error) {
	b, err := p.rawString()
	if err != nil {
		return "", err
	}
	return in.Intern(b), nil
}

// integer parses an integer without allocating: the digits are handed
// to strconv through a non-retaining view. Only the error path
// re-parses from a stable copy (so the returned error cannot alias a
// buffer the caller later reuses).
func (p *parser) integer() (int64, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected integer at %d", start)
	}
	seg := p.buf[start:p.pos]
	n, err := strconv.ParseInt(viewString(seg), 10, 64)
	if err != nil {
		return strconv.ParseInt(string(seg), 10, 64)
	}
	return n, nil
}

// number parses a float without allocating, the same way integer
// parses an integer.
func (p *parser) number() (float64, error) {
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
			c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected number at %d", start)
	}
	seg := p.buf[start:p.pos]
	f, err := strconv.ParseFloat(viewString(seg), 64)
	if err != nil {
		return strconv.ParseFloat(string(seg), 64)
	}
	return f, nil
}

// escapedBytes decodes a string containing escapes into fresh bytes;
// start points at the first content byte of the string.
func (p *parser) escapedBytes(start int) ([]byte, error) {
	out := append([]byte(nil), p.buf[start:p.pos]...)
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		switch {
		case c == '"':
			p.pos++
			return out, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.buf) {
				return nil, fmt.Errorf("truncated escape at %d", p.pos)
			}
			e := p.buf[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'u':
				r, err := p.unicodeEscape()
				if err != nil {
					return nil, err
				}
				var tmp [utf8.UTFMax]byte
				out = append(out, tmp[:utf8.EncodeRune(tmp[:], r)]...)
			default:
				return nil, fmt.Errorf("bad escape %q at %d", e, p.pos-1)
			}
		default:
			out = append(out, c)
			p.pos++
		}
	}
	return nil, fmt.Errorf("unterminated string")
}

func (p *parser) unicodeEscape() (rune, error) {
	r1, err := p.hex4()
	if err != nil {
		return 0, err
	}
	if utf16.IsSurrogate(rune(r1)) && p.pos+1 < len(p.buf) &&
		p.buf[p.pos] == '\\' && p.buf[p.pos+1] == 'u' {
		p.pos += 2
		r2, err := p.hex4()
		if err != nil {
			return 0, err
		}
		return utf16.DecodeRune(rune(r1), rune(r2)), nil
	}
	return rune(r1), nil
}

func (p *parser) hex4() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, fmt.Errorf("truncated \\u escape at %d", p.pos)
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := p.buf[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, fmt.Errorf("bad hex digit %q at %d", c, p.pos+i)
		}
	}
	p.pos += 4
	return v, nil
}

// skip consumes one arbitrary JSON value (used for unknown fields).
func (p *parser) skip() error {
	p.ws()
	switch c := p.peek(); {
	case c == '"':
		_, err := p.rawString()
		return err
	case c == '{' || c == '[':
		open, close := c, byte('}')
		if c == '[' {
			close = ']'
		}
		depth := 0
		for p.pos < len(p.buf) {
			switch p.buf[p.pos] {
			case '"':
				if _, err := p.rawString(); err != nil {
					return err
				}
				continue
			case open:
				depth++
			case close:
				depth--
				if depth == 0 {
					p.pos++
					return nil
				}
			}
			p.pos++
		}
		return fmt.Errorf("unterminated %q", open)
	default:
		for p.pos < len(p.buf) {
			c := p.buf[p.pos]
			if c == ',' || c == '}' || c == ']' || c == ' ' {
				return nil
			}
			p.pos++
		}
		return nil
	}
}

// viewString returns a string header over b without copying. The
// result must not be retained past b's lifetime; it is passed to
// non-retaining consumers (strconv parsing, enum-name comparison, map
// probes) and handed out once, as the decoded alarm's Payload.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
