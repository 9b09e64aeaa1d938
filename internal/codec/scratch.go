package codec

import (
	"fmt"
	"strconv"
	"time"
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

// Strings returns the scratch's interner (for occupancy inspection).
func (s *Scratch) Strings() *Interner { return s.strings }

// Interner deduplicates the low-cardinality string fields of the alarm
// stream (device addresses, ZIP hashes, sensor types, software
// versions): every later sighting of a value returns the retained copy
// without allocating, and a first sighting is copied into the current
// append-only byte chunk, so a chunk's allocation pays for hundreds of
// them. A retained string is a view of its chunk's bytes, which are
// never rewritten — not even by Reset, which starts a fresh chunk — and
// never of the input, so it may outlive any record it was read from.
// The table is bounded; once full, unseen values fall back to plain
// copies so a high-cardinality field cannot grow the table without
// bound.
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

// Len returns how many strings the interner currently retains.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	return len(in.m)
}

// Reset drops every retained string. The strings already handed out
// stay valid: the next first sighting opens a fresh chunk.
func (in *Interner) Reset() {
	if in != nil {
		clear(in.m)
		in.chunk = nil
	}
}

// UnmarshalScratch parses data into a exactly like Unmarshal — the
// decoded alarm is bit-identical — but routes string fields through
// the scratch's interner instead of allocating a fresh string per
// field, and hands Payload out as a view of data: it is valid for as
// long as data is, and a copy of the alarm that may outlive data must
// drop it. A nil scratch degrades to per-field copies, Payload
// included. It is a single-pass scan over the Fig. 11 key set that
// writes fields straight into a. Numbers
// parse through a non-retaining view of the input (strconv does not
// keep its argument), enum names match in place, and string fields
// intern through the scratch, and the payload — freeform padding no
// stage reads — is not copied at all but left a view of data. So a
// record whose field values have been seen before decodes with zero
// heap allocations, while the decoded alarm stays bit-identical to the
// copying Unmarshal path.
func (FastCodec) UnmarshalScratch(data []byte, a *alarm.Alarm, sc *Scratch) error {
	var in *Interner
	if sc != nil {
		in = sc.strings
	}
	p := parser{buf: data}
	if err := p.objectScratch(a, in); err != nil {
		return fmt.Errorf("codec: fast unmarshal: %w", err)
	}
	return nil
}

// objectScratch is the scratch-path twin of parser.object + fromWire.
// Enum validation is deferred to the end so that syntax errors win
// over unknown-name errors, matching the copying path's error order.
func (p *parser) objectScratch(a *alarm.Alarm, in *Interner) error {
	// The copying path always materializes the timestamp through
	// time.UnixMilli, so an absent "ts" decodes as the epoch, not the
	// zero time; start from the same state.
	*a = alarm.Alarm{Timestamp: time.UnixMilli(0).UTC()}
	// Absent enum fields must decode as the zero enum values, exactly
	// like a zero wireAlarm string matching nothing — but fromWire
	// rejects the empty name, so mirror that with "invalid unless the
	// empty name is what was written" semantics: track whether each
	// enum field parsed to a known name, defaulting to the same error
	// fromWire raises for a zero-valued wire struct.
	var badType, badObject []byte
	typeOK, objectOK := false, false
	p.ws()
	if err := p.expect('{'); err != nil {
		return err
	}
	p.ws()
	if p.peek() == '}' {
		p.pos++
		return p.enumErrors(badType, badObject, typeOK, objectOK)
	}
	for {
		p.ws()
		// rawString hands back decoded key bytes whether or not the key
		// was escaped, so `"id"` dispatches exactly like `"id"` —
		// matching the copying path.
		key, _, err := p.rawString()
		if err != nil {
			return err
		}
		p.ws()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.ws()
		if err := p.valueScratch(key, a, in, &badType, &badObject, &typeOK, &objectOK); err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return p.enumErrors(badType, badObject, typeOK, objectOK)
		default:
			return fmt.Errorf("unexpected byte %q at %d", p.peek(), p.pos)
		}
	}
}

// enumErrors reports the deferred unknown-enum errors in the same
// order fromWire checks them: alarm type first, then object type.
func (p *parser) enumErrors(badType, badObject []byte, typeOK, objectOK bool) error {
	if !typeOK {
		return fmt.Errorf("codec: unknown alarm type %q", string(badType))
	}
	if !objectOK {
		return fmt.Errorf("codec: unknown object type %q", string(badObject))
	}
	return nil
}

func (p *parser) valueScratch(key []byte, a *alarm.Alarm, in *Interner,
	badType, badObject *[]byte, typeOK, objectOK *bool) error {
	switch string(key) { // compiles to allocation-free comparisons
	case "id":
		n, err := p.intScratch()
		a.ID = n
		return err
	case "ts":
		n, err := p.intScratch()
		a.Timestamp = time.UnixMilli(n).UTC()
		return err
	case "duration":
		f, err := p.floatScratch()
		a.Duration = f
		return err
	case "deviceMac":
		s, err := p.internString(in)
		a.DeviceMAC = s
		return err
	case "deviceIp":
		s, err := p.internString(in)
		a.DeviceIP = s
		return err
	case "zip":
		s, err := p.internString(in)
		a.ZIP = s
		return err
	case "alarmType":
		b, _, err := p.rawString()
		if err != nil {
			return err
		}
		if t, ok := alarm.ParseType(viewString(b)); ok {
			a.Type = t
			*typeOK = true
		} else {
			*badType = b
			*typeOK = false
		}
		return nil
	case "objectType":
		b, _, err := p.rawString()
		if err != nil {
			return err
		}
		if o, ok := alarm.ParseObjectType(viewString(b)); ok {
			a.ObjectType = o
			*objectOK = true
		} else {
			*badObject = b
			*objectOK = false
		}
		return nil
	case "sensorType":
		s, err := p.internString(in)
		a.SensorType = s
		return err
	case "softwareVersion":
		s, err := p.internString(in)
		a.SoftwareVersion = s
		return err
	case "payload":
		// Payload is freeform data, not a low-cardinality enum-like
		// field; interning it would only churn the table. It stays where
		// it is: a view of the record, or of the bytes rawString decoded
		// its escapes into, which nothing else refers to.
		b, _, err := p.rawString()
		if err != nil {
			return err
		}
		if in == nil {
			a.Payload = string(b)
		} else {
			a.Payload = viewString(b)
		}
		return nil
	default:
		return p.skip()
	}
}

// rawString scans a JSON string and returns its contents as bytes: a
// view into the input when the string has no escapes (the hot path),
// or freshly decoded bytes otherwise. escaped reports which case
// occurred — views must not outlive the input buffer.
func (p *parser) rawString() ([]byte, bool, error) {
	if err := p.expect('"'); err != nil {
		return nil, false, err
	}
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if c == '"' {
			b := p.buf[start:p.pos]
			p.pos++
			return b, false, nil
		}
		if c == '\\' {
			b, err := p.escapedBytes(start)
			return b, true, err
		}
		p.pos++
	}
	return nil, false, fmt.Errorf("unterminated string at %d", start)
}

// internString scans a JSON string and interns its contents.
func (p *parser) internString(in *Interner) (string, error) {
	b, _, err := p.rawString()
	if err != nil {
		return "", err
	}
	return in.Intern(b), nil
}

// intScratch parses an integer without allocating: the digits are
// handed to strconv through a non-retaining view. Only the error path
// re-parses from a stable copy (so the returned error cannot alias a
// buffer the caller later reuses).
func (p *parser) intScratch() (int64, error) {
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

// floatScratch parses a float without allocating, mirroring
// parser.float byte for byte (strconv.ParseFloat guarantees the
// decoded value is bit-identical to the copying path's).
func (p *parser) floatScratch() (float64, error) {
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
