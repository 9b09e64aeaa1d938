package codec

import (
	"fmt"
	"strconv"

	"alarmverify/internal/alarm"
)

// referenceUnmarshal is the test reference for FastCodec's scanner: a
// plain recursive-descent parse into the string-typed wireAlarm, every
// string a fresh copy, then the same enum mapping ReflectCodec uses.
// It is simple enough to trust by reading; the equivalence tests and
// FuzzDecode hold UnmarshalScratch to it, with and without a Scratch.
func referenceUnmarshal(data []byte, a *alarm.Alarm) error {
	var w wireAlarm
	p := parser{buf: data}
	if err := p.object(&w); err != nil {
		return fmt.Errorf("codec: fast unmarshal: %w", err)
	}
	return fromWire(&w, a)
}

func (p *parser) object(w *wireAlarm) error {
	p.ws()
	if err := p.expect('{'); err != nil {
		return err
	}
	p.ws()
	if p.peek() == '}' {
		p.pos++
		return nil
	}
	for {
		p.ws()
		key, err := p.string()
		if err != nil {
			return err
		}
		p.ws()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.ws()
		if err := p.value(key, w); err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return fmt.Errorf("unexpected byte %q at %d", p.peek(), p.pos)
		}
	}
}

func (p *parser) value(key string, w *wireAlarm) error {
	switch key {
	case "id":
		n, err := p.int()
		w.ID = n
		return err
	case "ts":
		n, err := p.int()
		w.TimestampUnixMS = n
		return err
	case "duration":
		f, err := p.float()
		w.Duration = f
		return err
	case "deviceMac":
		s, err := p.string()
		w.DeviceMAC = s
		return err
	case "deviceIp":
		s, err := p.string()
		w.DeviceIP = s
		return err
	case "zip":
		s, err := p.string()
		w.ZIP = s
		return err
	case "alarmType":
		s, err := p.string()
		w.Type = s
		return err
	case "objectType":
		s, err := p.string()
		w.ObjectType = s
		return err
	case "sensorType":
		s, err := p.string()
		w.SensorType = s
		return err
	case "softwareVersion":
		s, err := p.string()
		w.SoftwareVersion = s
		return err
	case "payload":
		s, err := p.string()
		w.Payload = s
		return err
	default:
		// Unknown field: skip its value so newer producers stay
		// compatible with older consumers.
		return p.skip()
	}
}

func (p *parser) int() (int64, error) {
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
	return strconv.ParseInt(string(p.buf[start:p.pos]), 10, 64)
}

func (p *parser) float() (float64, error) {
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
	return strconv.ParseFloat(string(p.buf[start:p.pos]), 64)
}

func (p *parser) string() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if c == '"' {
			s := string(p.buf[start:p.pos])
			p.pos++
			return s, nil
		}
		if c == '\\' {
			return p.escapedString(start)
		}
		p.pos++
	}
	return "", fmt.Errorf("unterminated string at %d", start)
}

// escapedString handles the slow path once the first backslash is
// seen; start points at the first content byte of the string.
func (p *parser) escapedString(start int) (string, error) {
	b, err := p.escapedBytes(start)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
