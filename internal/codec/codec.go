// Package codec provides the two alarm wire-format serializers the
// paper compares in §5.5.2 / Figure 11.
//
// The paper's producer/consumer pair was initially bottlenecked by the
// Jackson JSON serializer; switching to Gson roughly doubled producer
// throughput for the <1 KB alarm objects. We reproduce the contrast
// with two codecs over the same JSON wire format:
//
//   - ReflectCodec — drives encoding/json, i.e. the generic,
//     reflection-based path (the "Jackson" analog).
//   - FastCodec — a hand-rolled, schema-specialized marshaller and a
//     single-pass scanner over the known key set (the "Gson" analog).
//
// FastCodec has one scanner (scratch.go). Serving runs it through
// UnmarshalScratch with a per-shard Scratch, which interns the string
// fields and leaves Payload a view of the record; Unmarshal runs it
// with no Scratch, so every string is a copy. The package's tests hold
// it to a plain recursive-descent reference parser that lives in a
// test file.
//
// Both codecs produce interchangeable JSON: bytes written by one codec
// can be read back by the other.
package codec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"alarmverify/internal/alarm"
)

// Codec serializes alarms to and from their wire format.
type Codec interface {
	// Name identifies the codec in benchmark output.
	Name() string
	// Marshal appends the wire form of a to dst and returns the
	// extended slice.
	Marshal(dst []byte, a *alarm.Alarm) ([]byte, error)
	// Unmarshal parses data into a, overwriting all fields. A record
	// it rejects leaves a as it was.
	Unmarshal(data []byte, a *alarm.Alarm) error
}

// wireAlarm is the JSON shape shared by both codecs. Enumerated fields
// travel as their canonical names so that the payload is
// self-describing across software versions (§4.3: alarm structure
// differs across sensor types and updates).
type wireAlarm struct {
	ID              int64   `json:"id"`
	DeviceMAC       string  `json:"deviceMac"`
	DeviceIP        string  `json:"deviceIp"`
	ZIP             string  `json:"zip"`
	TimestampUnixMS int64   `json:"ts"`
	Duration        float64 `json:"duration"`
	Type            string  `json:"alarmType"`
	ObjectType      string  `json:"objectType"`
	SensorType      string  `json:"sensorType"`
	SoftwareVersion string  `json:"softwareVersion"`
	Payload         string  `json:"payload,omitempty"`
}

// ReflectCodec serializes via encoding/json. It is correct for any
// field set but pays reflection and interface costs per message — the
// behaviour the paper observed with Jackson on small objects.
type ReflectCodec struct{}

// Name implements Codec.
func (ReflectCodec) Name() string { return "reflect" }

// Marshal implements Codec.
func (ReflectCodec) Marshal(dst []byte, a *alarm.Alarm) ([]byte, error) {
	w := wireAlarm{
		ID:              a.ID,
		DeviceMAC:       a.DeviceMAC,
		DeviceIP:        a.DeviceIP,
		ZIP:             a.ZIP,
		TimestampUnixMS: a.Timestamp.UnixMilli(),
		Duration:        a.Duration,
		Type:            a.Type.String(),
		ObjectType:      a.ObjectType.String(),
		SensorType:      a.SensorType,
		SoftwareVersion: a.SoftwareVersion,
		Payload:         a.Payload,
	}
	b, err := json.Marshal(w)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// Unmarshal implements Codec.
func (ReflectCodec) Unmarshal(data []byte, a *alarm.Alarm) error {
	var w wireAlarm
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	return fromWire(&w, a)
}

func fromWire(w *wireAlarm, a *alarm.Alarm) error {
	t, o, err := parseEnums(w.Type, w.ObjectType)
	if err != nil {
		return err
	}
	a.ID = w.ID
	a.DeviceMAC = w.DeviceMAC
	a.DeviceIP = w.DeviceIP
	a.ZIP = w.ZIP
	a.Timestamp = time.UnixMilli(w.TimestampUnixMS).UTC()
	a.Duration = w.Duration
	a.Type = t
	a.ObjectType = o
	a.SensorType = w.SensorType
	a.SoftwareVersion = w.SoftwareVersion
	a.Payload = w.Payload
	return nil
}

// parseEnums maps the wire names of the two enumerated fields, alarm
// type first; both codecs reject an unknown name, the empty name an
// absent field decodes to included, with the same error text.
func parseEnums(typeName, objectName string) (alarm.Type, alarm.ObjectType, error) {
	t, ok := alarm.ParseType(typeName)
	if !ok {
		return 0, 0, fmt.Errorf("codec: unknown alarm type %q", typeName)
	}
	o, ok := alarm.ParseObjectType(objectName)
	if !ok {
		return 0, 0, fmt.Errorf("codec: unknown object type %q", objectName)
	}
	return t, o, nil
}

// FastCodec is the schema-specialized serializer. Marshal writes JSON
// directly into the destination buffer; Unmarshal and UnmarshalScratch
// run one single-pass scanner over the known key set. Neither
// allocates beyond the output strings themselves.
type FastCodec struct{}

// Name implements Codec.
func (FastCodec) Name() string { return "fast" }

// Marshal implements Codec.
func (FastCodec) Marshal(dst []byte, a *alarm.Alarm) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, a.ID, 10)
	dst = append(dst, `,"deviceMac":`...)
	dst = appendJSONString(dst, a.DeviceMAC)
	dst = append(dst, `,"deviceIp":`...)
	dst = appendJSONString(dst, a.DeviceIP)
	dst = append(dst, `,"zip":`...)
	dst = appendJSONString(dst, a.ZIP)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, a.Timestamp.UnixMilli(), 10)
	dst = append(dst, `,"duration":`...)
	dst = strconv.AppendFloat(dst, a.Duration, 'g', -1, 64)
	dst = append(dst, `,"alarmType":`...)
	dst = appendJSONString(dst, a.Type.String())
	dst = append(dst, `,"objectType":`...)
	dst = appendJSONString(dst, a.ObjectType.String())
	dst = append(dst, `,"sensorType":`...)
	dst = appendJSONString(dst, a.SensorType)
	dst = append(dst, `,"softwareVersion":`...)
	dst = appendJSONString(dst, a.SoftwareVersion)
	if a.Payload != "" {
		dst = append(dst, `,"payload":`...)
		dst = appendJSONString(dst, a.Payload)
	}
	dst = append(dst, '}')
	return dst, nil
}

// Unmarshal implements Codec. It runs UnmarshalScratch without a
// Scratch, so every string field is a copy, Payload included, and
// writes a only once the record has been accepted.
func (c FastCodec) Unmarshal(data []byte, a *alarm.Alarm) error {
	var tmp alarm.Alarm
	if err := c.UnmarshalScratch(data, &tmp, nil); err != nil {
		return err
	}
	*a = tmp
	return nil
}

// appendJSONString appends s as a quoted JSON string, escaping the
// characters JSON requires.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0',
				hexDigit(c>>4), hexDigit(c&0xf))
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}
