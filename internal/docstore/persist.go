package docstore

import (
	"strconv"
	"time"
)

// Wrapper keys that round-trip non-JSON-native value types through
// the JSON encodings the store still uses — the boxed cells of WAL and
// snapshot row frames, and the WAL's delete frames — without loss: time.Time
// would collapse into a string, and int/int64 would come back as
// float64. int64 travels as a decimal string so values beyond 2^53
// survive. (Typed row cells need none of this: wal.go.)
const (
	timeField  = "$time"
	int64Field = "$i64"
	intField   = "$int"
)

func encodeValue(v any) any {
	switch t := v.(type) {
	case time.Time:
		return map[string]any{timeField: t.Format(time.RFC3339Nano)}
	case int64:
		return map[string]any{int64Field: strconv.FormatInt(t, 10)}
	case int:
		return map[string]any{intField: strconv.Itoa(t)}
	case int32:
		return map[string]any{intField: strconv.FormatInt(int64(t), 10)}
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = encodeValue(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = encodeValue(e)
		}
		return out
	default:
		return v
	}
}

func decodeValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		if raw, ok := t[timeField].(string); ok && len(t) == 1 {
			if ts, err := time.Parse(time.RFC3339Nano, raw); err == nil {
				return ts
			}
		}
		if raw, ok := t[int64Field].(string); ok && len(t) == 1 {
			if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
				return n
			}
		}
		if raw, ok := t[intField].(string); ok && len(t) == 1 {
			if n, err := strconv.Atoi(raw); err == nil {
				return n
			}
		}
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = decodeValue(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = decodeValue(e)
		}
		return out
	default:
		return v
	}
}
