package docstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Dump/Restore: collections serialize as JSON-lines streams (one
// document per line), the interchange format document stores
// conventionally use for backup and migration. Long-term alarm storage
// is the docstore's whole role in the pipeline (§4.2), so its contents
// must survive process restarts.

// dumpHeader is the first line of a dump, carrying collection
// metadata. The shard key travels with the dump so a restore into a
// fresh database reproduces the routing (the partition count itself
// is a property of the target database, not the dump).
type dumpHeader struct {
	Collection string   `json:"collection"`
	Count      int      `json:"count"`
	Indexes    []string `json:"indexes"`
	ShardKey   string   `json:"shardKey,omitempty"`
}

// restoreBatch is how many documents Restore buffers before handing
// them to InsertMany (one lock round-trip per partition per batch).
const restoreBatch = 256

// Wrapper keys that round-trip non-JSON-native value types through
// the JSON encodings the store still uses — dumps, and in the WAL the
// boxed cells and the update/delete frames — without loss: time.Time
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

// Dump writes the collection as a JSON-lines stream: a header line
// followed by one document per line, in insertion order (merged
// across partitions by id).
func (c *Collection) Dump(w io.Writer) error {
	all, err := c.Find(nil)
	if err != nil {
		return err
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	hdr := dumpHeader{
		Collection: c.name,
		Count:      len(all),
		Indexes:    c.Indexes(),
		ShardKey:   c.shardKey,
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, doc := range all {
		delete(doc, "_id") // ids are reassigned on restore
		if err := enc.Encode(encodeValue(doc)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Restore reads a Dump stream into the database, creating (or
// appending to) the collection named in the header — with the dumped
// shard key when one was set — and rebuilding its indexes. Documents
// are inserted in batches so each partition lock is taken once per
// batch. It returns the restored collection.
func (db *DB) Restore(r io.Reader) (*Collection, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	var hdr dumpHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("docstore: restore: bad header: %w", err)
	}
	if hdr.Collection == "" {
		return nil, fmt.Errorf("docstore: restore: header missing collection name")
	}
	var col *Collection
	var err error
	if hdr.ShardKey != "" {
		col, err = db.CollectionWithShardKey(hdr.Collection, hdr.ShardKey)
		if err != nil {
			return nil, fmt.Errorf("docstore: restore: %w", err)
		}
	} else {
		col = db.Collection(hdr.Collection)
	}
	for _, f := range hdr.Indexes {
		if err := col.CreateIndex(f); err != nil && !errors.Is(err, ErrIndexExists) {
			return nil, err
		}
	}
	n := 0
	batch := make([]Doc, 0, restoreBatch)
	for dec.More() {
		var raw map[string]any
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("docstore: restore: document %d: %w", n, err)
		}
		batch = append(batch, decodeValue(raw).(map[string]any))
		if len(batch) == restoreBatch {
			col.InsertMany(batch)
			batch = batch[:0]
		}
		n++
	}
	col.InsertMany(batch)
	if hdr.Count != n {
		return nil, fmt.Errorf("docstore: restore: header says %d documents, stream had %d", hdr.Count, n)
	}
	return col, nil
}
