package docstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"alarmverify/internal/frame"
)

// Per-partition write-ahead log.
//
// Every mutation a durable collection applies to a partition is
// appended — under that partition's write lock, so the log order IS
// the apply order — as one CRC-framed record written straight to the
// partition's WAL file (surviving a process kill). The fsync runs with
// no mutex held, as a group commit (walWriter.syncThrough): the
// database's group syncer runs one on a configurable cadence, so
// acknowledged writes can lose at most one sync interval to a machine
// crash, and in strict mode (SyncInterval < 0) each insert or delete
// waits for one covering its frames after it has released every
// partition lock, so concurrent strict writers share an fsync. No
// append waits on the disk, and a reader may see a row before its
// fsync completes.
//
// Every record is one frame of internal/frame, the format the broker
// wire uses too: a little-endian payload length, the payload's CRC-32
// (IEEE), the payload, bounded here by walMaxFrame. A payload is either
// a row frame (first byte frameRows) — the insert path, and every frame
// of a snapshot — or a JSON walOp (first byte '{') for the one
// filter-shaped mutation, the retention delete. A row frame is
//
//	frameRows
//	uvarint ndefs, then per def: uvarint slot, uvarint len, field name
//	uvarint nrows, then per row:  uvarint id, uvarint ncells, then per
//	cell: uvarint slot, kind byte, value
//
// with values by kind: string (1) = uvarint len + bytes; float64 (2) =
// 8 bytes; int64 (3) and int (4) = zigzag varint. The kind bytes keep
// the values older builds wrote; their bool (5) and boxed (6) kinds
// are retired, and replay refuses them. The defs are the
// field-dictionary delta: a writer names a slot in the first frame
// that uses it, so every log and snapshot file is self-describing, and
// a reader maps file slots to its own dictionary by name.
//
// A torn tail — a partial frame after a crash, an empty one, one longer
// than walMaxFrame, or any frame whose CRC does not match — ends replay
// at the last valid frame boundary (frame.Scan), and recovery truncates
// the file there so the appender continues cleanly. A CRC-valid frame
// the store refuses — an op it does not write, a cell of a retired kind
// or of another kind than its field holds — fails recovery instead.

// walMaxFrame bounds a single WAL frame's payload: a longer one is
// refused on write, and a corrupt length header reads as a torn tail.
const walMaxFrame = 64 << 20

// frameRows tags a row-frame payload.
const frameRows = 0x01

// walOp is one logged delete, a conjunction of comparisons:
// {"op":"del","filter":{"<field>":{"<op>":<number|string>}}}.
type walOp struct {
	// Op is "del". Replay refuses any other op (partition.applyLocked).
	Op     string                    `json:"op"`
	Filter map[string]map[string]any `json:"filter"`
}

// delOp is the logged form of a delete on conds.
func delOp(conds []Cond) walOp {
	op := walOp{Op: "del", Filter: make(map[string]map[string]any, len(conds))}
	for _, c := range conds {
		if op.Filter[c.Field] == nil {
			op.Filter[c.Field] = make(map[string]any, 1)
		}
		op.Filter[c.Field][c.Op] = c.Value.value()
	}
	return op
}

// conds parses a logged delete's filter back into conditions; any
// other shape than delOp writes is errBadFrame.
func (op walOp) conds() ([]Cond, error) {
	var conds []Cond
	for field, cmps := range op.Filter {
		for cmp, v := range cmps {
			var c Cell
			switch t := v.(type) {
			case float64:
				c = Float(t)
			case string:
				c = String(t)
			default:
				return nil, fmt.Errorf("%w: wal del: %s %s %v", errBadFrame, field, cmp, v)
			}
			switch cmp {
			case "$eq", "$gt", "$gte", "$lt", "$lte":
			default:
				return nil, fmt.Errorf("%w: wal del: operator %q", errBadFrame, cmp)
			}
			conds = append(conds, Cond{Field: field, Op: cmp, Value: c})
		}
	}
	if len(conds) == 0 {
		return nil, fmt.Errorf("%w: wal del: no condition", errBadFrame)
	}
	return conds, nil
}

// walWriter appends frames to one partition's WAL file and fsyncs them
// in groups.
type walWriter struct {
	f     *os.File
	onErr func(error) // sticky-error sink (durableDB.noteErr)
	enc   rowEncoder  // guarded by the owning partition's write lock

	// prev is the writer a checkpoint rotated out for this one, until
	// its close has fsynced it: a sync of this log covers it too.
	prev atomic.Pointer[walWriter]

	mu      sync.Mutex
	cond    sync.Cond // on mu: an fsync finished
	written uint64    // frames written to f
	synced  uint64    // frames an fsync has covered
	syncing bool      // a leader is in f.Sync, with mu released
	closed  bool      // set by close(); makes a late sync a no-op
	// syncHook, when set, runs in the leader just before f.Sync (tests
	// stall the disk with it).
	syncHook func()
}

// openWALWriter opens (or creates) the log at path for appending, with
// a fresh 64 KB frame buffer.
func openWALWriter(path string, dict *fieldDict, onErr func(error)) (*walWriter, error) {
	f, err := openWALFile(path)
	if err != nil {
		return nil, err
	}
	return newWALWriter(f, dict, make([]byte, 0, 64<<10), onErr), nil
}

// openWALFile opens (or creates) a log file for appending.
func openWALFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: open wal: %w", err)
	}
	return f, nil
}

// newWALWriter makes the writer of an open log. buf is its frame
// buffer: a fresh one, or the one a rotated-out writer grew. What a
// file names is its own, so named starts empty; it and defs are sized
// from the field dictionary — at least 16 slots, since a new
// collection's dictionary holds little more than its shard key — so
// the encoder does not regrow them as the file defines its fields.
func newWALWriter(f *os.File, dict *fieldDict, buf []byte, onErr func(error)) *walWriter {
	n := max(len(dict.fieldNames()), 16)
	w := &walWriter{f: f, onErr: onErr, enc: rowEncoder{
		named: make([]bool, 0, n),
		defs:  make([]int, 0, n),
		buf:   buf[:0],
	}}
	w.cond.L = &w.mu
	return w
}

// appendOp frames and appends one operation and returns its sequence
// number for syncThrough. Failures are reported to the sticky-error
// sink — the mutation itself has already been applied in memory, and
// the store's write API is errorless by design; Sync, Checkpoint and
// Close surface the first failure.
func (w *walWriter) appendOp(op walOp) uint64 {
	payload, err := json.Marshal(op)
	var f []byte
	if err == nil {
		f, err = frame.Append(nil, payload, walMaxFrame)
	}
	if err != nil {
		w.onErr(fmt.Errorf("docstore: wal marshal: %w", err))
		return 0
	}
	return w.writeFrame(f)
}

// rowEncoder assembles row frames for one file, remembering which
// slots the file already names. A frame is built in two passes over
// its rows — define each, then add each — between begin and finish.
type rowEncoder struct {
	named []bool // named[s]: an earlier frame, or this one, defines slot s
	defs  []int  // slots this frame defines
	buf   []byte
}

// define notes the slots a row uses that the file does not name yet.
//
//alarmvet:hotpath
func (e *rowEncoder) define(slots []int, cells []Cell) {
	for i, s := range slots {
		for len(e.named) <= s {
			e.named = append(e.named, false)
		}
		if cells[i].kind != kindAbsent && !e.named[s] {
			e.named[s] = true
			e.defs = append(e.defs, s)
		}
	}
}

// begin writes the frame's head: room for the frame header, tag, the
// definitions gathered by define, and the row count.
//
//alarmvet:hotpath
func (e *rowEncoder) begin(names []string, nrows int) {
	b := frame.Begin(e.buf[:0])
	b = append(b, frameRows)
	b = binary.AppendUvarint(b, uint64(len(e.defs)))
	for _, s := range e.defs {
		b = binary.AppendUvarint(b, uint64(s))
		b = binary.AppendUvarint(b, uint64(len(names[s])))
		b = append(b, names[s]...)
	}
	e.buf = binary.AppendUvarint(b, uint64(nrows))
}

// add writes one row.
//
//alarmvet:hotpath
func (e *rowEncoder) add(id int64, slots []int, cells []Cell) {
	b := binary.AppendUvarint(e.buf, uint64(id))
	n := 0
	for i := range cells {
		if cells[i].kind != kindAbsent {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i, c := range cells {
		if c.kind == kindAbsent {
			continue
		}
		b = binary.AppendUvarint(b, uint64(slots[i]))
		b = append(b, byte(c.kind))
		switch c.kind {
		case kindString:
			b = binary.AppendUvarint(b, uint64(len(c.str)))
			b = append(b, c.str...)
		case kindFloat:
			b = binary.LittleEndian.AppendUint64(b, c.num)
		default: // int64, int
			b = binary.AppendVarint(b, int64(c.num))
		}
	}
	e.buf = b
}

// finish seals the frame and returns it whole, valid until the next
// begin; a payload beyond walMaxFrame is refused.
//
//alarmvet:hotpath
func (e *rowEncoder) finish() ([]byte, error) {
	e.defs = e.defs[:0]
	return e.buf, frame.Seal(e.buf, walMaxFrame)
}

// appendRows logs one partition's share of an insert batch — the rows
// numbered by group, with ids base+i — as a single row frame, and
// returns its sequence number for syncThrough. Caller holds the
// partition's write lock, which also guards the encoder.
//
//alarmvet:hotpath
func (w *walWriter) appendRows(dict *fieldDict, rows *Rows, group []int32, base int64) uint64 {
	for _, i := range group {
		w.enc.define(rows.row(int(i)))
	}
	w.enc.begin(dict.fieldNames(), len(group))
	for _, i := range group {
		slots, cells := rows.row(int(i))
		w.enc.add(base+int64(i), slots, cells)
	}
	f, err := w.enc.finish()
	if err != nil {
		w.onErr(err)
		return 0
	}
	return w.writeFrame(f)
}

// rowDecoder reads the row frames of one file into the collection's
// own slots, by field name.
type rowDecoder struct {
	dict   *fieldDict
	slots  []int             // file slot → collection slot; -1 = not defined yet
	intern map[string]string // one string per distinct value, not one per cell
}

// errBadFrame marks a CRC-valid frame the store cannot apply. On its
// own it says the payload does not parse, and readFrames ends the scan
// there as at a torn tail; wrapped, it says what the frame asked for
// that the store refuses (a retired or unknown kind, a cell of another
// kind than its field holds, a delete of another shape than the store
// logs), and recovery fails.
var errBadFrame = errors.New("docstore: malformed frame")

// decode parses a row-frame payload into rows (ragged, ids set),
// replacing what rows held. Nothing is applied on error.
func (d *rowDecoder) decode(payload []byte, rows *Rows) error {
	rows.Reset()
	r := frame.NewCursor(payload[1:])
	for ndefs := r.Uvarint(); ndefs > 0 && !r.Failed(); ndefs-- {
		s, name := r.Uvarint(), d.str(&r)
		if s > 1<<20 || r.Failed() {
			return errBadFrame
		}
		for uint64(len(d.slots)) <= s {
			d.slots = append(d.slots, -1)
		}
		d.slots[s] = d.dict.slot(name)
	}
	for nrows := r.Uvarint(); nrows > 0 && !r.Failed(); nrows-- {
		rows.ids = append(rows.ids, int64(r.Uvarint()))
		for ncells := r.Uvarint(); ncells > 0 && !r.Failed(); ncells-- {
			s := r.Uvarint()
			if s >= uint64(len(d.slots)) || d.slots[s] < 0 {
				return errBadFrame
			}
			var c Cell
			switch k := kind(r.Byte()); {
			case r.Failed():
				return errBadFrame
			case k == kindString:
				c = String(d.str(&r))
			case k == kindFloat:
				c = Cell{kind: kindFloat, num: r.Uint64()}
			case k == kindInt64 || k == kindInt:
				c = Cell{kind: k, num: uint64(r.Varint())}
				if r.Failed() {
					return errBadFrame
				}
			default:
				return fmt.Errorf("%w: field %q: a cell of %s", errBadFrame, d.dict.fieldNames()[d.slots[s]], k)
			}
			for _, prev := range rows.slots[rows.off[rows.n]:] {
				if prev == d.slots[s] {
					return errBadFrame // a row holds a field once
				}
			}
			rows.slots = append(rows.slots, d.slots[s])
			rows.cells = append(rows.cells, c)
		}
		rows.off = append(rows.off, int32(len(rows.cells)))
		rows.n++
	}
	if !r.Done() {
		return errBadFrame
	}
	return nil
}

// str reads a string, one string per distinct value, not one per cell.
func (d *rowDecoder) str(r *frame.Cursor) string {
	raw := r.Bytes()
	if s, ok := d.intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	if len(d.intern) < 1<<16 {
		d.intern[s] = s
	}
	return s
}

// writeFrame writes one sealed frame to the file and returns its
// sequence number: the file holds it when writeFrame returns, an fsync
// covers it once syncThrough of that number returns. Caller holds the
// partition's write lock, so frames are numbered in apply order.
//
//alarmvet:hotpath
func (w *walWriter) writeFrame(f []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(f); err != nil {
		w.onErr(fmt.Errorf("docstore: wal append: %w", err)) //alarmvet:ignore error path: the write just failed, latency no longer matters
		return w.written
	}
	w.written++
	return w.written
}

// syncThrough returns once an fsync that started after frame seq was
// written has completed (a seq past the frames written stands for all
// of them), or the writer is closed. The caller that finds no fsync
// running leads one for every frame written so far, with no lock held;
// the others wait for it, then lead the next one if it did not cover
// them. An fsync failure is returned to the leader only; a follower it
// leaves uncovered retries.
func (w *walWriter) syncThrough(seq uint64) error {
	w.mu.Lock()
	for w.synced < min(seq, w.written) && !w.closed {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		target, hook := w.written, w.syncHook
		w.syncing = true
		w.mu.Unlock()
		if hook != nil {
			hook()
		}
		err := w.f.Sync()
		w.mu.Lock()
		w.syncing = false
		w.cond.Broadcast()
		if err != nil {
			w.mu.Unlock()
			return fmt.Errorf("docstore: wal fsync: %w", err)
		}
		w.synced = target
	}
	w.mu.Unlock()
	return nil
}

// sync fsyncs every frame written so far — and the rotated-out log
// this one follows, if its close is still under way. A writer with
// nothing new, or one already closed, costs a lock round-trip.
func (w *walWriter) sync() error {
	if prev := w.prev.Load(); prev != nil {
		if err := prev.sync(); err != nil {
			return err
		}
	}
	return w.syncThrough(math.MaxUint64)
}

// awaitSynced waits, with no lock held, until an fsync covers each
// mark's frame: how a strict-mode insert or delete acknowledges.
func awaitSynced(marks []walMark) {
	for _, m := range marks {
		if err := m.w.syncThrough(m.seq); err != nil {
			m.w.onErr(err)
		}
	}
}

// walMark names one frame a strict-mode write waits to see fsynced.
type walMark struct {
	w   *walWriter
	seq uint64
}

// close fsyncs and closes the file, after any fsync in flight. Its
// callers have stopped the log's appends first: DB.Close's writers are
// done, and a checkpoint has moved them to the next log. Idempotent.
func (w *walWriter) close() error {
	err := w.syncThrough(math.MaxUint64)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr // an fsync failure supersedes; the file is abandoned
	}
	return err
}

// readFrames feeds every complete, CRC-valid frame payload of a file
// to fn, in order, and returns the byte offset up to which the file is
// valid. A missing file is an empty log. A torn or corrupt tail — or a
// payload fn rejects with errBadFrame itself, one that does not parse —
// ends the scan at the last valid frame; the caller
// truncates (a log) or refuses (a snapshot). Any other error from fn,
// errBadFrame wrapped included, or from reading the file aborts the
// read. The payload is only valid during the call.
func readFrames(path string, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("docstore: read %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	valid, err := frame.Scan(bufio.NewReaderSize(f, 256<<10), walMaxFrame, fn)
	if err == errBadFrame {
		err = nil // CRC-valid but unparseable: treat as torn
	}
	return valid, err
}
