package docstore

import (
	"math"
	"strings"
	"sync"
	"time"
)

// Typed rows.
//
// A partition does not store documents: it stores rows. The collection
// keeps a field dictionary (name → slot, grown the first time a name
// is seen, so the schema stays as flexible as the paper needs), and
// each partition keeps an id column plus one column per slot, typed by
// what the slot has held so far — string, float64, int64, int (a kind
// of its own) or bool, in fixed chunks that are never copied (lane), a
// presence bitmap from the first gap on. The first time a slot sees
// anything else (nil, time.Time, a nested map or slice, a narrower
// numeric type) or a second kind, its column is promoted to boxed
// values and stays there. A Doc is built from a row only by the calls
// that return documents.
//
// Cell and Rows are the typed edge of the store: InsertRows appends
// rows without a map or a boxed value per field, TailRows reads them
// back the same way, and Insert/InsertMany take a Doc apart into the
// same Rows before they reach the one insert path.

// kind is the representation of a cell, and of a column.
type kind uint8

const (
	kindAbsent kind = iota // a zero Cell; a column that never held a value
	kindString
	kindFloat
	kindInt64
	kindInt
	kindBool
	kindBoxed // everything else, and every column that has seen two kinds
)

var kindNames = [...]string{"absent", "string", "float64", "int64", "int", "bool", "boxed"}

// Cell is one typed value of a row. The zero Cell is "no value".
type Cell struct {
	kind kind
	num  uint64 // float64 bits, integer value, or 0/1
	str  string
	box  any
}

// String, Float and Int64 build typed cells; documents reach the other
// kinds (int, bool, boxed) through cellOf.
func String(s string) Cell { return Cell{kind: kindString, str: s} }

// Float builds a float64 cell.
func Float(f float64) Cell { return Cell{kind: kindFloat, num: math.Float64bits(f)} }

// Int64 builds an int64 cell.
func Int64(i int64) Cell { return Cell{kind: kindInt64, num: uint64(i)} }

func boolCell(b bool) Cell {
	c := Cell{kind: kindBool}
	if b {
		c.num = 1
	}
	return c
}

// cellOf classifies a document value: an int is a kind of its own, so
// it comes back an int; anything outside the five typed kinds is boxed
// and must not be mutated afterwards.
func cellOf(v any) Cell {
	switch t := v.(type) {
	case string:
		return String(t)
	case float64:
		return Float(t)
	case int64:
		return Int64(t)
	case int:
		return Cell{kind: kindInt, num: uint64(t)}
	case bool:
		return boolCell(t)
	default:
		return Cell{kind: kindBoxed, box: v}
	}
}

// Present reports whether the cell holds a value.
func (c Cell) Present() bool { return c.kind != kindAbsent }

// value returns the cell as a document value (nil when absent).
func (c Cell) value() any {
	switch c.kind {
	case kindString:
		return c.str
	case kindFloat:
		return math.Float64frombits(c.num)
	case kindInt64:
		return int64(c.num)
	case kindInt:
		return int(c.num)
	case kindBool:
		return c.num != 0
	default:
		return c.box
	}
}

// Str returns the cell's string, or "" when it holds anything else.
func (c Cell) Str() string {
	if c.kind == kindBoxed {
		s, _ := c.box.(string)
		return s
	}
	return c.str
}

// Num returns the cell's number as a float64 (0 for non-numbers), with
// the same coercion filters and histograms apply.
func (c Cell) Num() float64 {
	switch c.kind {
	case kindFloat:
		return math.Float64frombits(c.num)
	case kindInt64, kindInt:
		return float64(int64(c.num))
	case kindBoxed:
		return toFloat(c.box)
	default:
		return 0
	}
}

// I64 returns the cell's number as an int64 (0 for non-numbers).
func (c Cell) I64() int64 {
	if c.kind == kindInt64 || c.kind == kindInt {
		return int64(c.num)
	}
	return int64(c.Num())
}

// truth returns a rank-1 cell's bool.
func (c Cell) truth() bool {
	t, _ := c.box.(bool)
	return t || (c.kind == kindBool && c.num != 0)
}

// rank orders cells like rank orders values: absent and nil < bool <
// number < string < time.
func (c Cell) rank() int {
	switch c.kind {
	case kindAbsent:
		return 0
	case kindString:
		return 3
	case kindFloat, kindInt64, kindInt:
		return 2
	case kindBool:
		return 1
	default:
		return rank(c.box)
	}
}

// compareCells orders two values: absent and nil < bool < number <
// string < time. Numbers compare numerically across int/int64/float64;
// values of other types (nested ones) are incomparable and tie.
func compareCells(a, b Cell) int {
	ra, rb := a.rank(), b.rank()
	switch {
	case ra != rb && ra < rb:
		return -1
	case ra != rb:
		return 1
	case ra == 1:
		switch ta, tb := a.truth(), b.truth(); {
		case ta == tb:
			return 0
		case tb:
			return -1
		}
		return 1
	case ra == 2:
		fa, fb := a.Num(), b.Num()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	case ra == 3:
		return strings.Compare(a.Str(), b.Str())
	case ra == 4:
		return a.box.(time.Time).Compare(b.box.(time.Time))
	default:
		return 0
	}
}

// Chunk sizes of a lane: chunk 0 starts at firstChunkRows and doubles up
// to chunkRows, so a small partition stays small; later chunks are full.
const (
	chunkShift     = 12
	chunkRows      = 1 << chunkShift
	chunkMask      = chunkRows - 1
	firstChunkRows = 512
)

// lane holds one column's values in fixed chunks: row r lives at
// chunks[r>>chunkShift][r&chunkMask], and a chunk's length is how many
// rows it holds. An append writes past every row already stored and
// never moves one (chunk 0's doublings copy it to fresh memory), so a
// checkpoint can share the chunks (share).
type lane[T any] struct{ chunks [][]T }

// at reads row r.
//
//alarmvet:hotpath
func (l *lane[T]) at(r int) T { return l.chunks[r>>chunkShift][r&chunkMask] }

// push appends a row.
//
//alarmvet:hotpath
func (l *lane[T]) push(v T) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.grow()
		last = len(l.chunks) - 1
	}
	l.chunks[last] = append(l.chunks[last], v)
}

// grow makes room for one more row: the first chunk, chunk 0 doubled,
// or a new full-size chunk.
func (l *lane[T]) grow() {
	switch {
	case len(l.chunks) == 0:
		l.chunks = make([][]T, 1, 8)
		l.chunks[0] = make([]T, 0, firstChunkRows)
	case len(l.chunks) == 1 && cap(l.chunks[0]) < chunkRows:
		l.chunks[0] = append(make([]T, 0, 2*cap(l.chunks[0])), l.chunks[0]...)
	default:
		l.chunks = append(l.chunks, make([]T, 0, chunkRows))
	}
}

// truncate drops the rows from n on, n at most the lane's length. The
// chunk holding row n moves to fresh memory first — a checkpoint may
// share it, and the appends that follow would overwrite rows it reads.
func (l *lane[T]) truncate(n int) {
	k, off := n>>chunkShift, n&chunkMask
	if k >= len(l.chunks) {
		return
	}
	if off > 0 {
		l.chunks[k] = append(make([]T, 0, cap(l.chunks[k])), l.chunks[k][:off]...)
		k++
	}
	clear(l.chunks[k:])
	l.chunks = l.chunks[:k]
}

// share returns a lane reading the same rows whose chunk list is its
// own: later appends and truncations of l never write a row it reads.
func (l *lane[T]) share() lane[T] {
	return lane[T]{chunks: append([][]T(nil), l.chunks...)}
}

// column is one slot of one partition: n rows, in the one lane its kind
// uses — strings, numbers as Cell.num bits (float64, int64, int and
// bool), or boxed values. While every row below n holds a value present
// is nil; the first gap turns it into a presence bitmap.
type column struct {
	kind    kind
	n       int
	present []uint64
	strs    lane[string]
	nums    lane[uint64]
	boxed   lane[any]
}

func (c *column) has(r int) bool {
	return r < c.n && (c.present == nil || c.present[r>>6]&(1<<(r&63)) != 0)
}

// cell reads row r without boxing.
func (c *column) cell(r int) Cell {
	if c == nil || !c.has(r) {
		return Cell{}
	}
	switch c.kind {
	case kindString:
		return Cell{kind: kindString, str: c.strs.at(r)}
	case kindBoxed:
		return Cell{kind: kindBoxed, box: c.boxed.at(r)}
	default:
		return Cell{kind: c.kind, num: c.nums.at(r)}
	}
}

// set appends row r (r >= n), padding the rows between with no value
// and promoting the column to the boxed representation when v is of
// another kind than the column has held so far.
//
//alarmvet:hotpath
func (c *column) set(r int, v Cell) {
	if c.kind == kindAbsent {
		c.kind = v.kind
	} else if c.kind != v.kind && c.kind != kindBoxed {
		c.promote()
	}
	if r > c.n && c.present == nil {
		c.sparse()
	}
	for c.n < r {
		c.push(Cell{})
	}
	c.push(v)
	if c.present != nil {
		for len(c.present) <= r>>6 {
			c.present = append(c.present, 0)
		}
		c.present[r>>6] |= 1 << (r & 63)
	}
}

// push appends v to the column's lane.
//
//alarmvet:hotpath
func (c *column) push(v Cell) {
	switch c.kind {
	case kindString:
		c.strs.push(v.str)
	case kindBoxed:
		c.boxed.push(v.value())
	default:
		c.nums.push(v.num)
	}
	c.n++
}

// sparse gives a dense column its presence bitmap: every row below n
// holds a value.
func (c *column) sparse() {
	c.present = make([]uint64, (c.n+63)>>6)
	for r := 0; r < c.n; r++ {
		c.present[r>>6] |= 1 << (r & 63)
	}
}

// promote rewrites a typed column as a boxed one.
func (c *column) promote() {
	var boxed lane[any]
	for r := 0; r < c.n; r++ {
		boxed.push(c.cell(r).value())
	}
	*c = column{kind: kindBoxed, n: c.n, present: c.present, boxed: boxed}
}

// gather rebuilds the column's tail: rows before lo stay, new row lo+i
// holds what old row src[i] (>= lo) held.
func (c *column) gather(lo int, src []int) {
	moved := make([]Cell, len(src))
	for i, r := range src {
		moved[i] = c.cell(r)
	}
	// Truncate to lo rows: the lanes, and the presence bits.
	if lo < c.n {
		c.strs.truncate(lo)
		c.nums.truncate(lo)
		c.boxed.truncate(lo)
		c.n = lo
	}
	if w := (lo + 63) >> 6; w < len(c.present) {
		c.present = c.present[:w]
	}
	if w := lo >> 6; lo&63 != 0 && w < len(c.present) {
		c.present[w] &= 1<<(lo&63) - 1
	}
	for i, v := range moved {
		if v.kind != kindAbsent {
			c.set(lo+i, v)
		}
	}
}

// fieldDict is a collection's field dictionary: top-level field names
// to column slots, append-only, shared by the collection's partitions.
type fieldDict struct {
	mu    sync.RWMutex
	slots map[string]int
	names []string
}

// slot returns the slot of a top-level field name, assigning the next
// one on first sight — reads register names too, so a compiled query
// and a concurrent insert can never disagree about a slot.
func (d *fieldDict) slot(name string) int {
	d.mu.RLock()
	s, ok := d.slots[name]
	d.mu.RUnlock()
	if ok {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.slots[name]; ok {
		return s
	}
	if d.slots == nil {
		d.slots = make(map[string]int)
	}
	s = len(d.names)
	d.slots[name] = s
	d.names = append(d.names, name)
	return s
}

// fieldNames returns the names by slot. The prefix a caller receives
// is immutable.
func (d *fieldDict) fieldNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names
}

// Rows is a reusable batch of typed rows bound to a collection: filled
// with Next and handed to InsertRows, or filled by TailRows and read
// with Row. A Rows made by NewRows has a fixed field list, so a row is
// one Cell per field, in order, and costs no allocation once the
// buffers have grown to the batch size.
type Rows struct {
	slots []int   // fixed layout: the field list; ragged: one per cell
	off   []int32 // ragged layout only: row i spans cells[off[i]:off[i+1]]
	cells []Cell
	ids   []int64 // TailRows: the rows' document ids
	n     int
	// InsertRows scratch: target partition per row, the rows grouped
	// by partition, and where each partition's group starts.
	part, order, starts []int32
	// What InsertRows hands forEach: the insert under way, and two
	// closures over the batch itself, made with its first insert — a
	// reused batch costs no closure.
	ins     insertRun
	touched func(pi int) bool
	insert  func(pi int, p *partition) error
	// marks are the WAL frames a strict-mode InsertRows waits to see
	// fsynced after it has released every partition lock.
	marks []walMark
}

// insertRun is one InsertRows call: where the rows go, the id of the
// first, and whether the call waits for an fsync of its WAL frames.
type insertRun struct {
	c      *Collection
	base   int64
	strict bool
}

// NewRows returns an empty batch whose rows hold the given top-level
// fields, in this order.
func (c *Collection) NewRows(fields ...string) *Rows {
	r := &Rows{slots: make([]int, len(fields))}
	for i, f := range fields {
		r.slots[i] = c.dict.slot(f)
	}
	return r
}

// Reset empties the batch, keeping its buffers.
func (r *Rows) Reset() {
	clear(r.cells) // drop string and boxed references
	r.cells, r.ids, r.n = r.cells[:0], r.ids[:0], 0
	if r.off != nil {
		r.slots, r.off = r.slots[:0], r.off[:1]
	}
}

// Len returns how many rows the batch holds.
func (r *Rows) Len() int { return r.n }

// Next appends a row and returns its cells for the caller to fill, one
// per field of NewRows; a cell left zero stores no value.
//
//alarmvet:hotpath
func (r *Rows) Next() []Cell {
	w := len(r.slots)
	for i := 0; i < w; i++ {
		r.cells = append(r.cells, Cell{})
	}
	r.n++
	return r.cells[len(r.cells)-w:]
}

// Row returns row i's cells, one per field of NewRows.
func (r *Rows) Row(i int) []Cell {
	_, cells := r.row(i)
	return cells
}

func (r *Rows) row(i int) ([]int, []Cell) {
	if r.off == nil {
		w := len(r.slots)
		return r.slots, r.cells[i*w : (i+1)*w]
	}
	lo, hi := r.off[i], r.off[i+1]
	return r.slots[lo:hi], r.cells[lo:hi]
}

// addDoc appends a document to a ragged batch: one cell per top-level
// field, nested values deep-copied so the store shares nothing with
// the caller. A caller-supplied _id is dropped; the store assigns ids.
func (r *Rows) addDoc(d *fieldDict, doc Doc) {
	for k, v := range doc {
		if k == "_id" {
			continue
		}
		r.slots = append(r.slots, d.slot(k))
		r.cells = append(r.cells, cellOf(cloneValue(v)))
	}
	r.off = append(r.off, int32(len(r.cells)))
	r.n++
}

// raggedPool recycles the ragged batches Insert and InsertMany convert
// their documents into.
var raggedPool = sync.Pool{New: func() any { return &Rows{off: []int32{0}} }}

// FieldInfo reports how a collection stores one field — the counter
// that says whether the typed path or the boxed fallback is serving it.
type FieldInfo struct {
	Name string `json:"name"`
	// Kind is the column kind the partitions hold ("string", "float64",
	// "int64", "int", "bool", "boxed"), or "mixed" when they disagree.
	Kind string `json:"kind"`
	// Boxed counts the partitions whose column for the field has been
	// promoted to (or began in) the boxed representation.
	Boxed int `json:"boxed"`
}

// Fields lists the stored fields in dictionary order. Fields only ever
// named by a query, which no partition holds, are left out.
func (c *Collection) Fields() []FieldInfo {
	names := c.dict.fieldNames()
	out := make([]FieldInfo, 0, len(names))
	for s, name := range names {
		info := FieldInfo{Name: name}
		for _, p := range c.parts {
			p.mu.RLock()
			col, k := p.col(s), ""
			if col != nil {
				k = kindNames[col.kind]
			}
			p.mu.RUnlock()
			if col == nil {
				continue
			}
			switch {
			case info.Kind == "":
				info.Kind = k
			case info.Kind != k:
				info.Kind = "mixed"
			}
			if k == kindNames[kindBoxed] {
				info.Boxed++
			}
		}
		if info.Kind != "" {
			out = append(out, info)
		}
	}
	return out
}
