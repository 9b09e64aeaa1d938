package docstore

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"alarmverify/internal/lane"
)

// Typed rows.
//
// A partition does not store documents: it stores rows. The collection
// keeps a field dictionary (name → slot, grown the first time a name
// is seen, so the schema stays as flexible as the paper needs), and
// each partition keeps an id column plus one column per slot, in fixed
// chunks that are never copied (internal/lane), a presence bitmap from
// the first gap on. A field's kind — string, float64, int64 or int — is
// fixed by the first value the collection stores in it: a later value
// of another kind is refused, never converted (fieldDict.admit).
//
// Cell and Rows are the typed edge of the store: InsertRows appends
// rows without a map or a boxed value per field, TailRows reads them
// back the same way, and Insert/InsertMany take a Doc apart into the
// same Rows before they reach the one insert path.

// kind is the representation of a cell, and of a column. Its values
// are the kind bytes of WAL and snapshot row frames (wal.go), so they
// never change: 5 and 6, the bool and boxed kinds of older builds, are
// retired, and replay refuses them.
type kind uint8

const (
	kindAbsent kind = iota // a zero Cell; a field that never held a value
	kindString
	kindFloat
	kindInt64
	kindInt
)

var kindNames = [...]string{"absent", "string", "float64", "int64", "int"}

func (k kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind %d", uint8(k))
}

// Cell is one typed value of a row. The zero Cell is "no value".
type Cell struct {
	kind kind
	num  uint64 // float64 bits, or the integer value
	str  string
}

// String, Float and Int64 build typed cells; documents reach the int
// kind through cellOf.
func String(s string) Cell { return Cell{kind: kindString, str: s} }

// Float builds a float64 cell.
func Float(f float64) Cell { return Cell{kind: kindFloat, num: math.Float64bits(f)} }

// Int64 builds an int64 cell.
func Int64(i int64) Cell { return Cell{kind: kindInt64, num: uint64(i)} }

// cellOf types a document value: string, float64, int64 and int (a kind
// of its own, so it comes back an int). Any other Go type is not a kind
// the store holds, and ok is false.
func cellOf(v any) (c Cell, ok bool) {
	switch t := v.(type) {
	case string:
		return String(t), true
	case float64:
		return Float(t), true
	case int64:
		return Int64(t), true
	case int:
		return Cell{kind: kindInt, num: uint64(t)}, true
	default:
		return Cell{}, false
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
	default:
		return nil
	}
}

// Str returns the cell's string, or "" when it holds anything else.
func (c Cell) Str() string { return c.str }

// Num returns the cell's number as a float64 (0 for non-numbers), with
// the same coercion filters and histograms apply.
func (c Cell) Num() float64 {
	switch c.kind {
	case kindFloat:
		return math.Float64frombits(c.num)
	case kindInt64, kindInt:
		return float64(int64(c.num))
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

// rank orders the families of cells: absent (0) < number (2) < string
// (3). The values are also the index keys' (hashKey), so they stay.
func (c Cell) rank() int {
	switch c.kind {
	case kindAbsent:
		return 0
	case kindString:
		return 3
	default:
		return 2
	}
}

// compareCells orders two values: absent < number < string. Numbers
// compare numerically across int, int64 and float64.
func compareCells(a, b Cell) int {
	ra, rb := a.rank(), b.rank()
	switch {
	case ra != rb && ra < rb:
		return -1
	case ra != rb:
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
	default:
		return strings.Compare(a.str, b.str)
	}
}

// slabs are what a partition carves its columns and their lanes from:
// one slab per element type, sized from the field dictionary (sizeTo).
// A field the collection adds later adds a chunk to each block of its
// element type, not an allocation per generation.
type slabs struct {
	columns lane.Slab[column]
	strs    lane.Slab[string]
	nums    lane.Slab[uint64]
	ids     lane.Slab[int64] // one lane: a block is one chunk
}

// sizeTo sizes the slabs' next blocks to the dictionary — a column for
// every slot, a string chunk for every string field and a number chunk
// for every numeric one — and returns its slot count.
func (s *slabs) sizeTo(d *fieldDict) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s.strs.Lanes, s.nums.Lanes = 0, 0
	for _, k := range d.kinds {
		switch k {
		case kindAbsent:
		case kindString:
			s.strs.Lanes++
		default:
			s.nums.Lanes++
		}
	}
	s.columns.Lanes = len(d.kinds)
	return len(d.kinds)
}

// column is one slot of one partition: n rows, in the one lane its kind
// uses — strings, or numbers as Cell.num bits (float64, int64 and int).
// While every row below n holds a value present is nil; the first gap
// turns it into a presence bitmap.
type column struct {
	kind    kind
	n       int
	present []uint64
	strs    lane.Lane[string]
	nums    lane.Lane[uint64]
}

func (c *column) has(r int) bool {
	return r < c.n && (c.present == nil || c.present[r>>6]&(1<<(r&63)) != 0)
}

// cell reads row r without boxing.
func (c *column) cell(r int) Cell {
	if c == nil || !c.has(r) {
		return Cell{}
	}
	if c.kind == kindString {
		return Cell{kind: kindString, str: c.strs.At(r)}
	}
	return Cell{kind: c.kind, num: c.nums.At(r)}
}

// set appends row r (r >= n), padding the rows between with no value;
// a lane's next chunk is carved from s. v is of the column's kind: the
// field dictionary admitted it (admit).
//
//alarmvet:hotpath
func (c *column) set(r int, v Cell, s *slabs) {
	if c.kind == kindAbsent {
		c.kind = v.kind
	}
	if r > c.n && c.present == nil {
		c.sparse()
	}
	for c.n < r {
		c.push(Cell{}, s)
	}
	c.push(v, s)
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
func (c *column) push(v Cell, s *slabs) {
	if c.kind == kindString {
		c.strs.Push(v.str, &s.strs)
	} else {
		c.nums.Push(v.num, &s.nums)
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

// gather rebuilds the column's tail: rows before lo stay, new row lo+i
// holds what old row src[i] (>= lo) held. Fresh chunks are carved from
// s.
func (c *column) gather(lo int, src []int, s *slabs) {
	moved := make([]Cell, len(src))
	for i, r := range src {
		moved[i] = c.cell(r)
	}
	// Truncate to lo rows: the lanes, and the presence bits.
	if lo < c.n {
		c.strs.Truncate(lo, &s.strs)
		c.nums.Truncate(lo, &s.nums)
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
			c.set(lo+i, v, s)
		}
	}
}

// fieldDict is a collection's field dictionary: top-level field names
// to column slots, append-only, shared by the collection's partitions,
// and the kind each slot's first stored value fixed.
type fieldDict struct {
	mu    sync.RWMutex
	slots map[string]int
	names []string
	kinds []kind // by slot; kindAbsent until the field holds a value
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
	d.kinds = append(d.kinds, kindAbsent)
	return s
}

// fieldNames returns the names by slot. The prefix a caller receives
// is immutable.
func (d *fieldDict) fieldNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names
}

// admit checks every present cell of a batch against the kind of its
// field, fixing the kind of a field the batch is the first to fill. It
// returns the first mismatch, having changed nothing but those first
// kinds; no row is stored before its batch is admitted.
func (d *fieldDict) admit(r *Rows) error {
	d.mu.RLock()
	unfixed, err := d.check(r, false)
	d.mu.RUnlock()
	if unfixed {
		d.mu.Lock()
		_, err = d.check(r, true)
		d.mu.Unlock()
	}
	return err
}

// check is admit's pass over the batch under d.mu: it fixes the kind of
// a field without one when it may (write lock held), and otherwise
// reports that one is unfixed.
func (d *fieldDict) check(r *Rows, fix bool) (unfixed bool, err error) {
	for i := 0; i < r.n; i++ {
		slots, cells := r.row(i)
		for j, c := range cells {
			s := slots[j]
			switch k := d.kinds[s]; {
			case c.kind == kindAbsent || c.kind == k:
			case k != kindAbsent:
				return false, fmt.Errorf("field %q holds %s values, not %s", d.names[s], k, c.kind)
			case !fix:
				return true, nil
			default:
				d.kinds[s] = c.kind
			}
		}
	}
	return false, nil
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
	// TailRows scratch: one past each partition's newest row its merge
	// has not picked yet.
	ends []int
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
	clear(r.cells) // drop string references
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
// field. A caller-supplied _id is dropped; the store assigns ids. A
// value of a Go type outside the store's kinds is a caller bug, and
// panics.
func (r *Rows) addDoc(d *fieldDict, doc Doc) {
	for k, v := range doc {
		if k == "_id" {
			continue
		}
		c, ok := cellOf(v)
		if !ok {
			panic(fmt.Sprintf("docstore: field %q: a %T is not a string, float64, int64 or int", k, v))
		}
		r.slots = append(r.slots, d.slot(k))
		r.cells = append(r.cells, c)
	}
	r.off = append(r.off, int32(len(r.cells)))
	r.n++
}

// raggedPool recycles the ragged batches Insert and InsertMany convert
// their documents into.
var raggedPool = sync.Pool{New: func() any { return &Rows{off: []int32{0}} }}

// FieldInfo reports how a collection stores one field.
type FieldInfo struct {
	Name string `json:"name"`
	// Kind is the kind the field's first stored value fixed: "string",
	// "float64", "int64" or "int".
	Kind string `json:"kind"`
}

// Fields lists the stored fields in dictionary order. Fields only ever
// named by a query or a batch layout, which hold no value, are left
// out.
func (c *Collection) Fields() []FieldInfo {
	d := c.dict
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]FieldInfo, 0, len(d.names))
	for s, name := range d.names {
		if k := d.kinds[s]; k != kindAbsent {
			out = append(out, FieldInfo{Name: name, Kind: k.String()})
		}
	}
	return out
}
