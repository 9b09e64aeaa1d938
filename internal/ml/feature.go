package ml

import "fmt"

// StringIndexer maps categorical string values to dense integer
// indices, in order of first appearance at fit time. Unknown values at
// transform time map to a reserved "unseen" index, so models survive
// the schema drift the paper warns about (§6.1: new sensor types
// appear over time).
type StringIndexer struct {
	byValue map[string]int
	values  []string
}

// NewStringIndexer creates an empty indexer.
func NewStringIndexer() *StringIndexer {
	return &StringIndexer{byValue: make(map[string]int)}
}

// Fit observes a value, assigning it the next index if new.
func (s *StringIndexer) Fit(v string) {
	if _, ok := s.byValue[v]; !ok {
		s.byValue[v] = len(s.values)
		s.values = append(s.values, v)
	}
}

// Index returns the index for v; unseen values return the number of
// fitted values (the reserved unknown slot).
func (s *StringIndexer) Index(v string) int {
	if i, ok := s.byValue[v]; ok {
		return i
	}
	return len(s.values)
}

// OneHotWidth returns the width of the one-hot block for this
// indexer: one slot per fitted value plus the unknown slot.
func (s *StringIndexer) OneHotWidth() int { return len(s.values) + 1 }

// ColumnSpec declares one column of a categorical schema.
type ColumnSpec struct {
	Name string
	// Numeric marks a passthrough float column (e.g. the a-priori
	// risk factor of the hybrid approach) that is not one-hot encoded.
	Numeric bool
}

// SchemaEncoder one-hot encodes rows of mixed categorical/numeric
// columns — the One Hot Encoding step the paper applies before the DNN,
// which inflates the Sitasys schema to roughly 800 input features
// (§5.3.3). The vector is never built: Transform writes the serving row
// (SparseRow) that stands for it, in the encoder's Layout.
type SchemaEncoder struct {
	cols     []ColumnSpec
	indexers []*StringIndexer // nil for numeric columns
	fitted   bool
}

// NewSchemaEncoder creates an encoder for the given columns.
func NewSchemaEncoder(cols []ColumnSpec) *SchemaEncoder {
	e := &SchemaEncoder{cols: cols, indexers: make([]*StringIndexer, len(cols))}
	for i, c := range cols {
		if !c.Numeric {
			e.indexers[i] = NewStringIndexer()
		}
	}
	return e
}

// Row is one record: categorical values as strings, numeric columns
// as their formatted float (use NumericValue to set them).
type Row struct {
	Cats []string  // one entry per categorical column, in schema order
	Nums []float64 // one entry per numeric column, in schema order
}

// Fit observes all rows to build the category vocabularies.
func (e *SchemaEncoder) Fit(rows []Row) error {
	for r, row := range rows {
		if err := e.check(row); err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		ci := 0
		for i, c := range e.cols {
			if c.Numeric {
				continue
			}
			e.indexers[i].Fit(row.Cats[ci])
			ci++
		}
	}
	e.fitted = true
	return nil
}

func (e *SchemaEncoder) check(row Row) error {
	nc, nn := 0, 0
	for _, c := range e.cols {
		if c.Numeric {
			nn++
		} else {
			nc++
		}
	}
	if len(row.Cats) != nc || len(row.Nums) != nn {
		return fmt.Errorf("%w: row has %d cats / %d nums, schema wants %d / %d",
			ErrShape, len(row.Cats), len(row.Nums), nc, nn)
	}
	return nil
}

// Width returns the encoded feature-vector width.
func (e *SchemaEncoder) Width() int {
	w := 0
	for i, c := range e.cols {
		if c.Numeric {
			w++
		} else {
			w += e.indexers[i].OneHotWidth()
		}
	}
	return w
}

// Transform encodes row into dst, a row of the encoder's Layout: the
// column of each categorical value's 1 — the reserved unseen column for
// a value the encoder was not fitted on — and the numeric cells.
func (e *SchemaEncoder) Transform(row Row, dst SparseRow) error {
	if !e.fitted {
		return ErrNotFitted
	}
	if err := e.check(row); err != nil {
		return err
	}
	if len(dst.Active) != len(row.Cats) || len(dst.Nums) != len(row.Nums) {
		return fmt.Errorf("%w: row has %d cats / %d nums, the destination %d / %d",
			ErrShape, len(row.Cats), len(row.Nums), len(dst.Active), len(dst.Nums))
	}
	pos, ci := 0, 0
	for i, c := range e.cols {
		if c.Numeric {
			pos++
			continue
		}
		ind := e.indexers[i]
		dst.Active[ci] = uint16(pos + ind.Index(row.Cats[ci]))
		pos += ind.OneHotWidth()
		ci++
	}
	copy(dst.Nums, row.Nums)
	return nil
}
