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

// Index returns the index for v; unseen values return Cardinality()
// (the reserved unknown slot).
func (s *StringIndexer) Index(v string) int {
	if i, ok := s.byValue[v]; ok {
		return i
	}
	return len(s.values)
}

// Cardinality returns the number of distinct fitted values.
func (s *StringIndexer) Cardinality() int { return len(s.values) }

// Value returns the string for a fitted index.
func (s *StringIndexer) Value(i int) (string, bool) {
	if i < 0 || i >= len(s.values) {
		return "", false
	}
	return s.values[i], true
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
// columns into a dense feature vector — the One Hot Encoding step the
// paper applies before the DNN, which inflates the Sitasys schema to
// roughly 800 input features (§5.3.3).
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

// FeatureNames returns one name per encoded slot.
func (e *SchemaEncoder) FeatureNames() []string {
	names := make([]string, 0, e.Width())
	for i, c := range e.cols {
		if c.Numeric {
			names = append(names, c.Name)
			continue
		}
		ind := e.indexers[i]
		for j := 0; j < ind.Cardinality(); j++ {
			v, _ := ind.Value(j)
			names = append(names, c.Name+"="+v)
		}
		names = append(names, c.Name+"=<unseen>")
	}
	return names
}

// TransformAll encodes rows with labels into a Dataset. The rows of its
// X are consecutive windows of one backing array, each capped at the
// width, so a row can be written in place but appending to one copies
// it.
func (e *SchemaEncoder) TransformAll(rows []Row, labels []int) (*Dataset, error) {
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(rows), len(labels))
	}
	if !e.fitted {
		return nil, ErrNotFitted
	}
	x := slabRows(len(rows), e.Width())
	for i, row := range rows {
		if err := e.encode(x[i], row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return NewDataset(x, labels, e.FeatureNames())
}

// slabRows returns n zeroed rows of width w that are consecutive windows
// of one backing array, each capped at w.
func slabRows(n, w int) [][]float64 {
	slab, x := make([]float64, n*w), make([][]float64, n)
	for i := range x {
		x[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return x
}

// encode writes row's one-hot encoding into dst, which is Width() zeros.
func (e *SchemaEncoder) encode(dst []float64, row Row) error {
	if err := e.check(row); err != nil {
		return err
	}
	pos, ci, ni := 0, 0, 0
	for i, c := range e.cols {
		if c.Numeric {
			dst[pos] = row.Nums[ni]
			ni++
			pos++
			continue
		}
		ind := e.indexers[i]
		dst[pos+ind.Index(row.Cats[ci])] = 1
		pos += ind.OneHotWidth()
		ci++
	}
	return nil
}
