package ml

import (
	"fmt"
	"math"
	"sort"
)

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

// Encode writes the one-hot encoding of v into dst (which must have
// OneHotWidth elements) and returns dst.
func (s *StringIndexer) Encode(dst []float64, v string) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	dst[s.Index(v)] = 1
	return dst
}

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

// Transform encodes one row into a fresh feature vector. This is the
// dense form training and the experiments read; serving reads the same
// cells as a SparseRow (see Layout).
func (e *SchemaEncoder) Transform(row Row) ([]float64, error) {
	if !e.fitted {
		return nil, ErrNotFitted
	}
	dst := make([]float64, e.Width())
	if err := e.encode(dst, row); err != nil {
		return nil, err
	}
	return dst, nil
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

// Pearson computes the Pearson correlation coefficient between two
// equal-length series. It returns 0 when either series is constant.
// The paper uses Pearson correlation (after [36]) for feature
// selection: "to find dependencies between features and labels as well
// as dependencies among features" (§5.3).
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// FeatureCorrelation is the label correlation of one feature.
type FeatureCorrelation struct {
	Index int
	Name  string
	Corr  float64 // Pearson correlation with the label
}

// CorrelationsWithLabel returns per-feature Pearson correlations with
// the label, sorted by descending absolute correlation — the feature-
// selection signal of §5.3.
func CorrelationsWithLabel(d *Dataset) []FeatureCorrelation {
	yf := make([]float64, len(d.Y))
	for i, y := range d.Y {
		yf[i] = float64(y)
	}
	col := make([]float64, len(d.X))
	out := make([]FeatureCorrelation, d.Width())
	for j := 0; j < d.Width(); j++ {
		for i := range d.X {
			col[i] = d.X[i][j]
		}
		name := ""
		if d.FeatureNames != nil {
			name = d.FeatureNames[j]
		}
		out[j] = FeatureCorrelation{Index: j, Name: name, Corr: Pearson(col, yf)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Corr) > math.Abs(out[j].Corr)
	})
	return out
}

// StandardScaler standardizes numeric features to zero mean and unit
// variance (fitted on training data only).
type StandardScaler struct {
	mean, std []float64
	fitted    bool
}

// FitScaler computes per-feature statistics on d.
func FitScaler(d *Dataset) *StandardScaler {
	w := d.Width()
	s := &StandardScaler{mean: make([]float64, w), std: make([]float64, w), fitted: true}
	n := float64(d.Len())
	for _, row := range d.X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.mean[j]
			s.std[j] += dv * dv
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

// Apply standardizes all rows of d in place and returns d.
func (s *StandardScaler) Apply(d *Dataset) *Dataset {
	for _, row := range d.X {
		s.ApplyRow(row)
	}
	return d
}

// ApplyRow standardizes one feature vector in place.
func (s *StandardScaler) ApplyRow(row []float64) {
	for j := range row {
		row[j] = (row[j] - s.mean[j]) / s.std[j]
	}
}
