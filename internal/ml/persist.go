package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Model persistence: the paper's workflow trains classifiers
// periodically offline ("for example, once per day during idle
// periods", §4.1) and serves them online; that split requires models
// to be saved and reloaded. Every classifier and the schema encoder
// serialize to a self-describing JSON envelope.

// ErrBadModelFile is returned when a persisted model cannot be
// decoded.
var ErrBadModelFile = errors.New("ml: bad model file")

// envelope wraps any persisted model with its kind tag.
type envelope struct {
	Kind  string          `json:"kind"`
	Model json.RawMessage `json:"model"`
}

// flatNode is one serialized tree node; children reference node
// indices (-1 for none).
type flatNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Prob      float64 `json:"p"`
}

type rfState struct {
	Config RandomForestConfig `json:"config"`
	Trees  [][]flatNode       `json:"trees"`
}

type lrState struct {
	Config  LogisticRegressionConfig `json:"config"`
	Weights []float64                `json:"weights"`
	Bias    float64                  `json:"bias"`
}

type svmState struct {
	Config  SVMConfig `json:"config"`
	Weights []float64 `json:"weights"`
	Bias    float64   `json:"bias"`
	PlattA  float64   `json:"plattA"`
	PlattB  float64   `json:"plattB"`
}

type dnnState struct {
	Config  DNNConfig   `json:"config"`
	Sizes   []int       `json:"sizes"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
}

// SaveClassifier writes a fitted classifier to w.
func SaveClassifier(w io.Writer, c Classifier) error {
	var state any
	switch m := c.(type) {
	case *RandomForest:
		if !m.fitted {
			return ErrNotFitted
		}
		trees := make([][]flatNode, len(m.trees))
		for i, t := range m.trees {
			trees[i] = flattenTree(t)
		}
		state = rfState{Config: m.Config, Trees: trees}
	case *LogisticRegression:
		if !m.fitted {
			return ErrNotFitted
		}
		state = lrState{Config: m.Config, Weights: m.weights, Bias: m.bias}
	case *SVM:
		if !m.fitted {
			return ErrNotFitted
		}
		state = svmState{Config: m.Config, Weights: m.weights, Bias: m.bias,
			PlattA: m.plattA, PlattB: m.plattB}
	case *DNN:
		if !m.fitted {
			return ErrNotFitted
		}
		state = dnnState{Config: m.Config, Sizes: m.sizes,
			Weights: m.weights, Biases: m.biases}
	default:
		return fmt.Errorf("ml: cannot persist classifier %T", c)
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(envelope{Kind: c.Name(), Model: raw})
}

// LoadClassifier reads a classifier previously written by
// SaveClassifier.
func LoadClassifier(r io.Reader) (Classifier, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
	}
	switch env.Kind {
	case "rf":
		var st rfState
		if err := json.Unmarshal(env.Model, &st); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
		m := NewRandomForest(st.Config)
		m.trees = make([]*treeNode, len(st.Trees))
		for i, flat := range st.Trees {
			t, err := unflattenTree(flat)
			if err != nil {
				return nil, err
			}
			m.trees[i] = t
		}
		m.fitted = true
		return m, nil
	case "lr":
		var st lrState
		if err := json.Unmarshal(env.Model, &st); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
		m := NewLogisticRegression(st.Config)
		m.weights = st.Weights
		m.bias = st.Bias
		m.fitted = true
		return m, nil
	case "svm":
		var st svmState
		if err := json.Unmarshal(env.Model, &st); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
		m := NewSVM(st.Config)
		m.weights = st.Weights
		m.bias = st.Bias
		m.plattA, m.plattB = st.PlattA, st.PlattB
		m.fitted = true
		return m, nil
	case "dnn":
		var st dnnState
		if err := json.Unmarshal(env.Model, &st); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
		if err := validateDNNState(&st); err != nil {
			return nil, err
		}
		m := NewDNN(st.Config)
		m.sizes = st.Sizes
		m.weights = st.Weights
		m.biases = st.Biases
		m.fitted = true
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadModelFile, env.Kind)
	}
}

func validateDNNState(st *dnnState) error {
	nLayers := len(st.Sizes) - 1
	if nLayers < 1 || len(st.Weights) != nLayers || len(st.Biases) != nLayers {
		return fmt.Errorf("%w: inconsistent DNN layers", ErrBadModelFile)
	}
	if st.Sizes[nLayers] != 2 {
		return fmt.Errorf("%w: DNN output layer has %d units, want 2", ErrBadModelFile, st.Sizes[nLayers])
	}
	for l := 0; l < nLayers; l++ {
		// Every width is checked against a length the file really holds
		// (by division: the product of two hostile widths can wrap), so
		// nothing a forward pass later sizes from it is larger than the
		// file.
		in, out := st.Sizes[l], st.Sizes[l+1]
		if in < 1 || out < 1 || len(st.Biases[l]) != out ||
			len(st.Weights[l])%out != 0 || len(st.Weights[l])/out != in {
			return fmt.Errorf("%w: DNN layer %d shape", ErrBadModelFile, l)
		}
	}
	return nil
}

// flattenTree serializes a tree into an index-linked node list
// (preorder; root at index 0).
func flattenTree(root *treeNode) []flatNode {
	var out []flatNode
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		idx := len(out)
		out = append(out, flatNode{Feature: n.feature, Threshold: n.threshold,
			Left: -1, Right: -1, Prob: n.prob})
		if n.feature >= 0 {
			l := walk(n.left)
			r := walk(n.right)
			out[idx].Left = l
			out[idx].Right = r
		}
		return idx
	}
	walk(root)
	return out
}

// unflattenTree rebuilds a tree from its node list. SaveClassifier
// writes preorder, so a child's index is always greater than its
// parent's; anything else is refused — a child index at or below its
// parent's can close a cycle, and a walk of it would never end.
func unflattenTree(flat []flatNode) (*treeNode, error) {
	if len(flat) == 0 {
		return nil, fmt.Errorf("%w: empty tree", ErrBadModelFile)
	}
	nodes := make([]*treeNode, len(flat))
	for i, f := range flat {
		nodes[i] = &treeNode{feature: f.Feature, threshold: f.Threshold, prob: f.Prob}
	}
	for i, f := range flat {
		if f.Feature < 0 {
			continue
		}
		if f.Left <= i || f.Left >= len(nodes) || f.Right <= i || f.Right >= len(nodes) {
			return nil, fmt.Errorf("%w: tree node %d has bad children", ErrBadModelFile, i)
		}
		nodes[i].left = nodes[f.Left]
		nodes[i].right = nodes[f.Right]
	}
	return nodes[0], nil
}

// encoderState is the persisted form of a SchemaEncoder.
type encoderState struct {
	Cols   []ColumnSpec `json:"cols"`
	Values [][]string   `json:"values"` // per categorical column, nil for numeric
	Fitted bool         `json:"fitted"`
}

// SaveEncoder writes a fitted schema encoder to w.
func (e *SchemaEncoder) Save(w io.Writer) error {
	st := encoderState{Cols: e.cols, Values: make([][]string, len(e.cols)), Fitted: e.fitted}
	for i, ind := range e.indexers {
		if ind != nil {
			st.Values[i] = append([]string(nil), ind.values...)
		}
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadEncoder reads a schema encoder previously written by Save.
func LoadEncoder(r io.Reader) (*SchemaEncoder, error) {
	var st encoderState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
	}
	if len(st.Values) != len(st.Cols) {
		return nil, fmt.Errorf("%w: encoder columns mismatch", ErrBadModelFile)
	}
	e := NewSchemaEncoder(st.Cols)
	for i, vals := range st.Values {
		if e.indexers[i] == nil {
			if vals != nil {
				return nil, fmt.Errorf("%w: numeric column %d has vocabulary", ErrBadModelFile, i)
			}
			continue
		}
		for _, v := range vals {
			e.indexers[i].Fit(v)
		}
	}
	e.fitted = st.Fitted
	return e, nil
}
