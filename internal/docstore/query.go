package docstore

import (
	"fmt"
	"strings"
)

// filter is a Doc filter (or a typed []Cond) compiled against the
// collection's field dictionary. A filter is a map of field paths to
// conditions; a condition is either a literal (implicit $eq) or an
// operator map; the top-level logical keys $and / $or / $nor take a
// list of sub-filters. One node per key, evaluated in order,
// short-circuiting. Compiling never fails — a malformed filter errors
// when it is first evaluated, and only if evaluation reaches the
// malformed key.
//
// Supported operators: $eq, $ne, $gt, $gte, $lt, $lte, $in, $nin,
// $exists, $regexPrefix (prefix match, the store's index-friendly
// regex subset).
type filter struct {
	nodes []node
}

const (
	nodePred = iota // field condition
	nodeAnd         // $and / $or / $nor over sub-filters
	nodeOr
	nodeNor
	nodeErr // malformed key: evaluating it is the error
)

// node is one compiled filter key.
type node struct {
	kind int
	path string   // nodePred: the field path as written
	ref  fieldRef // nodePred: its slot
	// cond is the condition as written — a literal (implicit $eq) or an
	// operator map — which matchField evaluates on the boxed fallback.
	// nil for a typed Cond, whose fallback boxes op and lit on demand.
	cond any
	// op and lit are the typed fast path: a single comparison against a
	// string or numeric literal, evaluated on the column without boxing.
	op   string
	lit  Cell
	subs []*filter // nodeAnd/nodeOr/nodeNor
	err  error     // nodeErr
}

// Cond is one typed condition of a conjunctive filter — the
// allocation-free counterpart of the Doc filter entry
// {Field: {Op: Value}}, with Op one of $eq, $gt, $gte, $lt, $lte.
type Cond struct {
	Field string
	Op    string
	Value Cell
}

func compileFilter(d *fieldDict, f Doc) *filter {
	out := &filter{nodes: make([]node, 0, len(f))}
	for key, cond := range f {
		var n node
		switch key {
		case "$and", "$or", "$nor":
			n.kind = nodeAnd
			if key == "$or" {
				n.kind = nodeOr
			} else if key == "$nor" {
				n.kind = nodeNor
			}
			subs, err := subFilters(key, cond)
			if err != nil {
				n.kind, n.err = nodeErr, err
			}
			for _, s := range subs {
				n.subs = append(n.subs, compileFilter(d, s))
			}
		default:
			if strings.HasPrefix(key, "$") {
				n.kind, n.err = nodeErr, fmt.Errorf("%w: unknown operator %q", ErrBadFilter, key)
				break
			}
			n.path, n.cond, n.ref = key, cond, d.ref(key)
			n.op, n.lit = fastCond(cond)
		}
		out.nodes = append(out.nodes, n)
	}
	return out
}

// compileConds appends the compiled typed conditions to dst.
func compileConds(d *fieldDict, conds []Cond, dst []node) []node {
	for _, c := range conds {
		n := node{path: c.Field, ref: d.ref(c.Field), op: c.Op, lit: c.Value}
		switch c.Op {
		case "$eq", "$gt", "$gte", "$lt", "$lte":
		default:
			n = node{kind: nodeErr, err: fmt.Errorf("%w: unknown operator %q", ErrBadFilter, c.Op)}
		}
		dst = append(dst, n)
	}
	return dst
}

// fastCond recognizes the conditions the typed fast path serves: a
// string or numeric literal, bare or under exactly one comparison
// operator.
func fastCond(cond any) (string, Cell) {
	op := "$eq"
	if m, isOps := cond.(map[string]any); isOps {
		if len(m) != 1 {
			return "", Cell{}
		}
		for op, cond = range m {
		}
		switch op {
		case "$eq", "$gt", "$gte", "$lt", "$lte":
		default:
			return "", Cell{}
		}
	}
	switch rank(cond) {
	case 2:
		return op, Float(toFloat(cond))
	case 3:
		return op, String(cond.(string))
	}
	return "", Cell{}
}

// eqKey returns the index key a node pins its field to, when the node
// is an equality on an indexable literal.
func (n *node) eqKey() (indexKey, bool) {
	if n.op == "$eq" {
		return keyForCell(n.lit)
	}
	if n.op != "" || n.cond == nil {
		return indexKey{}, false
	}
	v := n.cond
	if m, isOps := v.(map[string]any); isOps {
		eq, ok := m["$eq"]
		if !ok || len(m) != 1 {
			return indexKey{}, false
		}
		v = eq
	}
	return keyFor(v)
}

// match reports whether row r of partition p satisfies the filter, node
// skip (one the caller proved true for the row; -1: none) aside.
func (f *filter) match(p *partition, r, skip int) (bool, error) {
	for i := range f.nodes {
		n := &f.nodes[i]
		switch {
		case i == skip:
		case n.kind == nodeErr:
			return false, n.err
		case n.kind == nodePred:
			ok, err := n.matchRow(p, r)
			if err != nil || !ok {
				return false, err
			}
		case n.kind == nodeAnd:
			for _, s := range n.subs {
				ok, err := s.match(p, r, -1)
				if err != nil || !ok {
					return false, err
				}
			}
		default: // nodeOr, nodeNor
			hit := false
			for _, s := range n.subs {
				ok, err := s.match(p, r, -1)
				if err != nil {
					return false, err
				}
				if ok {
					hit = true
					break
				}
			}
			if hit != (n.kind == nodeOr) {
				return false, nil
			}
		}
	}
	return true, nil
}

// matchRow evaluates one field condition. A single comparison against
// a typed column of the literal's family reads the column directly;
// everything else (operator sets, dotted paths, promoted columns)
// boxes the row's value and takes matchField.
func (n *node) matchRow(p *partition, r int) (bool, error) {
	if n.op != "" && n.ref.rest == "" {
		var c Cell
		if n.ref.slot == slotID {
			c = Int64(p.ids[r])
		} else if col := p.col(n.ref.slot); col == nil || col.kind != kindBoxed {
			c = col.cell(r)
		} else {
			return n.matchBoxed(p, r)
		}
		// Typed cell against a typed literal: only values of the
		// literal's rank can satisfy any of the five comparisons.
		if c.rank() != n.lit.rank() {
			return false, nil
		}
		cmp := compareCells(c, n.lit)
		switch n.op {
		case "$eq":
			// Numbers compare by ==, as equalValues does (NaN equals nothing).
			return cmp == 0 && (c.rank() != 2 || c.Num() == n.lit.Num()), nil
		case "$gt":
			return cmp > 0, nil
		case "$gte":
			return cmp >= 0, nil
		case "$lt":
			return cmp < 0, nil
		default:
			return cmp <= 0, nil
		}
	}
	return n.matchBoxed(p, r)
}

func (n *node) matchBoxed(p *partition, r int) (bool, error) {
	cond := n.cond
	if cond == nil {
		cond = map[string]any{n.op: n.lit.value()}
	}
	val, exists := p.value(r, n.ref)
	return matchField(val, exists, cond)
}

func subFilters(op string, cond any) ([]Doc, error) {
	list, ok := cond.([]Doc)
	if ok {
		return list, nil
	}
	raw, ok := cond.([]any)
	if !ok {
		return nil, fmt.Errorf("%w: %s expects a list of filters", ErrBadFilter, op)
	}
	out := make([]Doc, len(raw))
	for i, e := range raw {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("%w: %s element %d is not a filter", ErrBadFilter, op, i)
		}
		out[i] = m
	}
	return out, nil
}

func matchField(val any, exists bool, cond any) (bool, error) {
	ops, isOps := cond.(map[string]any)
	if !isOps {
		return exists && equalValues(val, cond), nil
	}
	for op, arg := range ops {
		ok, err := applyOp(val, exists, op, arg)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func applyOp(val any, exists bool, op string, arg any) (bool, error) {
	switch op {
	case "$eq":
		return exists && equalValues(val, arg), nil
	case "$ne":
		return !exists || !equalValues(val, arg), nil
	case "$gt":
		return exists && comparable2(val, arg) && compareValues(val, arg) > 0, nil
	case "$gte":
		return exists && comparable2(val, arg) && compareValues(val, arg) >= 0, nil
	case "$lt":
		return exists && comparable2(val, arg) && compareValues(val, arg) < 0, nil
	case "$lte":
		return exists && comparable2(val, arg) && compareValues(val, arg) <= 0, nil
	case "$in":
		list, ok := arg.([]any)
		if !ok {
			return false, fmt.Errorf("%w: $in expects a list", ErrBadFilter)
		}
		if !exists {
			return false, nil
		}
		for _, e := range list {
			if equalValues(val, e) {
				return true, nil
			}
		}
		return false, nil
	case "$nin":
		ok, err := applyOp(val, exists, "$in", arg)
		return !ok, err
	case "$exists":
		want, ok := arg.(bool)
		if !ok {
			return false, fmt.Errorf("%w: $exists expects a bool", ErrBadFilter)
		}
		return exists == want, nil
	case "$regexPrefix":
		prefix, ok := arg.(string)
		if !ok {
			return false, fmt.Errorf("%w: $regexPrefix expects a string", ErrBadFilter)
		}
		s, ok := val.(string)
		return exists && ok && strings.HasPrefix(s, prefix), nil
	default:
		return false, fmt.Errorf("%w: unknown operator %q", ErrBadFilter, op)
	}
}

// equalValues compares two document values with numeric coercion.
func equalValues(a, b any) bool {
	if rank(a) == 2 && rank(b) == 2 {
		return toFloat(a) == toFloat(b)
	}
	if rank(a) != rank(b) {
		return false
	}
	return compareValues(a, b) == 0
}
