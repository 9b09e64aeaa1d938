package docstore

import "fmt"

// Cond is one typed condition of a conjunctive filter: Field compared
// with Value by Op, one of $eq, $gt, $gte, $lt, $lte. Field "_id" is
// the document id. Only values of Value's family — numbers (int, int64
// and float64 alike) or strings — satisfy a condition.
type Cond struct {
	Field string
	Op    string
	Value Cell
}

// filter is a conjunction of conditions compiled against the
// collection's field dictionary, evaluated in order, short-circuiting.
// Compiling never fails: a condition with an unknown operator errors
// when it is first evaluated, and only if evaluation reaches it.
type filter struct {
	nodes []node
}

// node is one compiled condition.
type node struct {
	field string // as written
	slot  int    // its slot; slotID for _id
	op    string
	lit   Cell
	err   error // an unknown operator: evaluating the node is the error
}

// compileFilter compiles a conjunction of conditions.
func compileFilter(d *fieldDict, conds []Cond) *filter {
	return &filter{nodes: compileConds(d, conds, make([]node, 0, len(conds)))}
}

// compileConds appends the compiled conditions to dst.
func compileConds(d *fieldDict, conds []Cond, dst []node) []node {
	for _, c := range conds {
		n := node{field: c.Field, slot: d.ref(c.Field), op: c.Op, lit: c.Value}
		switch c.Op {
		case "$eq", "$gt", "$gte", "$lt", "$lte":
		default:
			n = node{err: fmt.Errorf("%w: unknown operator %q", ErrBadFilter, c.Op)}
		}
		dst = append(dst, n)
	}
	return dst
}

// eqKey returns the index key a node pins its field to, when the node
// is an equality on an indexable literal.
func (n *node) eqKey() (indexKey, bool) {
	if n.op == "$eq" {
		return keyForCell(n.lit)
	}
	return indexKey{}, false
}

// match reports whether row r of partition p satisfies the filter, node
// skip (one the caller proved true for the row; -1: none) aside.
func (f *filter) match(p *partition, r, skip int) (bool, error) {
	for i := range f.nodes {
		n := &f.nodes[i]
		switch {
		case i == skip:
		case n.err != nil:
			return false, n.err
		case !n.matchRow(p, r):
			return false, nil
		}
	}
	return true, nil
}

// matchRow evaluates one condition on the row's typed cell.
func (n *node) matchRow(p *partition, r int) bool {
	c := p.cell(r, n.slot)
	// Only values of the literal's rank can satisfy any of the five
	// comparisons.
	if c.rank() != n.lit.rank() {
		return false
	}
	cmp := compareCells(c, n.lit)
	switch n.op {
	case "$eq":
		// Numbers compare by == (NaN equals nothing).
		return cmp == 0 && (c.rank() != 2 || c.Num() == n.lit.Num())
	case "$gt":
		return cmp > 0
	case "$gte":
		return cmp >= 0
	case "$lt":
		return cmp < 0
	default:
		return cmp <= 0
	}
}
