package exec

import "slices"

// Ordered is implemented by operators whose output is sorted. Ordering
// returns the ascending column indexes (in the operator's *output* schema)
// that the emitted rows are ordered by, most significant first; nil means
// unordered. Order-sensitive consumers (MergeJoin) use OrderingOf to assert
// — not assume — that their inputs arrive sorted on the join keys.
type Ordered interface {
	Ordering() []int
}

// OrderingOf reports op's declared output ordering, nil if op declares none.
func OrderingOf(op Operator) []int {
	if o, ok := op.(Ordered); ok {
		return o.Ordering()
	}
	return nil
}

// orderedPrefix reports whether keys is a prefix of ordering: rows sorted by
// ordering are grouped (and sorted) by any prefix of it.
func orderedPrefix(ordering, keys []int) bool {
	if len(keys) > len(ordering) {
		return false
	}
	for i, k := range keys {
		if ordering[i] != k {
			return false
		}
	}
	return true
}

// Ordering: a table scan emits rows in key order, and the order-preserving
// key codec makes byte order equal column order, so the output is sorted by
// the schema's key columns.
func (s *TableScan) Ordering() []int {
	ord := make([]int, s.Part.Schema.KeyCols)
	for i := range ord {
		ord[i] = i
	}
	return ord
}

// Ordering: Sort's output follows its declared OrderBy metadata.
func (o *Sort) Ordering() []int { return o.OrderBy }

// Ordering: projection preserves the child's ordering for the prefix of
// ordering columns it keeps, remapped to output positions. The prefix stops
// at the first ordering column the projection drops — later ordering columns
// only tie-break within groups of the dropped one, so they no longer
// describe a global order.
func (o *Project) Ordering() []int { return ProjectOrdering(OrderingOf(o.Child), o.Cols) }

// ProjectOrdering returns the prefix of ordering that a projection to cols
// keeps, remapped to output positions: it stops at the first ordering column
// cols drops.
func ProjectOrdering(ordering, cols []int) []int {
	var out []int
	for _, oc := range ordering {
		pos := slices.Index(cols, oc)
		if pos < 0 {
			break
		}
		out = append(out, pos)
	}
	return out
}

// Ordering: filtering drops rows but never reorders them.
func (o *Filter) Ordering() []int { return OrderingOf(o.Child) }

// Ordering: a limit keeps a prefix of the child's stream.
func (o *Limit) Ordering() []int { return OrderingOf(o.Child) }

// Ordering: the remote edge ships batches in order.
func (o *Remote) Ordering() []int { return OrderingOf(o.Child) }

// Ordering: the buffer prefetches but delivers in child order.
func (o *Buffer) Ordering() []int { return OrderingOf(o.Child) }

// Ordering: a merge join consumes both inputs in left-key order and emits
// matches as the left side advances, so the output stays sorted by the left
// join keys (which are left-schema positions, i.e. output positions).
func (o *MergeJoin) Ordering() []int { return o.LeftKeys }
