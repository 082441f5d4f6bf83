package btree

import (
	"bytes"
	"fmt"

	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// BulkLoad builds a tree from records supplied in strictly ascending key
// order by next (which returns ok=false when exhausted). Pages are filled to
// fillFraction (e.g. 0.9) to leave slack for later inserts. The tree must be
// empty. BulkLoad is how data generation and logical record movement build
// their target trees efficiently.
func (t *Tree) BulkLoad(p *sim.Proc, fillFraction float64, next func() (key, val []byte, ok bool)) error {
	if t.root != 0 {
		return fmt.Errorf("btree: bulk load into non-empty tree")
	}
	if fillFraction <= 0 || fillFraction > 1 {
		fillFraction = 0.9
	}
	budget := int(float64(t.pager.PageSize()-64) * fillFraction)

	type entry struct {
		key []byte
		no  storage.PageNo
	}
	var level []entry // (first key, page) of each filled leaf

	var (
		curNo    storage.PageNo
		cur      storage.Page
		curRel   Release
		curBytes int
		firstKey []byte
		lastKey  []byte
	)
	flush := func() {
		if cur != nil {
			curRel()
			level = append(level, entry{firstKey, curNo})
			cur, curRel = nil, nil
		}
	}
	for {
		key, val, ok := next()
		if !ok {
			break
		}
		if lastKey != nil && bytes.Compare(lastKey, key) >= 0 {
			if curRel != nil {
				curRel()
			}
			return fmt.Errorf("btree: bulk load keys not strictly ascending")
		}
		lastKey = bytes.Clone(key)
		cell := appendLeafCell(nil, key, val)
		if cur != nil && curBytes+len(cell)+4 > budget {
			flush()
		}
		if cur == nil {
			var err error
			curNo, cur, curRel, err = t.pager.Alloc(p)
			if err != nil {
				return err
			}
			cur.Init(storage.PageLeaf)
			curBytes = 0
			firstKey = bytes.Clone(key)
		}
		if !cur.InsertCellAt(cur.NumSlots(), cell) {
			flush()
			var err error
			curNo, cur, curRel, err = t.pager.Alloc(p)
			if err != nil {
				return err
			}
			cur.Init(storage.PageLeaf)
			curBytes = 0
			firstKey = bytes.Clone(key)
			if !cur.InsertCellAt(0, cell) {
				curRel()
				return fmt.Errorf("btree: cell of %d bytes does not fit an empty page", len(cell))
			}
		}
		curBytes += len(cell) + 4
	}
	flush()

	if len(level) == 0 {
		return nil // empty input, empty tree
	}

	// Build inner levels bottom-up until one page remains.
	for len(level) > 1 {
		var parents []entry
		var (
			pNo    storage.PageNo
			ppg    storage.Page
			pRel   Release
			pBytes int
			pFirst []byte
		)
		pflush := func() {
			if ppg != nil {
				pRel()
				parents = append(parents, entry{pFirst, pNo})
				ppg, pRel = nil, nil
			}
		}
		for i, e := range level {
			sep := e.key
			if ppg != nil && i > 0 {
				// keep sep as is
			} else if ppg == nil {
				// First cell of a parent acts as -infinity.
			}
			cell := innerCell(sep, e.no)
			if ppg != nil && pBytes+len(cell)+4 > budget {
				pflush()
			}
			if ppg == nil {
				var err error
				pNo, ppg, pRel, err = t.pager.Alloc(p)
				if err != nil {
					return err
				}
				ppg.Init(storage.PageInner)
				pBytes = 0
				pFirst = e.key
			}
			if !ppg.InsertCellAt(ppg.NumSlots(), cell) {
				pRel()
				return fmt.Errorf("btree: inner bulk cell does not fit")
			}
			pBytes += len(cell) + 4
		}
		pflush()
		level = parents
	}
	t.setRoot(level[0].no)
	t.gen++
	return nil
}
