package btree

import (
	"bytes"
	"fmt"

	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// Cursor iterates a tree in key order. It keeps no pages pinned between
// Next calls; if the tree changes structurally underneath it (another
// transaction splits or frees a page at a blocking point), the cursor
// re-seeks its last key transparently.
//
// A cursor's stack, key/value scratch, and batch buffers are all reusable:
// re-Seeking an existing cursor (or obtaining one from the tree's internal
// free list via Scan) iterates without per-record allocation.
type Cursor struct {
	t       *Tree
	stack   []cursorLevel
	gen     uint64
	key     []byte
	val     []byte
	seekBuf []byte
	valid   bool
	// anchored: c.key holds a record this cursor actually delivered, so a
	// structural-change recovery may step past an exact re-match. False
	// between the start of a seek and its first load — there c.key holds the
	// seek TARGET (inclusive), never a stale position. Without this, a
	// pooled cursor whose seek raced a split re-anchored on the previous
	// scan's last key and delivered records far below the new scan's lower
	// bound (found by the TPC-C chaos oracle as a double delivery).
	anchored bool

	next  *Cursor // tree free-list link
	batch []KV    // scratch batch for Tree.Scan
}

type cursorLevel struct {
	no   storage.PageNo
	slot int
}

// KV is one record delivered by Cursor.NextBatch. Key and Val are appended
// into the entry's existing backing arrays, so a reused batch reaches zero
// allocations per scan in steady state.
type KV struct {
	Key []byte
	Val []byte
}

// Seek positions a cursor at the first key >= key. A nil key starts at the
// beginning.
func (t *Tree) Seek(p *sim.Proc, key []byte) (*Cursor, error) {
	c := &Cursor{t: t}
	if err := c.seek(p, key); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekTo repositions an existing cursor at the first key >= key, reusing its
// scratch buffers.
func (c *Cursor) SeekTo(p *sim.Proc, key []byte) error { return c.seek(p, key) }

// getCursor pops a cursor from the tree's free list (or makes one). Cursors
// are returned by putCursor; interleaved scans each pop a distinct cursor,
// so scans that block mid-flight cannot share scratch state.
func (t *Tree) getCursor() *Cursor {
	c := t.curFree
	if c == nil {
		return &Cursor{t: t}
	}
	t.curFree = c.next
	c.next = nil
	c.valid = false
	return c
}

func (t *Tree) putCursor(c *Cursor) {
	c.next = t.curFree
	t.curFree = c
}

func (c *Cursor) seek(p *sim.Proc, key []byte) error {
	// The target is the only valid recovery anchor until the first load:
	// c.key may still hold a stale position (pool reuse, or a spot behind
	// the new target), and advancing from it would violate the seek bound.
	c.key = append(c.key[:0], key...)
	c.anchored = false
restart:
	// Wait out in-flight structural surgery: a seek that starts inside a
	// split's torn window would adopt the post-bump gen and walk the
	// half-mutated structure undetected.
	c.t.readFence(p)
	c.stack = c.stack[:0]
	c.valid = false
	c.gen = c.t.gen
	if c.t.root == 0 {
		return nil
	}
	no := c.t.root
	for {
		pg, rel, err := c.t.pager.Read(p, no)
		if err != nil {
			return err
		}
		if c.gen != c.t.gen {
			// The descent raced a structural change while the page read
			// blocked: the stack may point into pre-split pages, so restart
			// from the (possibly new) root.
			rel()
			goto restart
		}
		if pg.Type() == storage.PageInner {
			slot := 0
			if key != nil {
				slot = childSlot(pg, key)
			}
			child := innerCellChild(pg.Cell(slot))
			c.stack = append(c.stack, cursorLevel{no, slot})
			rel()
			no = child
			continue
		}
		slot := 0
		if key != nil {
			slot, _ = search(pg, key)
		}
		c.stack = append(c.stack, cursorLevel{no, slot})
		if slot < pg.NumSlots() {
			c.load(pg, slot)
			rel()
			return nil
		}
		rel()
		// Leaf exhausted (or empty): advance to the next leaf.
		return c.advance(p)
	}
}

func (c *Cursor) load(pg storage.Page, slot int) {
	cell := pg.Cell(slot)
	c.key = append(c.key[:0], cellKey(cell)...)
	c.val = append(c.val[:0], leafCellValue(cell)...)
	c.valid = true
	c.anchored = true
}

// Valid reports whether the cursor is positioned on a record.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key. The slice is reused by Next; copy to retain.
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current value. The slice is reused by Next.
func (c *Cursor) Value() []byte { return c.val }

// Next advances to the following key.
func (c *Cursor) Next(p *sim.Proc) error {
	if !c.valid {
		return nil
	}
	if c.gen != c.t.gen {
		return c.reseekForward(p)
	}
	return c.step(p)
}

// reseekForward rebuilds the cursor position after a structural change and
// moves to the key following the one last returned. When the cursor was
// never positioned since its seek began (anchored=false), c.key is the seek
// target itself — re-seek it inclusively: an exact match is an undelivered
// record, not one to step past.
func (c *Cursor) reseekForward(p *sim.Proc) error {
	last := bytes.Clone(c.key)
	delivered := c.anchored
	if err := c.seek(p, last); err != nil {
		return err
	}
	if delivered && c.valid && bytes.Equal(c.key, last) {
		return c.step(p)
	}
	return nil
}

// anchorLeaf re-locates c.key's slot in leaf page pg. Non-structural
// mutations (inserts into or deletes from the same leaf by another process)
// shift slot positions without bumping the tree's gen, so a stored slot can
// drift; re-searching the page recovers it. It returns the slot of the first
// key >= c.key, which may be pg.NumSlots() when the leaf's remaining keys
// are all smaller.
func (c *Cursor) anchorLeaf(pg storage.Page, leaf *cursorLevel) int {
	if leaf.slot < pg.NumSlots() && bytes.Equal(cellKey(pg.Cell(leaf.slot)), c.key) {
		return leaf.slot
	}
	slot, _ := search(pg, c.key)
	return slot
}

// step moves one slot forward within the current leaf, spilling into the
// next leaf when exhausted.
func (c *Cursor) step(p *sim.Proc) error {
	leaf := &c.stack[len(c.stack)-1]
	pg, rel, err := c.t.pager.Read(p, leaf.no)
	if err != nil {
		return err
	}
	if c.gen != c.t.gen { // page fetch yielded and the tree changed
		rel()
		return c.reseekForward(p)
	}
	slot := c.anchorLeaf(pg, leaf)
	if slot < pg.NumSlots() && bytes.Equal(cellKey(pg.Cell(slot)), c.key) {
		slot++ // still present: deliver its successor
	}
	leaf.slot = slot
	if leaf.slot < pg.NumSlots() {
		c.load(pg, leaf.slot)
		rel()
		return nil
	}
	rel()
	return c.advance(p)
}

// advance pops exhausted levels and descends to the leftmost leaf of the
// next subtree.
func (c *Cursor) advance(p *sim.Proc) error {
	c.valid = false
	for len(c.stack) > 1 {
		c.stack = c.stack[:len(c.stack)-1]
		lvl := &c.stack[len(c.stack)-1]
		pg, rel, err := c.t.pager.Read(p, lvl.no)
		if err != nil {
			return err
		}
		if c.gen != c.t.gen {
			rel()
			// c.key holds the recovery anchor: the last-returned key, or —
			// when this advance came from a still-positioning seek — the
			// seek target (anchored=false, re-sought inclusively).
			c.valid = true
			return c.reseekForward(p)
		}
		lvl.slot++
		if lvl.slot >= pg.NumSlots() {
			rel()
			continue
		}
		no := innerCellChild(pg.Cell(lvl.slot))
		rel()
		// Descend to the leftmost leaf under no.
		for {
			pg, rel, err := c.t.pager.Read(p, no)
			if err != nil {
				return err
			}
			if c.gen != c.t.gen {
				// The descent raced a structural change while the read
				// blocked: the page may have been freed and reused for a
				// different key range. Recover from the anchor like the pop
				// loop above.
				rel()
				c.valid = true
				return c.reseekForward(p)
			}
			if pg.Type() == storage.PageInner {
				c.stack = append(c.stack, cursorLevel{no, 0})
				child := innerCellChild(pg.Cell(0))
				rel()
				no = child
				continue
			}
			c.stack = append(c.stack, cursorLevel{no, 0})
			if pg.NumSlots() > 0 {
				c.load(pg, 0)
				rel()
				return nil
			}
			rel()
			break // empty leaf: keep popping
		}
	}
	return nil
}

// NextBatch copies up to len(out) records, starting at the cursor's current
// position, into out — reusing each entry's Key/Val backing arrays — and
// advances the cursor past them. An entire leaf is consumed under a single
// page fetch, which is what lets table scans amortise per-record pager
// costs. It returns the number of records delivered; 0 means the cursor is
// exhausted. After a short (n < len(out)) return the cursor may still be
// valid (e.g. after a concurrent structural change); callers should loop
// until n == 0.
func (c *Cursor) NextBatch(p *sim.Proc, out []KV) (int, error) {
	return c.nextBatch(p, out, nil)
}

// nextBatch is NextBatch with an optional exclusive upper bound: delivery
// stops before the first key >= hi and the cursor stays positioned on it,
// so bounded scans never fetch pages past their range.
func (c *Cursor) nextBatch(p *sim.Proc, out []KV, hi []byte) (int, error) {
	n := 0
	for n < len(out) && c.valid {
		if c.gen != c.t.gen {
			// Stale position stack: re-find the current (undelivered)
			// record. seek mutates c.key, so go through scratch.
			c.seekBuf = append(c.seekBuf[:0], c.key...)
			if err := c.seek(p, c.seekBuf); err != nil {
				return n, err
			}
			continue
		}
		if hi != nil && bytes.Compare(c.key, hi) >= 0 {
			return n, nil
		}
		leaf := &c.stack[len(c.stack)-1]
		pg, rel, err := c.t.pager.Read(p, leaf.no)
		if err != nil {
			return n, err
		}
		if c.gen != c.t.gen { // page fetch yielded and the tree changed
			rel()
			continue
		}
		// Re-anchor against intra-leaf slot drift, then reload the current
		// record: it may have been deleted, in which case its successor
		// (possibly on a later leaf) is the next record to deliver.
		leaf.slot = c.anchorLeaf(pg, leaf)
		if leaf.slot >= pg.NumSlots() {
			rel()
			if err := c.advance(p); err != nil {
				return n, err
			}
			continue
		}
		c.load(pg, leaf.slot)
		if hi != nil && bytes.Compare(c.key, hi) >= 0 {
			rel()
			return n, nil
		}
		// Deliver the current record, then as many successors as fit,
		// all under this one page fetch.
		for {
			out[n].Key = append(out[n].Key[:0], c.key...)
			out[n].Val = append(out[n].Val[:0], c.val...)
			n++
			if leaf.slot+1 >= pg.NumSlots() {
				rel()
				if err := c.advance(p); err != nil {
					return n, err
				}
				break
			}
			leaf.slot++
			c.load(pg, leaf.slot)
			if n == len(out) || (hi != nil && bytes.Compare(c.key, hi) >= 0) {
				// The just-loaded record is the cursor's new position.
				rel()
				return n, nil
			}
		}
	}
	return n, nil
}

// scanBatchSize is the steady-state leaf-at-a-time delivery unit for
// Tree.Scan. Typical leaves hold a few dozen cells, so one full batch
// usually covers a whole leaf.
const scanBatchSize = 64

// Scan iterates keys in [lo, hi) (nil bounds are open) and calls fn for each
// record; fn returning false stops the scan. Key and value slices passed to
// fn are only valid during the call. Records are fetched via NextBatch with
// a pooled cursor, so steady-state scans allocate nothing. The batch ramps
// 1 → 8 → 64 so a consumer that stops after the first record (classic
// single-record volcano plans) pays no prefetch cost, while long scans
// quickly reach whole-leaf fetches.
func (t *Tree) Scan(p *sim.Proc, lo, hi []byte, fn func(key, val []byte) bool) error {
	c := t.getCursor()
	defer t.putCursor(c)
	if err := c.seek(p, lo); err != nil {
		return err
	}
	if c.batch == nil {
		c.batch = make([]KV, scanBatchSize)
	}
	size := 1
	for {
		n, err := c.nextBatch(p, c.batch[:size], hi)
		for i := 0; i < n; i++ {
			if !fn(c.batch[i].Key, c.batch[i].Val) {
				// The consumer stopped; errors from prefetching past its
				// stop point are not its concern.
				return nil
			}
		}
		if err != nil || n == 0 {
			return err
		}
		if size < scanBatchSize {
			size *= 8
			if size > scanBatchSize {
				size = scanBatchSize
			}
		}
	}
}

// Count returns the number of records in the tree.
func (t *Tree) Count(p *sim.Proc) (int, error) {
	n := 0
	err := t.Scan(p, nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Validate checks structural invariants: key ordering within and across
// pages, separator coverage, and uniform leaf depth. It returns a
// descriptive error on the first violation.
func (t *Tree) Validate(p *sim.Proc) error {
	if t.root == 0 {
		return nil
	}
	_, _, _, err := t.validatePage(p, t.root, nil, nil, -1, 0)
	return err
}

func (t *Tree) validatePage(p *sim.Proc, no storage.PageNo, lo, hi []byte, wantDepth, depth int) (minKey, maxKey []byte, leafDepth int, err error) {
	pg, rel, err := t.pager.Read(p, no)
	if err != nil {
		return nil, nil, 0, err
	}
	n := pg.NumSlots()
	typ := pg.Type()
	var keys [][]byte
	var children []storage.PageNo
	for i := 0; i < n; i++ {
		cell := pg.Cell(i)
		keys = append(keys, bytes.Clone(cellKey(cell)))
		if typ == storage.PageInner {
			children = append(children, innerCellChild(cell))
		}
	}
	rel()
	for i := 1; i < n; i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return nil, nil, 0, fmt.Errorf("btree: page %d keys out of order at slot %d", no, i)
		}
	}
	if typ == storage.PageLeaf {
		if n == 0 && no != t.root {
			return nil, nil, 0, fmt.Errorf("btree: empty non-root leaf %d", no)
		}
		for _, k := range keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return nil, nil, 0, fmt.Errorf("btree: leaf %d key below bound", no)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return nil, nil, 0, fmt.Errorf("btree: leaf %d key above bound", no)
			}
		}
		if wantDepth >= 0 && depth != wantDepth {
			return nil, nil, 0, fmt.Errorf("btree: leaf %d at depth %d, want %d", no, depth, wantDepth)
		}
		if n == 0 {
			return nil, nil, depth, nil
		}
		return keys[0], keys[n-1], depth, nil
	}
	if n == 0 {
		return nil, nil, 0, fmt.Errorf("btree: empty inner page %d", no)
	}
	leafDepth = wantDepth
	for i := 0; i < n; i++ {
		clo := lo
		if i > 0 {
			clo = keys[i]
		}
		chi := hi
		if i+1 < n {
			chi = keys[i+1]
		}
		_, _, d, err := t.validatePage(p, children[i], clo, chi, leafDepth, depth+1)
		if err != nil {
			return nil, nil, 0, err
		}
		leafDepth = d
	}
	return keys[0], nil, leafDepth, nil
}
