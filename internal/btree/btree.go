// Package btree implements the page-based B*-trees at the heart of WattDB's
// physiological partitioning: index-organised tables whose nodes live in
// slotted pages addressed by segment-relative page numbers. A tree confined
// to one segment therefore survives the segment being shipped to another
// node byte-for-byte — the property Sect. 4.3 of the paper relies on.
//
// Trees access pages through the Pager interface, so the same code runs over
// a node's buffer pool (with full I/O timing) or a plain in-memory segment
// in unit tests.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// Release unpins a page obtained from a Pager.
type Release func()

// Pager supplies pages to a tree. Implementations charge simulation time
// for misses; all page references are segment-relative.
type Pager interface {
	// Read pins page no for reading.
	Read(p *sim.Proc, no storage.PageNo) (storage.Page, Release, error)
	// Write pins page no for modification (the frame becomes dirty).
	Write(p *sim.Proc, no storage.PageNo) (storage.Page, Release, error)
	// Alloc creates a zeroed page pinned for modification.
	Alloc(p *sim.Proc) (storage.PageNo, storage.Page, Release, error)
	// Free returns a page to its segment.
	Free(p *sim.Proc, no storage.PageNo) error
	// PageSize returns the page size in bytes.
	PageSize() int
}

// Tree is a B*-tree rooted in a page. The zero root means "empty".
type Tree struct {
	pager Pager
	root  storage.PageNo
	// onRootChange propagates root movement to the owner (segment header).
	onRootChange func(storage.PageNo)
	// gen counts structural changes (splits, frees); cursors use it to
	// detect that their position stack is stale.
	gen uint64
	// writers, when set (Serialize), makes structural mutations mutually
	// exclusive. Needed when the pager can block (buffer misses): two
	// writers interleaving mid-descent would corrupt the tree. Readers
	// never block on it; Get retries on concurrent structural changes.
	writers *sim.Resource
	// surgeries counts multi-step structural mutations whose intermediate
	// states are reachable (a split's left page reformatted before the
	// parent adopts the separator; a freed page still referenced by its
	// parent). gen alone cannot fence a reader that STARTS inside such a
	// window — it adopts the post-bump gen and walks the torn structure —
	// so new positioning (Get descents, cursor seeks) waits on readFence
	// until the surgery completes. Writers never wait on readers, so the
	// fence cannot deadlock.
	surgeries int
	surgDone  *sim.Signal
	// curFree recycles scan cursors (with their stack/scratch/batch
	// buffers) so repeated scans allocate nothing.
	curFree *Cursor
	// cell is the scratch slice a put builds its leaf cell in (leafCell).
	cell []byte
}

// Serialize enables writer mutual exclusion for trees whose pager can block
// (buffered pagers with disk I/O), and arms the reader fence for surgery
// windows. Trees without Serialize use non-blocking pagers, where readers
// and writers cannot interleave.
func (t *Tree) Serialize(env *sim.Env) {
	if t.writers == nil {
		t.writers = sim.NewResource(env, 1)
		t.surgDone = sim.NewSignal(env)
	}
}

// beginSurgery opens a torn-structure window: the gen bump sends every
// already-positioned reader back through a re-seek, and the surgery count
// parks those re-seeks (and fresh ones) on the fence until endSurgery.
func (t *Tree) beginSurgery() {
	t.gen++
	t.surgeries++
}

// endSurgery closes a torn-structure window and releases fenced readers
// once no surgery remains.
func (t *Tree) endSurgery() {
	t.surgeries--
	if t.surgeries == 0 && t.surgDone != nil {
		t.surgDone.Fire()
	}
}

// readFence blocks p while a structural surgery's intermediate state is
// reachable. Surgery completion does not depend on readers, so the wait is
// always bounded.
func (t *Tree) readFence(p *sim.Proc) {
	for t.surgeries > 0 && t.surgDone != nil {
		t.surgDone.Wait(p)
	}
}

// Exclusive runs fn while holding the tree's writer lock (no-op if the tree
// is not serialised). Used by segment splits that must keep writers out
// across multi-step surgery.
func (t *Tree) Exclusive(p *sim.Proc, fn func() error) error {
	if t.writers != nil {
		t.writers.Acquire(p, 1)
		defer t.writers.Release(1)
	}
	return fn()
}

// New opens a tree with the given root (0 = empty). onRootChange, if
// non-nil, is called whenever the root page number changes.
func New(pager Pager, root storage.PageNo, onRootChange func(storage.PageNo)) *Tree {
	return &Tree{pager: pager, root: root, onRootChange: onRootChange}
}

// Root returns the current root page number (0 = empty tree).
func (t *Tree) Root() storage.PageNo { return t.root }

func (t *Tree) setRoot(no storage.PageNo) {
	t.root = no
	if t.onRootChange != nil {
		t.onRootChange(no)
	}
}

// Cell layouts.
//
// Leaf cell:  klen u16 | key | value
// Inner cell: klen u16 | key | child u32
//
// Inner cells are (separator, child) pairs sorted by separator; child covers
// keys >= separator, and the first cell's separator is treated as -infinity
// during descent.

// appendLeafCell appends the leaf cell of (key, val) to dst.
func appendLeafCell(dst, key, val []byte) []byte {
	dst = slices.Grow(dst, 2+len(key)+len(val))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// leafCell builds the leaf cell of (key, val) in the tree's scratch slice.
// The cell is valid until the next put builds one: a page copies it before
// anything can block, and split clones it first.
func (t *Tree) leafCell(key, val []byte) []byte {
	t.cell = appendLeafCell(t.cell[:0], key, val)
	return t.cell
}

func innerCell(key []byte, child storage.PageNo) []byte {
	c := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(c, uint16(len(key)))
	copy(c[2:], key)
	binary.LittleEndian.PutUint32(c[2+len(key):], uint32(child))
	return c
}

func cellKey(c []byte) []byte {
	kl := binary.LittleEndian.Uint16(c)
	return c[2 : 2+kl]
}

func leafCellValue(c []byte) []byte {
	kl := binary.LittleEndian.Uint16(c)
	return c[2+kl:]
}

func innerCellChild(c []byte) storage.PageNo {
	kl := binary.LittleEndian.Uint16(c)
	return storage.PageNo(binary.LittleEndian.Uint32(c[2+kl:]))
}

// search returns the slot of the first cell with key >= target and whether
// an exact match exists at that slot.
func search(pg storage.Page, key []byte) (int, bool) {
	lo, hi := 0, pg.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cellKey(pg.Cell(mid)), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < pg.NumSlots() && bytes.Equal(cellKey(pg.Cell(lo)), key) {
		return lo, true
	}
	return lo, false
}

// childSlot returns the slot of the inner cell whose subtree covers key:
// the rightmost cell with separator <= key, clamped to slot 0.
func childSlot(pg storage.Page, key []byte) int {
	i, exact := search(pg, key)
	if exact {
		return i
	}
	if i > 0 {
		i--
	}
	return i
}

// Get returns the value stored under key. If the tree changes structurally
// during the descent (a writer split pages while this reader waited on
// I/O), the lookup restarts: a stale descent could otherwise miss a key
// that moved to a new sibling. Descents wait out in-flight surgery windows
// (readFence) so they never walk a half-split subtree.
func (t *Tree) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
restart:
	t.readFence(p)
	if t.root == 0 {
		return nil, false, nil
	}
	startGen := t.gen
	no := t.root
	for {
		pg, rel, err := t.pager.Read(p, no)
		if err != nil {
			return nil, false, err
		}
		if t.gen != startGen {
			rel()
			goto restart
		}
		switch pg.Type() {
		case storage.PageInner:
			no = innerCellChild(pg.Cell(childSlot(pg, key)))
			rel()
		case storage.PageLeaf:
			i, exact := search(pg, key)
			if !exact {
				rel()
				if t.gen != startGen {
					goto restart
				}
				return nil, false, nil
			}
			val := bytes.Clone(leafCellValue(pg.Cell(i)))
			rel()
			return val, true, nil
		default:
			rel()
			return nil, false, fmt.Errorf("btree: page %d has type %d", no, pg.Type())
		}
	}
}

// Put inserts or replaces key's value, stamping modified pages with lsn
// (0 = no stamp). It reports whether the key already existed.
func (t *Tree) Put(p *sim.Proc, key, val []byte, lsn uint64) (bool, error) {
	if t.writers != nil {
		t.writers.Acquire(p, 1)
		defer t.writers.Release(1)
	}
	return t.PutLocked(p, key, val, lsn)
}

// PutLocked is Put for callers already inside Exclusive.
func (t *Tree) PutLocked(p *sim.Proc, key, val []byte, lsn uint64) (replaced bool, err error) {
	if len(key) == 0 {
		return false, fmt.Errorf("btree: empty key")
	}
	if max := (t.pager.PageSize() - 64) / 2; 2+len(key)+len(val) > max {
		return false, fmt.Errorf("btree: cell of %d bytes exceeds max %d", 2+len(key)+len(val), max)
	}
	if t.root == 0 {
		no, pg, rel, err := t.pager.Alloc(p)
		if err != nil {
			return false, err
		}
		pg.Init(storage.PageLeaf)
		pg.InsertCellAt(0, t.leafCell(key, val))
		pg.SetLSN(lsn)
		rel()
		t.setRoot(no)
		t.gen++
		return false, nil
	}
	replaced, sep, newChild, err := t.putInto(p, t.root, key, val, lsn)
	if err != nil {
		return false, err
	}
	if newChild != 0 {
		// Root split: build a new root over the two subtrees. The root
		// page's surgery window (opened by its split) closes once the new
		// root makes both halves reachable.
		no, pg, rel, err := t.pager.Alloc(p)
		if err != nil {
			t.endSurgery()
			return false, err
		}
		pg.Init(storage.PageInner)
		pg.InsertCellAt(0, innerCell([]byte{}, t.root))
		pg.InsertCellAt(1, innerCell(sep, newChild))
		pg.SetLSN(lsn)
		rel()
		t.setRoot(no)
		t.gen++
		t.endSurgery()
	}
	return replaced, nil
}

// putInto inserts below page no. If the page splits, it returns the new
// right sibling and its separator key for the parent to adopt.
func (t *Tree) putInto(p *sim.Proc, no storage.PageNo, key, val []byte, lsn uint64) (replaced bool, sep []byte, newRight storage.PageNo, err error) {
	pg, rel, err := t.pager.Read(p, no)
	if err != nil {
		return false, nil, 0, err
	}
	isLeaf := pg.Type() == storage.PageLeaf
	var child storage.PageNo
	if !isLeaf {
		child = innerCellChild(pg.Cell(childSlot(pg, key)))
	}
	rel()

	if !isLeaf {
		replaced, csep, cnew, err := t.putInto(p, child, key, val, lsn)
		if err != nil || cnew == 0 {
			return replaced, nil, 0, err
		}
		// Child split: adopt (csep, cnew). Re-pin for writing and
		// re-search, since the recursion may have yielded. The child's
		// surgery window stays open across this write pin — readers must
		// not walk the half-split subtree — and closes the moment its
		// separator is reachable from this page (or from the nested split's
		// result, whose own window the next level up closes).
		wpg, wrel, err := t.pager.Write(p, no)
		if err != nil {
			t.endSurgery()
			return replaced, nil, 0, err
		}
		defer wrel()
		cell := innerCell(csep, cnew)
		i, exact := search(wpg, csep)
		if exact {
			t.endSurgery()
			return replaced, nil, 0, fmt.Errorf("btree: duplicate separator %x", csep)
		}
		wpg.SetLSN(lsn)
		if wpg.InsertCellAt(i, cell) {
			t.endSurgery()
			return replaced, nil, 0, nil
		}
		sep, newRight, err = t.split(p, wpg, lsn, cell, i)
		t.endSurgery() // the child's separator now lives in this page or its new sibling
		return replaced, sep, newRight, err
	}

	wpg, wrel, err := t.pager.Write(p, no)
	if err != nil {
		return false, nil, 0, err
	}
	defer wrel()
	i, exact := search(wpg, key)
	wpg.SetLSN(lsn)
	if exact {
		if wpg.ReplaceCellAt(i, t.leafCell(key, val)) {
			return true, nil, 0, nil
		}
		// No room for the bigger value: delete and fall through to a
		// fresh insert (which may split).
		wpg.DeleteCellAt(i)
		replaced = true
	}
	cell := t.leafCell(key, val)
	if wpg.InsertCellAt(i, cell) {
		return replaced, nil, 0, nil
	}
	sep, newRight, err = t.split(p, wpg, lsn, cell, i)
	return replaced, sep, newRight, err
}

// split divides full page pg, inserting cell at logical slot i along the
// way. It returns the separator and new right page for the parent. It opens
// a surgery window (left page reformatted, separator not yet adopted) that
// the CALLER must close with endSurgery once the separator is reachable —
// directly after a successful parent insert, or after a nested split
// absorbed the cell.
func (t *Tree) split(p *sim.Proc, pg storage.Page, lsn uint64, cell []byte, i int) ([]byte, storage.PageNo, error) {
	n := pg.NumSlots()
	cells := make([][]byte, 0, n+1)
	for j := 0; j < n; j++ {
		cells = append(cells, bytes.Clone(pg.Cell(j)))
	}
	cells = append(cells[:i], append([][]byte{bytes.Clone(cell)}, cells[i:]...)...)

	// Split at the byte midpoint so variable-length cells balance.
	total := 0
	for _, c := range cells {
		total += len(c) + 4
	}
	splitAt, acc := 0, 0
	for j, c := range cells {
		acc += len(c) + 4
		if acc >= total/2 {
			splitAt = j + 1
			break
		}
	}
	if splitAt <= 0 {
		splitAt = 1
	}
	if splitAt >= len(cells) {
		splitAt = len(cells) - 1
	}

	rightNo, right, rrel, err := t.pager.Alloc(p)
	if err != nil {
		return nil, 0, err // tree untouched (segment full)
	}
	defer rrel()
	right.Init(pg.Type())
	right.SetLSN(lsn)
	for j, c := range cells[splitAt:] {
		if !right.InsertCellAt(j, c) {
			return nil, 0, fmt.Errorf("btree: split overflow on right page")
		}
	}
	// The right page is filled but unreachable; reformatting the left page
	// is the first mutation readers could observe, and from here until the
	// parent adopts the separator the upper half is invisible.
	t.beginSurgery()
	pg.Init(pg.Type()) // reformat left page in place
	pg.SetLSN(lsn)
	for j, c := range cells[:splitAt] {
		if !pg.InsertCellAt(j, c) {
			t.endSurgery()
			return nil, 0, fmt.Errorf("btree: split overflow on left page")
		}
	}
	sep := bytes.Clone(cellKey(right.Cell(0)))
	return sep, rightNo, nil
}

// Delete removes key, reporting whether it existed. Pages that empty out are
// freed; the root collapses as levels empty.
func (t *Tree) Delete(p *sim.Proc, key []byte, lsn uint64) (bool, error) {
	if t.writers != nil {
		t.writers.Acquire(p, 1)
		defer t.writers.Release(1)
	}
	return t.DeleteLocked(p, key, lsn)
}

// DeleteLocked is Delete for callers already inside Exclusive.
func (t *Tree) DeleteLocked(p *sim.Proc, key []byte, lsn uint64) (bool, error) {
	if t.root == 0 {
		return false, nil
	}
	deleted, emptied, err := t.deleteFrom(p, t.root, key, lsn)
	if err != nil {
		return false, err
	}
	if emptied {
		// The emptied root's surgery window (opened in deleteFrom) closes
		// once the root pointer stops referencing the freed page.
		if err := t.pager.Free(p, t.root); err != nil {
			t.endSurgery()
			return false, err
		}
		t.setRoot(0)
		t.gen++
		t.endSurgery()
	} else if deleted {
		if err := t.collapseRoot(p); err != nil {
			return false, err
		}
	}
	return deleted, nil
}

func (t *Tree) deleteFrom(p *sim.Proc, no storage.PageNo, key []byte, lsn uint64) (deleted, emptied bool, err error) {
	pg, rel, err := t.pager.Read(p, no)
	if err != nil {
		return false, false, err
	}
	// Invariant: whenever deleteFrom returns emptied=true, a surgery window
	// is open (begun at the deepest level that emptied) and stays open until
	// an ancestor frees the empty page — an empty inner page, or a freed
	// page still referenced by its parent, must never be walked by readers.
	if pg.Type() == storage.PageLeaf {
		rel()
		wpg, wrel, err := t.pager.Write(p, no)
		if err != nil {
			return false, false, err
		}
		defer wrel()
		i, exact := search(wpg, key)
		if !exact {
			return false, false, nil
		}
		wpg.DeleteCellAt(i)
		wpg.SetLSN(lsn)
		emptied = wpg.NumSlots() == 0
		if emptied {
			t.beginSurgery()
		}
		return true, emptied, nil
	}
	slot := childSlot(pg, key)
	child := innerCellChild(pg.Cell(slot))
	rel()
	deleted, childEmptied, err := t.deleteFrom(p, child, key, lsn)
	if err != nil || !childEmptied {
		return deleted, false, err
	}
	// Child page emptied (its surgery window is open): free it and drop its
	// cell, keeping the window open if this page empties in turn.
	if err := t.pager.Free(p, child); err != nil {
		t.endSurgery()
		return deleted, false, err
	}
	wpg, wrel, err := t.pager.Write(p, no)
	if err != nil {
		t.endSurgery()
		return deleted, false, err
	}
	defer wrel()
	// Re-locate the cell pointing to child (the page may have shifted).
	idx := -1
	for j := 0; j < wpg.NumSlots(); j++ {
		if innerCellChild(wpg.Cell(j)) == child {
			idx = j
			break
		}
	}
	if idx < 0 {
		t.endSurgery()
		return deleted, false, fmt.Errorf("btree: lost child %d during delete", child)
	}
	wpg.DeleteCellAt(idx)
	wpg.SetLSN(lsn)
	emptied = wpg.NumSlots() == 0
	if !emptied {
		t.endSurgery()
	}
	return deleted, emptied, nil
}

// collapseRoot replaces a single-child inner root by its child, repeatedly.
func (t *Tree) collapseRoot(p *sim.Proc) error {
	for t.root != 0 {
		pg, rel, err := t.pager.Read(p, t.root)
		if err != nil {
			return err
		}
		if pg.Type() != storage.PageInner || pg.NumSlots() != 1 {
			rel()
			return nil
		}
		child := innerCellChild(pg.Cell(0))
		rel()
		// Surgery: the root page is freed before the root pointer moves
		// off it; readers must not descend through the recycled page.
		t.beginSurgery()
		if err := t.pager.Free(p, t.root); err != nil {
			t.endSurgery()
			return err
		}
		t.setRoot(child)
		t.gen++
		t.endSurgery()
	}
	return nil
}
