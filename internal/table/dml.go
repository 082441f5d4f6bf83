package table

import (
	"bytes"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/sim"
)

// LookupState classifies a Lookup result.
type LookupState int

const (
	// LookupAbsent: no version of the key is visible at the snapshot.
	LookupAbsent LookupState = iota
	// LookupLive: a visible value exists.
	LookupLive
	// LookupDeleted: the newest visible version is a tombstone.
	LookupDeleted
)

// Get returns the row payload of key visible to txn.
func (pt *Partition) Get(p *sim.Proc, txn *cc.Txn, key []byte) ([]byte, bool, error) {
	v, state, err := pt.Lookup(p, txn, key)
	return v, state == LookupLive, err
}

// Lookup is Get distinguishing an absent key from a visible tombstone.
// Migration routing needs the distinction: a committed tombstone at a
// range's new location is authoritative and must not fall back to (and
// resurrect) the old location's copy.
func (pt *Partition) Lookup(p *sim.Proc, txn *cc.Txn, key []byte) ([]byte, LookupState, error) {
	if err := pt.down(); err != nil {
		return nil, LookupAbsent, err
	}
	if err := pt.tooOld(txn); err != nil {
		return nil, LookupAbsent, err
	}
	pt.stats.Reads++
	pt.deps.compute(p, pt.deps.CPUPerOp)
	if txn.Mode == cc.Locking {
		return pt.lookupLocking(p, txn, key)
	}
	leaf, err := pt.readRouted(p, txn, key)
	if err != nil {
		return nil, LookupAbsent, err
	}
	v, exists := pt.Store.VisibleVersion(txn, string(key), leaf)
	switch {
	case !exists:
		return nil, LookupAbsent, nil
	case v.Deleted:
		return nil, LookupDeleted, nil
	}
	return v.Val, LookupLive, nil
}

func (pt *Partition) lookupLocking(p *sim.Proc, txn *cc.Txn, key []byte) ([]byte, LookupState, error) {
	if err := pt.lock(p, txn, pt.lockName(), cc.LockIR); err != nil {
		return nil, LookupAbsent, err
	}
	if err := pt.lock(p, txn, pt.keyLockName(key), cc.LockR); err != nil {
		return nil, LookupAbsent, err
	}
	leaf, err := pt.readRouted(p, txn, key)
	switch {
	case err != nil || leaf == nil:
		return nil, LookupAbsent, err
	case leaf.Deleted:
		return nil, LookupDeleted, nil
	}
	return leaf.Val, LookupLive, nil
}

// readRouted reads key's current tree version on the read path. A segment
// split may move the key to a new mini-partition, and drop it from the old
// tree, while the read is blocked there; the read then re-resolves until
// routing held still across it, the way treePut re-homes a write.
func (pt *Partition) readRouted(p *sim.Proc, txn *cc.Txn, key []byte) (*cc.Version, error) {
	for {
		tr, err := pt.readTree(txn, key)
		if err != nil {
			return nil, err
		}
		leaf, err := readLeaf(p, tr, key)
		if err != nil || pt.Scheme != Physiological {
			return leaf, err
		}
		if now, rerr := pt.readTree(txn, key); rerr != nil || now == tr {
			return leaf, nil
		}
	}
}

// GetForUpdate reads key for an update that follows. It takes the key's write
// intent before reading, under the partition's IX lock as a write does, then
// reads the newest committed version and stages it back as txn's own write, so
// commit and abort release the intent like any other. Where the intent rule
// finds the key committed above txn's snapshot, r may move the snapshot up
// instead of the read dying (cc.AcquireRefreshing). An absent or deleted key
// returns ok=false and leaves no intent behind. The returned payload is the
// staged value: the caller must not modify it. Under locking it is Get.
func (pt *Partition) GetForUpdate(p *sim.Proc, txn *cc.Txn, key []byte, r cc.Refresher) ([]byte, bool, error) {
	if txn.Mode == cc.Locking {
		return pt.Get(p, txn, key)
	}
	if err := pt.down(); err != nil {
		return nil, false, err
	}
	if err := pt.tooOld(txn); err != nil {
		return nil, false, err
	}
	if !txn.Active() {
		return nil, false, cc.ErrTxnNotActive
	}
	pt.stats.Reads++
	pt.deps.compute(p, pt.deps.CPUPerOp)
	ks, leaf, err := pt.intent(p, txn, key, r)
	if err != nil {
		return nil, false, err
	}
	if own, ok := pt.Store.HasIntent(txn, ks); ok {
		return own.Val, !own.Deleted, nil
	}
	var leafTS cc.Timestamp
	if leaf != nil {
		leafTS = leaf.TS
	}
	if pt.Store.StaleLeaf(ks, leafTS) {
		// An install landed while the intent was awaited: read it.
		var tr *btree.Tree
		if tr, _, err = pt.writeTree(p, key); err == nil {
			leaf, err = readLeaf(p, tr, key)
		}
		if err == nil {
			err = pt.down()
		}
		if err != nil {
			pt.Store.AbortKey(txn, ks)
			return nil, false, err
		}
	}
	v, exists := pt.Store.VisibleVersion(txn, ks, leaf)
	if !exists || v.Deleted {
		pt.Store.AbortKey(txn, ks)
		return nil, false, nil
	}
	pt.pending[txn.ID] = append(pt.pending[txn.ID], ks)
	pt.Store.StagePending(txn, ks, false, v.Val)
	return v.Val, true, nil
}

// Put inserts or updates key with payload under txn.
func (pt *Partition) Put(p *sim.Proc, txn *cc.Txn, key, payload []byte) error {
	return pt.write(p, txn, key, payload, false)
}

// Delete removes key under txn (a no-op if absent, like SQL DELETE).
func (pt *Partition) Delete(p *sim.Proc, txn *cc.Txn, key []byte) error {
	return pt.write(p, txn, key, nil, true)
}

func (pt *Partition) write(p *sim.Proc, txn *cc.Txn, key, payload []byte, deleted bool) error {
	if err := pt.down(); err != nil {
		return err
	}
	if !txn.Active() {
		return cc.ErrTxnNotActive
	}
	pt.stats.Writes++
	pt.deps.compute(p, pt.deps.CPUPerOp)
	if txn.Mode == cc.Locking {
		return pt.writeLocking(p, txn, key, payload, deleted)
	}
	ks, _, err := pt.intent(p, txn, key, nil)
	if err != nil {
		return err
	}
	if _, already := pt.Store.HasIntent(txn, ks); !already {
		pt.pending[txn.ID] = append(pt.pending[txn.ID], ks)
	}
	pt.Store.StagePending(txn, ks, deleted, bytes.Clone(payload))
	return nil
}

// intent takes key's write intent for txn and returns the key as the version
// store holds it and the tree version read before the intent was granted
// (nil if absent). r is handed to the intent rule (cc.AcquireRefreshing).
//
// IX on the partition announces write activity to segment movers, which take
// R on the same name ("a read lock is acquired on the source partition,
// waiting for pre-existing queries to finish updating the partition", Sect.
// 4.3). The lock must precede routing: a writer that queued behind a mover
// would otherwise stage a write for a range that left the partition while it
// waited.
func (pt *Partition) intent(p *sim.Proc, txn *cc.Txn, key []byte, r cc.Refresher) (string, *cc.Version, error) {
	if err := pt.lock(p, txn, pt.lockName(), cc.LockIX); err != nil {
		return "", nil, err
	}
	tr, _, err := pt.writeTree(p, key)
	if err != nil {
		return "", nil, err
	}
	leaf, err := readLeaf(p, tr, key)
	if err != nil {
		return "", nil, err
	}
	var leafTS cc.Timestamp
	if leaf != nil {
		leafTS = leaf.TS
	}
	ks := string(key)
	if err := pt.Store.AcquireRefreshing(p, txn, ks, leafTS, pt.deps.LockTimeout, r); err != nil {
		return "", nil, pt.orDown(err)
	}
	return ks, leaf, nil
}

func (pt *Partition) writeLocking(p *sim.Proc, txn *cc.Txn, key, payload []byte, deleted bool) error {
	if err := pt.lock(p, txn, pt.lockName(), cc.LockIX); err != nil {
		return err
	}
	tr, segID, err := pt.writeTree(p, key)
	if err != nil {
		return err
	}
	if err := pt.lock(p, txn, pt.segLockName(segID), cc.LockIX); err != nil {
		return err
	}
	if err := pt.lock(p, txn, pt.keyLockName(key), cc.LockX); err != nil {
		return err
	}
	old, err := readLeaf(p, tr, key)
	if err != nil {
		return err
	}
	return pt.applyWrite(p, txn, tr, key, old, payload, deleted)
}

// applyWrite performs an immediate (locking-mode) tree modification with
// logging and undo registration.
func (pt *Partition) applyWrite(p *sim.Proc, txn *cc.Txn, tr *btree.Tree, key []byte, old *cc.Version, payload []byte, deleted bool) error {
	newVer := cc.Version{TS: txn.Begin, Deleted: deleted, Val: bytes.Clone(payload)}
	rec := pt.logRecord(txn, key, old, newVer)
	lsn := pt.deps.Log.Append(rec)
	keyCopy := bytes.Clone(key)
	if deleted {
		if _, err := pt.treeDelete(p, keyCopy, lsn); err != nil {
			return err
		}
	} else {
		if _, err := pt.treePut(p, keyCopy, EncodeValue(newVer), lsn); err != nil {
			return err
		}
	}
	oldCopy := cloneVersion(old)
	// Compensations route through the partition, not the captured tree: a
	// segment split may re-home the record between do and undo.
	txn.PushUndo(func(up *sim.Proc) {
		if oldCopy == nil {
			pt.treeDelete(up, keyCopy, 0)
		} else {
			pt.treePut(up, keyCopy, EncodeValue(*oldCopy), 0)
		}
	})
	return nil
}

func cloneVersion(v *cc.Version) *cc.Version {
	if v == nil {
		return nil
	}
	c := *v
	c.Val = bytes.Clone(v.Val)
	return &c
}

// Scan iterates records with keys in [lo, hi) visible to txn, in key order.
// fn returning false stops the scan. Under locking mode the scan takes an
// IR lock on the partition and R locks on every record it emits (held to
// end of transaction, as MGL-RX prescribes).
func (pt *Partition) Scan(p *sim.Proc, txn *cc.Txn, lo, hi []byte, fn func(key, payload []byte) bool) error {
	return pt.scan(p, txn, lo, hi, func(k, v []byte, deleted bool) bool {
		if deleted {
			return true
		}
		return fn(k, v)
	})
}

// ScanWithTombstones is Scan also delivering visible tombstones (with
// deleted=true and a nil payload). Migration routing uses it so a range's
// new location can suppress stale copies at the old one: a key the new
// location has any committed version for — live or deleted — must not be
// served from the old copy.
func (pt *Partition) ScanWithTombstones(p *sim.Proc, txn *cc.Txn, lo, hi []byte, fn func(key, payload []byte, deleted bool) bool) error {
	return pt.scan(p, txn, lo, hi, fn)
}

func (pt *Partition) scan(p *sim.Proc, txn *cc.Txn, lo, hi []byte, fn func(key, payload []byte, deleted bool) bool) error {
	if err := pt.down(); err != nil {
		return err
	}
	if err := pt.tooOld(txn); err != nil {
		return err
	}
	if txn.Mode == cc.Locking {
		if err := pt.lock(p, txn, pt.lockName(), cc.LockIR); err != nil {
			return err
		}
	}
	// Committed writes whose tree install is still in flight have no leaf
	// for the tree walk to find (fresh inserts on a migration target, for
	// example); merge them into the stream in key order so the scan cannot
	// miss records its snapshot covers. Any such write's commit timestamp
	// predates the reader's snapshot — and hence this scan's start — so the
	// set captured here is complete for the whole walk. Locking-mode scans
	// need the same merge: an MVCC writer takes no key locks, so its
	// committed-but-installing insert is equally invisible to the tree walk
	// of an MGL reader. (Merged records are emitted without per-key R locks:
	// there is no leaf to lock yet, and the committed writer holds no lock
	// the reader could conflict with.)
	pend := pt.Store.CommittedPending(txn, lo, hi)
	pi := 0
	consumerStop := false
	send := func(k, v []byte, deleted bool) bool {
		if !fn(k, v, deleted) {
			consumerStop = true
			return false
		}
		return true
	}
	deliver := func(k, v []byte, deleted bool) bool {
		for pi < len(pend) {
			c := bytes.Compare([]byte(pend[pi].Key), k)
			if c > 0 {
				break
			}
			pv := pend[pi]
			pi++
			if c == 0 {
				// The install landed mid-scan and the tree emitted it; the
				// tree path already resolved the same version.
				break
			}
			if !send([]byte(pv.Key), pv.Ver.Val, pv.Ver.Deleted) {
				return false
			}
		}
		return send(k, v, deleted)
	}
	// flushPending delivers the pending-committed writes beyond the last
	// tree record once the walk completes (never after a consumer stop).
	flushPending := func() {
		for !consumerStop && pi < len(pend) {
			pv := pend[pi]
			pi++
			send([]byte(pv.Key), pv.Ver.Val, pv.Ver.Deleted)
		}
	}
	emit := func(k, raw []byte) (bool, error) {
		if err := pt.down(); err != nil {
			// The node power-failed at a blocking point mid-scan; the
			// version chains are gone, so continuing could skip records.
			return false, err
		}
		pt.stats.ScannedTuples++
		pt.deps.compute(p, pt.deps.CPUPerTuple)
		leaf, err := DecodeValue(raw)
		if err != nil {
			return false, err
		}
		ks := string(k)
		leafV := &leaf
		if pt.Store.StaleLeaf(ks, leaf.TS) {
			// The batched cursor copied this leaf before a later install
			// landed: re-read the record's current tree version, wherever a
			// split moved it since. A snapshot reader then resolves via the
			// leaf or the history versions the newer installs pushed; a
			// locking reader must serve the current committed state, which
			// only the fresh leaf holds.
			leafV, err = pt.readRouted(p, txn, k)
			if err != nil {
				return false, err
			}
		}
		if txn.Mode == cc.Locking {
			if leafV == nil {
				return true, nil // vacuumed between the copy and the re-read
			}
			if leafV.Deleted {
				return deliver(k, nil, true), nil
			}
			if err := pt.lock(p, txn, pt.keyLockName(k), cc.LockR); err != nil {
				return false, err
			}
			return deliver(k, leafV.Val, false), nil
		}
		v, exists := pt.Store.VisibleVersion(txn, ks, leafV)
		if !exists {
			return true, nil
		}
		if v.Deleted {
			return deliver(k, nil, true), nil
		}
		return deliver(k, v.Val, false), nil
	}

	if pt.Scheme != Physiological {
		var scanErr error
		err := pt.span.Scan(p, lo, hi, func(k, raw []byte) bool {
			cont, err := emit(k, raw)
			if err != nil {
				scanErr = err
				return false
			}
			return cont
		})
		if err == nil {
			err = scanErr
		}
		if err == nil {
			flushPending()
		}
		return err
	}

	// Physiological: walk mini-partitions in key order. The responsible
	// segment is re-resolved after each one finishes, so segment splits and
	// detachments during the scan (at blocking points) cannot skip records:
	// a split only narrows the current handle and adds its upper half to
	// the right, and a detached handle stays readable as a ghost for
	// snapshots predating the move.
	cur := lo
	// lastSeen tracks the largest key this walk has processed. The backing
	// array keeps typical keys off the heap: scans run per executor batch
	// and must not allocate in steady state (longer keys fall back to a
	// heap append).
	var lastArr [64]byte
	lastSeen := lastArr[:0]
	for {
		h := pt.nextSegFor(txn, cur)
		if h == nil || (hi != nil && bytes.Compare(h.Low, hi) >= 0) {
			flushPending()
			return nil
		}
		slo, shi := maxKey(cur, h.Low), minKey(hi, h.High)
		stopped := false
		var scanErr error
		err := h.Tree.Scan(p, slo, shi, func(k, raw []byte) bool {
			if h.High != nil && bytes.Compare(k, h.High) >= 0 {
				// A split published a new mini-partition for the rest of the
				// range while the walk was blocked; the records the old tree
				// still holds there are stale copies on their way out.
				return false
			}
			lastSeen = append(lastSeen[:0], k...)
			cont, err := emit(k, raw)
			if err != nil {
				scanErr = err
				return false
			}
			if !cont {
				stopped = true
			}
			return cont
		})
		if err == nil {
			err = scanErr
		}
		if err != nil || stopped {
			return err
		}
		if h.High == nil { // note: re-read after the scan (splits narrow it)
			flushPending()
			return nil
		}
		cur = h.High
		if len(lastSeen) > 0 && bytes.Compare(lastSeen, cur) >= 0 {
			// A concurrent split narrowed the handle below keys the batched
			// cursor had already delivered from the pre-split leaves; the
			// records above the new boundary moved to the right-hand
			// segment, and re-entering it at h.High would emit them twice.
			cur = append(bytes.Clone(lastSeen), 0)
		}
	}
}

// nextSegFor returns the segment (live, or ghost readable by txn) serving
// scan position cur (nil = start): among handles with High > cur, the one
// with the smallest Low.
func (pt *Partition) nextSegFor(txn *cc.Txn, cur []byte) *SegHandle {
	var best *SegHandle
	consider := func(h *SegHandle) {
		if h.Tree == nil {
			return
		}
		if cur != nil && h.High != nil && bytes.Compare(h.High, cur) <= 0 {
			return
		}
		if best == nil || bytes.Compare(h.Low, best.Low) < 0 {
			best = h
		}
	}
	for _, h := range pt.segs {
		consider(h)
	}
	for _, g := range pt.ghosts {
		if txn.Begin <= g.moveTS {
			consider(g.handle)
		}
	}
	return best
}

func maxKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if bytes.Compare(a, b) >= 0 {
		return a
	}
	return b
}

func minKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if bytes.Compare(a, b) <= 0 {
		return a
	}
	return b
}
