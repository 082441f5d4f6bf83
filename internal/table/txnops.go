package table

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/wal"
)

// Empty reports whether the partition holds no data at all: no live
// segments with records, no ghosts, no staged writes. Empty partitions can
// be dropped when quiescing a node.
func (pt *Partition) Empty() bool {
	if len(pt.ghosts) > 0 || len(pt.pending) > 0 {
		return false
	}
	for _, h := range pt.segs {
		if h.Seg.UsedPages() > 0 {
			return false
		}
	}
	return true
}

// MovementLockName is the lock a segment mover must hold in R mode to
// drain and exclude writers of this partition during the move.
func (pt *Partition) MovementLockName() string { return pt.lockName() }

// ChangedSince reports whether a key of [lo, hi) in this partition has a
// foreign write in flight or committed past txn's snapshot (see
// cc.VersionStore.ChangedSince).
func (pt *Partition) ChangedSince(txn *cc.Txn, lo, hi []byte) bool {
	return pt.Store.ChangedSince(txn, lo, hi, len(pt.pending[txn.ID]))
}

// HasPending reports whether txn staged writes in this partition.
func (pt *Partition) HasPending(txn *cc.Txn) bool {
	return len(pt.pending[txn.ID]) > 0
}

// LogPrepare appends redo images of txn's staged writes to the node's log
// (prepare-time DML logging): each pending key becomes a RecPrepDML or
// RecPrepDel record carrying the raw staged payload. The commit timestamp is
// unknown until the coordinator decides, so recovery stamps it when rolling
// an in-doubt branch forward. The caller forces the log through the
// follow-up prepare record, making the whole branch durable before the
// coordinator's commit point. Locking-mode transactions have nothing to
// image: their eager writes were logged (and only need the force).
func (pt *Partition) LogPrepare(txn *cc.Txn) {
	for _, ks := range pt.pending[txn.ID] {
		v, ok := pt.Store.HasIntent(txn, ks)
		if !ok {
			continue
		}
		// Append encodes the record into the log's segment buffer at once,
		// so the staged value can be passed through without a copy.
		rec := wal.Record{Txn: txn.ID, Part: uint64(pt.ID), Key: []byte(ks)}
		if v.Deleted {
			rec.Type = wal.RecPrepDel
		} else {
			rec.Type = wal.RecPrepDML
			rec.After = v.Val
		}
		pt.deps.Log.Append(rec)
	}
}

// Commit installs txn's staged MVCC writes into the trees at commitTS,
// logging each with before/after images. The caller is responsible for the
// commit record and log flush (so multi-partition transactions on one node
// share a single group-commit flush). Locking-mode transactions have
// nothing to install (writes applied eagerly); their pending list is empty.
// A power failure at any blocking point inside the install loop surfaces as
// ErrPartitionDown: the remaining writes died with the node's DRAM and are
// re-derived on restart (from the prepare-time log for decided distributed
// branches, or rolled back for everything else).
func (pt *Partition) Commit(p *sim.Proc, txn *cc.Txn, commitTS cc.Timestamp) error {
	if err := pt.down(); err != nil {
		return err
	}
	keys := pt.pending[txn.ID]
	delete(pt.pending, txn.ID)
	for _, ks := range keys {
		if err := pt.down(); err != nil { // node power-failed mid-install
			return err
		}
		key := []byte(ks)
		tr, _, err := pt.writeTree(p, key)
		if err != nil {
			return err
		}
		old, err := readLeaf(p, tr, key)
		if err != nil {
			return err
		}
		// Install first, release the write intent after: while the tree
		// install blocks on I/O, readers whose snapshot covers commitTS are
		// served the committed value through the version store's
		// committed-writer path instead of the stale leaf.
		v := pt.Store.BeginCommitKey(txn, ks, commitTS)
		rec := pt.logRecord(txn, key, old, v)
		lsn := pt.deps.Log.Append(rec)
		if _, err := pt.treePut(p, key, EncodeValue(v), lsn); err != nil {
			if derr := pt.down(); derr != nil {
				return derr // the install blocked across the power failure
			}
			return err
		}
		pt.Store.FinishCommitKey(txn, ks, old, commitTS)
		if v.Deleted {
			pt.tombs[ks] = struct{}{}
		}
	}
	pt.stats.Commits++
	return nil
}

// Abort discards txn's staged writes (MVCC) and runs undo (locking mode).
// Aborting against a power-failed partition is a no-op: the staged state is
// already gone.
func (pt *Partition) Abort(p *sim.Proc, txn *cc.Txn) {
	if pt.failed {
		return
	}
	for _, ks := range pt.pending[txn.ID] {
		pt.Store.AbortKey(txn, ks)
	}
	delete(pt.pending, txn.ID)
	pt.stats.Aborts++
}

// logRecord builds the WAL record for installing v over old. The log
// encodes on Append, so the key is borrowed, never retained.
func (pt *Partition) logRecord(txn *cc.Txn, key []byte, old *cc.Version, v cc.Version) wal.Record {
	rec := wal.Record{Txn: txn.ID, Part: uint64(pt.ID), Key: key}
	switch {
	case old == nil:
		rec.Type = wal.RecInsert
	case v.Deleted:
		rec.Type = wal.RecDelete
	default:
		rec.Type = wal.RecUpdate
	}
	if old != nil {
		rec.Before = EncodeValue(*old)
	}
	rec.After = EncodeValue(v) // tombstones are installed as values
	return rec
}

// ErrSplitRaced reports that a segment split lost a race with a concurrent
// structural change; callers should re-route and retry.
var ErrSplitRaced = errors.New("table: segment split raced with a concurrent change")

// treePut writes an encoded value, splitting the target mini-partition and
// retrying when its segment fills up (physiological growth path). Split
// races with concurrent writers are retried with fresh routing, and a put
// that parked behind a concurrent split re-homes its record: the split may
// have narrowed the target mini-partition below the key while the put
// waited for the tree's writer lock, in which case the record would land in
// a tree whose range no longer covers it — invisible to every read, which
// routes by handle ranges.
func (pt *Partition) treePut(p *sim.Proc, key, val []byte, lsn uint64) (bool, error) {
	for attempt := 0; ; attempt++ {
		tr, _, err := pt.writeTree(p, key)
		if err != nil {
			return false, err
		}
		replaced, err := tr.Put(p, key, val, lsn)
		if err == btree.ErrSegmentFull {
			if pt.Scheme != Physiological || attempt >= 8 {
				return false, err
			}
			h, rerr := pt.routeWrite(p, key)
			if rerr != nil {
				return false, rerr
			}
			if serr := pt.SplitSegment(p, h); serr != nil && serr != ErrSplitRaced {
				return false, serr
			}
			continue
		}
		if err != nil {
			return false, err
		}
		if pt.Scheme != Physiological {
			return replaced, nil
		}
		// No blocking call separates Put returning from this ownership
		// check, so the answer is stable: either the record is in the tree
		// reads route to, or a split stranded it and it must move.
		if h := pt.SegmentContaining(key); h != nil && h.Tree == tr {
			return replaced, nil
		}
		if _, derr := tr.Delete(p, key, lsn); derr != nil {
			return false, derr
		}
	}
}

// treeDelete removes key from the tree that currently owns it, re-issuing
// the delete if a concurrent split moved the record to a new mini-partition
// while the call was parked (the mirror of treePut's re-homing).
func (pt *Partition) treeDelete(p *sim.Proc, key []byte, lsn uint64) (bool, error) {
	for {
		tr, _, err := pt.writeTree(p, key)
		if err != nil {
			return false, err
		}
		existed, err := tr.Delete(p, key, lsn)
		if err != nil {
			return false, err
		}
		if pt.Scheme != Physiological {
			return existed, nil
		}
		if h := pt.SegmentContaining(key); h == nil || h.Tree == tr {
			return existed, nil
		}
	}
}

// SplitSegment splits mini-partition h at its median key: the upper half of
// its records is bulk-moved into a fresh segment. This is the paper's
// partition split, triggered when a segment overflows or when a hot
// mini-partition must be divided before migration.
func (pt *Partition) SplitSegment(p *sim.Proc, h *SegHandle) error {
	return pt.splitSeg(p, h, nil)
}

// SegmentContaining returns the live mini-partition covering key, or nil.
func (pt *Partition) SegmentContaining(key []byte) *SegHandle {
	for _, h := range pt.segs {
		if h.Contains(key) {
			return h
		}
	}
	return nil
}

// SplitSegmentAt divides mini-partition h at exactly key: records >= key
// move to a fresh segment covering [key, h.High). Used when a migration
// boundary falls inside a segment.
func (pt *Partition) SplitSegmentAt(p *sim.Proc, h *SegHandle, key []byte) error {
	if pt.Scheme != Physiological {
		return fmt.Errorf("table: segment split on %v partition", pt.Scheme)
	}
	return pt.splitSeg(p, h, key)
}

// splitSeg performs the split; a nil key means "at the median". All
// decisions happen under the old tree's writer lock so no record can slip
// into the moved range mid-split and no concurrent split can invalidate the
// chosen boundary.
func (pt *Partition) splitSeg(p *sim.Proc, h *SegHandle, key []byte) error {
	// Hold the old tree's writer lock for the whole surgery.
	return h.Tree.Exclusive(p, func() error {
		if key == nil {
			// Find the median under the lock.
			total := 0
			if err := h.Tree.Scan(p, nil, nil, func(_, _ []byte) bool { total++; return true }); err != nil {
				return err
			}
			if total < 2 {
				return ErrSplitRaced // someone already moved the records out
			}
			idx := 0
			if err := h.Tree.Scan(p, nil, nil, func(k, _ []byte) bool {
				if idx >= total/2 {
					key = bytes.Clone(k)
					return false
				}
				idx++
				return true
			}); err != nil {
				return err
			}
		}
		if bytes.Compare(key, h.Low) <= 0 || (h.High != nil && bytes.Compare(key, h.High) >= 0) {
			return ErrSplitRaced // the handle's range changed underneath us
		}
		type pair struct{ k, v []byte }
		var upper []pair
		if err := h.Tree.Scan(p, key, nil, func(k, v []byte) bool {
			upper = append(upper, pair{bytes.Clone(k), bytes.Clone(v)})
			return true
		}); err != nil {
			return err
		}
		midKey := bytes.Clone(key)

		seg, err := pt.deps.Factory.NewSegment(p)
		if err != nil {
			return err
		}
		nh := &SegHandle{
			Seg:   seg,
			Pager: pt.deps.Factory.Pager(seg),
			Low:   midKey,
			High:  h.High,
		}
		nh.Tree = btree.New(nh.Pager, 0, func(no storage.PageNo) { seg.TreeRoot = no })
		i := 0
		if err := nh.Tree.BulkLoad(p, 0.9, func() ([]byte, []byte, bool) {
			if i >= len(upper) {
				return nil, nil, false
			}
			pr := upper[i]
			i++
			return pr.k, pr.v, true
		}); err != nil {
			return err
		}
		nh.Tree.Serialize(pt.deps.Env)
		// Publish the new mini-partition before removing the moved records
		// from the old tree: the deletes block on I/O, and a reader routed
		// meanwhile must find every record where routing sends it. Readers
		// still inside the old tree stop at its new bound (scan) or re-resolve
		// (Lookup).
		h.High = midKey
		h.Seg.HighKey = midKey
		seg.LowKey, seg.HighKey = nh.Low, nh.High
		pt.addSegmentSorted(nh)
		for _, pr := range upper {
			if _, err := h.Tree.DeleteLocked(p, pr.k, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// Vacuum physically removes tombstones whose deletion is older than the
// MVCC watermark (no snapshot can see the record anymore) and garbage
// collects version chains. It returns the number of tombstones removed.
// Vacuum removal is not logged: redoing an old delete just reinstalls a
// tombstone, and the replay registers it (RecoveryPut), so a later vacuum
// removes it again.
func (pt *Partition) Vacuum(p *sim.Proc, watermark cc.Timestamp) (int, error) {
	if err := pt.down(); err != nil {
		return 0, err
	}
	removed := 0
	// Tombstones are visited in key order: each removal performs simulated
	// tree I/O, so map-iteration order would leak into the virtual clock and
	// break run-to-run determinism.
	ordered := make([]string, 0, len(pt.tombs))
	for ks := range pt.tombs {
		ordered = append(ordered, ks)
	}
	sort.Strings(ordered)
	for _, ks := range ordered {
		if err := pt.down(); err != nil { // node crashed mid-vacuum
			return removed, err
		}
		key := []byte(ks)
		tr, _, err := pt.writeTree(p, key)
		if err != nil {
			// Key range moved away; its tombstone moved with it.
			delete(pt.tombs, ks)
			continue
		}
		leaf, err := readLeaf(p, tr, key)
		if err != nil {
			return removed, err
		}
		if leaf == nil {
			delete(pt.tombs, ks)
			continue
		}
		if !leaf.Deleted || leaf.TS >= watermark {
			continue
		}
		if _, err := pt.treeDelete(p, key, 0); err != nil {
			return removed, err
		}
		delete(pt.tombs, ks)
		removed++
	}
	pt.Store.GC(watermark)
	return removed, nil
}

// RecoveryPut implements wal.Target: raw install bypassing CC. A tombstone
// is registered for vacuum, as a live commit registers it.
func (pt *Partition) RecoveryPut(p *sim.Proc, key, val []byte) error {
	v, err := DecodeValue(val)
	if err == nil {
		pt.RaiseHistoryFloor(v.TS)
	}
	if _, err := pt.treePut(p, key, val, 0); err != nil {
		return err
	}
	if v.Deleted {
		pt.tombs[string(key)] = struct{}{}
	}
	return nil
}

// RecoveryDelete implements wal.Target.
func (pt *Partition) RecoveryDelete(p *sim.Proc, key []byte) error {
	_, err := pt.treeDelete(p, key, 0)
	return err
}

// DetachSegment removes mini-partition h from live service, keeping it as a
// ghost readable by snapshots begun at or before moveTS (the paper's "old
// copies of the records still remain until the movement is finished").
func (pt *Partition) DetachSegment(h *SegHandle, moveTS cc.Timestamp) error {
	if pt.Scheme != Physiological {
		return fmt.Errorf("table: DetachSegment on %v partition", pt.Scheme)
	}
	for i, s := range pt.segs {
		if s == h {
			pt.segs = append(pt.segs[:i], pt.segs[i+1:]...)
			pt.ghosts = append(pt.ghosts, ghost{handle: h, moveTS: moveTS})
			return nil
		}
	}
	return fmt.Errorf("table: segment %d not part of partition %d", h.Seg.ID, pt.ID)
}

// AdoptSegment incorporates a shipped mini-partition into this partition:
// "as soon as segments arrive at the new node, they are incorporated in its
// index and the new node overtakes query processing" (Sect. 5.2). The
// partition's own bounds widen if needed.
func (pt *Partition) AdoptSegment(seg *storage.Segment) (*SegHandle, error) {
	if pt.Scheme != Physiological {
		return nil, fmt.Errorf("table: AdoptSegment on %v partition", pt.Scheme)
	}
	h := &SegHandle{
		Seg:   seg,
		Pager: pt.deps.Factory.Pager(seg),
		Low:   seg.LowKey,
		High:  seg.HighKey,
	}
	h.Tree = btree.New(h.Pager, seg.TreeRoot, func(no storage.PageNo) { seg.TreeRoot = no })
	h.Tree.Serialize(pt.deps.Env)
	pt.addSegmentSorted(h)
	if len(pt.Low) == 0 || bytes.Compare(h.Low, pt.Low) < 0 {
		pt.Low = h.Low
	}
	if pt.High != nil && (h.High == nil || bytes.Compare(h.High, pt.High) > 0) {
		pt.High = h.High
	}
	return h, nil
}

// DropGhost releases a ghost segment once no old reader needs it.
func (pt *Partition) DropGhost(p *sim.Proc, segID storage.SegID) error {
	for i, g := range pt.ghosts {
		if g.handle.Seg.ID == segID {
			pt.ghosts = append(pt.ghosts[:i], pt.ghosts[i+1:]...)
			pt.deps.Factory.DropSegment(p, segID)
			return nil
		}
	}
	return fmt.Errorf("table: no ghost segment %d in partition %d", segID, pt.ID)
}

// Ghosts returns the number of ghost segments awaiting reader drain.
func (pt *Partition) Ghosts() int { return len(pt.ghosts) }

// SegIDs lists every segment the partition references — live handles and
// ghosts — so a dead partition's storage can be released when a restarted
// node swaps in its recovered replacement.
func (pt *Partition) SegIDs() []storage.SegID {
	out := make([]storage.SegID, 0, len(pt.segs)+len(pt.ghosts))
	for _, h := range pt.segs {
		out = append(out, h.Seg.ID)
	}
	for _, g := range pt.ghosts {
		out = append(out, g.handle.Seg.ID)
	}
	return out
}

// CommitTxn drives the full commit of txn across the given co-located
// partitions: install writes, write the commit record, group-commit flush,
// release locks. It is the single-node transaction epilogue; the cluster's
// two-phase commit calls the same partition primitives per branch.
func CommitTxn(p *sim.Proc, txn *cc.Txn, parts ...*Partition) error {
	if !txn.Active() {
		return cc.ErrTxnNotActive
	}
	deps := &parts[0].deps
	commitTS := deps.Oracle.CommitTS(txn)
	for _, pt := range parts {
		if err := pt.Commit(p, txn, commitTS); err != nil {
			return err
		}
	}
	lsn := deps.Log.Append(wal.Record{Txn: txn.ID, Type: wal.RecCommit})
	deps.Log.Flush(p, lsn)
	// The forced commit record seals the fate: settle, so safe snapshots may
	// cover the commit timestamp.
	deps.Oracle.SettleCommit(txn)
	deps.Locks.ReleaseAll(txn)
	txn.DropUndo()
	return nil
}

// AbortTxn rolls txn back across the given co-located partitions.
func AbortTxn(p *sim.Proc, txn *cc.Txn, parts ...*Partition) {
	if txn.State == cc.TxnAborted {
		return
	}
	deps := &parts[0].deps
	for _, pt := range parts {
		pt.Abort(p, txn)
	}
	txn.RunUndo(p) // locking-mode in-place writes
	deps.Log.Append(wal.Record{Txn: txn.ID, Type: wal.RecAbort})
	deps.Oracle.Abort(txn)
	deps.Locks.ReleaseAll(txn)
}
