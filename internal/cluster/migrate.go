package cluster

import (
	"bytes"
	"fmt"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// MigrateRange rebalances all records of tableName with keys in [lo, hi)
// onto dst, using the protocol matching the table's partitioning scheme:
//
//   - Physical (Sect. 4.1): relocate the durable segments of the covering
//     partitions to dst's disks; ownership stays put.
//   - Logical (Sect. 4.2): move records with delete/insert transactions
//     into a partition on dst; key ranges change.
//   - Physiological (Sect. 4.3): ship whole mini-partition segments and
//     transfer ownership as each one arrives.
//
// The call blocks p for the duration of the move.
func (m *Master) MigrateRange(p *sim.Proc, tableName string, lo, hi []byte, dst *DataNode) error {
	return m.MigrateRangeFraction(p, tableName, lo, hi, 1.0, dst)
}

// MigrateRangeFraction is MigrateRange with an explicit record fraction for
// the physical scheme: physical partitioning has no key-to-segment mapping
// (the logical layer is oblivious of segment placement), so "move the
// records of [lo, hi)" can only be approximated by moving the corresponding
// fraction of each covering partition's segments. The logical and
// physiological protocols target the exact key range and ignore frac.
func (m *Master) MigrateRangeFraction(p *sim.Proc, tableName string, lo, hi []byte, frac float64, dst *DataNode) error {
	tm, err := m.Table(tableName)
	if err != nil {
		return err
	}
	switch tm.Scheme {
	case table.Physical:
		return m.migratePhysical(p, tm, lo, hi, frac, dst)
	case table.Logical:
		return m.migrateLogical(p, tm, lo, hi, dst)
	case table.Physiological:
		return m.migratePhysiological(p, tm, lo, hi, dst)
	}
	return fmt.Errorf("cluster: unknown scheme %v", tm.Scheme)
}

// overlapping returns entries intersecting [lo, hi).
func (tm *TableMeta) overlapping(lo, hi []byte) []*RangeEntry {
	var out []*RangeEntry
	for _, e := range tm.entries {
		if hi != nil && e.Low != nil && bytes.Compare(e.Low, hi) >= 0 {
			continue
		}
		if lo != nil && e.High != nil && bytes.Compare(e.High, lo) <= 0 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// --- Physical partitioning -------------------------------------------------

// migratePhysical relocates the durable bytes of every segment of the
// covered partitions to dst. Only a lightweight flush freeze is needed: the
// logical layer, ownership, and access paths are untouched — which is also
// why query processing gains nothing (Sect. 5.2).
func (m *Master) migratePhysical(p *sim.Proc, tm *TableMeta, lo, hi []byte, frac float64, dst *DataNode) error {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	for _, e := range tm.overlapping(lo, hi) {
		if e.Owner == dst {
			continue
		}
		if err := migrationAlive(e.Owner, dst); err != nil {
			return err
		}
		segs := e.Part.Segments()
		k := int(float64(len(segs))*frac + 0.5)
		if k > len(segs) {
			k = len(segs)
		}
		for _, h := range segs[len(segs)-k:] {
			if err := m.relocateSegment(p, e.Owner, h, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// relocateSegment moves one segment's durable bytes between nodes' disks.
// A power failure of any involved node aborts the relocation cleanly: the
// durable bytes stay at the source (the pointer swap is the last step) and
// blocked flushers are released.
func (m *Master) relocateSegment(p *sim.Proc, owner *DataNode, h *table.SegHandle, dst *DataNode) error {
	home, err := m.cluster.home(h.Seg.ID)
	if err != nil {
		return err
	}
	if home.node == dst {
		return nil
	}
	if err := migrationAlive(owner, home.node, dst); err != nil {
		return err
	}
	// Make the durable image current, then freeze flushes for the copy.
	if err := owner.Pool.FlushSegment(p, h.Seg.ID); err != nil {
		return err
	}
	home.moving = true
	abort := func() error {
		home.moving = false
		home.moved.Fire() // release flushers queued behind the move
		return migrationAlive(owner, home.node, dst)
	}
	// Sequential read at the source disk, wire transfer, sequential write
	// at the destination: segment movement "copies data almost at raw disk
	// speed".
	bytes := h.Seg.Bytes()
	home.disk.ReadSeq(p, bytes)
	if migrationAlive(owner, home.node, dst) != nil {
		return abort()
	}
	m.cluster.Net.Transfer(p, home.node.ID, dst.ID, bytes)
	disks := dst.HW.DataDisks()
	newDisk := disks[dst.diskRR%len(disks)]
	dst.diskRR++
	newDisk.WriteSeq(p, bytes)
	if migrationAlive(owner, home.node, dst) != nil {
		return abort()
	}
	home.node = dst
	home.disk = newDisk
	home.moving = false
	home.moved.Fire()
	return nil
}

// migrationAlive fails with ErrNodeDown if any node involved in a move has
// power-failed; the movement protocols check it at every step boundary.
func migrationAlive(nodes ...*DataNode) error {
	for _, n := range nodes {
		if n.Down() {
			return ErrNodeDown{n.ID}
		}
	}
	return nil
}

// moveAlive is migrationAlive for a step that also needs the coordinator it
// started under: it fails once the master is fenced or a failover re-seated it
// since the caller captured epoch.
func (m *Master) moveAlive(epoch uint64, nodes ...*DataNode) error {
	if err := m.coordCheck(epoch); err != nil {
		return err
	}
	return migrationAlive(nodes...)
}

// --- Logical partitioning ---------------------------------------------------

// logicalBatch is the number of records per movement transaction.
const logicalBatch = 64

// migrateLogical moves records of [lo, hi) into a (possibly new) partition
// on dst using system transactions that delete at the source and insert at
// the destination. The master entry carries dual pointers; an advancing
// boundary retargets writers batch by batch.
func (m *Master) migrateLogical(p *sim.Proc, tm *TableMeta, lo, hi []byte, dst *DataNode) error {
	for _, e := range tm.overlapping(lo, hi) {
		if e.Owner == dst {
			continue
		}
		if e.OldPart != nil {
			// The entry still carries dual pointers from an earlier move
			// (in flight, suspended by a crash, or waiting for old snapshots
			// to drain). replaceEntry keeps only one OldPart generation, so
			// re-migrating now would drop the old-location fallback and
			// strand records readers can still only find there — skip the
			// entry until the cleanup retires the old pointer
			// (TestRemigrateWithLiveDualPointersSkipped pins this).
			continue
		}
		if err := migrationAlive(e.Owner, dst); err != nil {
			return err
		}
		clampLo := maxBytes(lo, e.Low)
		clampHi := minBytes(hi, e.High)
		if err := m.moveRecordRange(p, tm, e, clampLo, clampHi, dst); err != nil {
			return err
		}
	}
	return nil
}

func (m *Master) moveRecordRange(p *sim.Proc, tm *TableMeta, e *RangeEntry, lo, hi []byte, dst *DataNode) error {
	src := e.Part
	srcOwner := e.Owner
	// Build the destination partition and install dual pointers: the moved
	// sub-range becomes its own entry pointing at dst (new) and src (old).
	m.nextPartID++
	dstPart := table.NewPartition(m.nextPartID, tm.Schema, tm.Scheme, lo, hi, dst.Deps())
	dst.Parts[dstPart.ID] = dstPart

	boundary := lo
	if boundary == nil {
		boundary = []byte{} // -inf, but non-nil: nothing moved yet
	}
	moved := &RangeEntry{Low: lo, High: hi, Part: dstPart, Owner: dst, MovedBelow: boundary}
	tm.splitForMove(e, moved)
	// Replicate the dual-pointer install before moving anything. The
	// boundary still equals lo, so the old location stays authoritative for
	// every key: losing the leader here merely suspends a move that has not
	// moved a record yet.
	epoch := m.epoch
	if !m.shipTable(p, tm.Schema.Name, true) {
		return ErrMasterDown{}
	}

	// Move batches of records with system transactions. Records are
	// removed from the source (tombstones keep old snapshots working) and
	// inserted at the destination; both sides commit atomically via 2PC.
	// The batch size adapts: conflicts with user transactions shrink it
	// (down to single records, which always make progress against hot
	// rows); successes grow it back.
	cursor := lo
	batchSize := logicalBatch
	recovering := false // re-covering a window after a failed batch commit
	for {
		// A power failure of either side suspends the move: the advancing
		// boundary and the dual pointers stay in place, so routing remains
		// correct (moved keys at the destination, the rest at the source)
		// whether or not the move is ever resumed.
		if err := migrationAlive(srcOwner, dst); err != nil {
			return err
		}
		// A coordinator failover orphans this migration: the new leader
		// rebuilt the partition table from replicated snapshots, so the
		// entry objects held here are stale.
		if err := m.coordCheck(epoch); err != nil {
			return err
		}
		type rec struct{ k, v []byte }
		var batch []rec
		sess := m.BeginSystem(p, m.MoveMode, srcOwner)
		err := src.Scan(p, sess.Txn, cursor, hi, func(k, v []byte) bool {
			batch = append(batch, rec{bytes.Clone(k), bytes.Clone(v)})
			return len(batch) < batchSize
		})
		if err != nil {
			sess.Abort(p)
			return err
		}
		if len(batch) == 0 {
			if src.ChangedSince(sess.Txn, cursor, hi) {
				// A write invisible to this scan is in flight or freshly
				// committed in the remaining window: declaring the move
				// complete now would strand it at the source — the same
				// hazard the per-batch boundary advance guards against.
				sess.Abort(p)
				p.Sleep(2 * time.Millisecond)
				continue
			}
			sess.Abort(p)
			break
		}
		ok := true
		for _, r := range batch {
			if err := src.Delete(p, sess.Txn, r.k); err != nil {
				ok = false
				err2 := retryConflict(p, err)
				if err2 != nil {
					sess.Abort(p)
					return err2
				}
				break
			}
			sess.touch(src, srcOwner)
			// When re-covering a window after a failed batch commit, the
			// destination may already hold a version — live or tombstone —
			// from a writer routed there while the boundary was advanced.
			// That version is newer than the source copy by construction:
			// keep it and only retire the stale source record. (Outside
			// recovery the destination provably has nothing above the
			// boundary, so the lookup is skipped.)
			if recovering {
				if _, state, err := dstPart.Lookup(p, sess.Txn, r.k); err == nil && state != table.LookupAbsent {
					continue
				}
			}
			// Ship the record and insert at the destination.
			m.cluster.Net.Transfer(p, srcOwner.ID, dst.ID, int64(len(r.k)+len(r.v))+16)
			if err := dstPart.Put(p, sess.Txn, r.k, r.v); err != nil {
				ok = false
				if err2 := retryConflict(p, err); err2 != nil {
					sess.Abort(p)
					return err2
				}
				break
			}
			sess.touch(dstPart, dst)
		}
		if !ok {
			sess.Abort(p)
			if batchSize > 1 {
				batchSize /= 2
			}
			continue // retry the same cursor window with a smaller batch
		}
		last := batch[len(batch)-1].k
		boundary := nextKey(last)
		// Replicate the advanced boundary BEFORE installing it: a boundary
		// that routes writers to the destination must survive a leader
		// failover, or acknowledged destination writes would be shadowed by
		// old-first routing under the new leader. The converse order —
		// replicated ahead of installed — is read-safe (destination-first
		// routing falls back to the source for keys not yet moved). The
		// snapshot is built with the boundary temporarily set so the shipped
		// record carries it; the durable install happens only in the
		// non-blocking check-and-advance pair below.
		if m.rep != nil {
			if prev := moved.MovedBelow; prev == nil || bytes.Compare(boundary, prev) > 0 {
				moved.MovedBelow = boundary
				rec := m.tableRecord(tm.Schema.Name)
				moved.MovedBelow = prev
				if !m.logMaster(p, rec, true) {
					sess.Abort(p)
					return ErrMasterDown{}
				}
			}
		}
		// A key of this window may carry a write the scan could not see: a
		// still-staged foreign intent, or a commit newer than the scan's
		// snapshot (e.g. a tombstoned record re-inserted concurrently).
		// Advancing the boundary would strand that record at the source
		// while routing points at the destination — so back off and redo
		// the window with a fresh snapshot. The check and the advance are
		// both non-blocking, so no writer can slip between them: later
		// writers route by the advanced boundary, and one that routed
		// before it but reaches the source after the check fails there
		// (Session.staged).
		if src.ChangedSince(sess.Txn, cursor, boundary) {
			sess.Abort(p)
			p.Sleep(2 * time.Millisecond)
			continue
		}
		// Advance the routing boundary before committing: writers that
		// lose a conflict against this batch must retry at the new
		// location, never resurrect the record at the source. The advance
		// is monotonic — a smaller batch re-covering a window after a
		// failed commit must not regress the boundary below keys already
		// routed (and possibly written and acknowledged) at the
		// destination.
		if moved.MovedBelow == nil || bytes.Compare(boundary, moved.MovedBelow) > 0 {
			moved.MovedBelow = boundary
		}
		if err := sess.Commit(p); err != nil {
			// The batch failed (a participant power-failed mid-commit), but
			// the boundary must NOT roll back: a concurrent writer may have
			// committed — and been acknowledged — at the destination while
			// the window pointed there, and re-routing to the source would
			// shadow that write. The cursor does not advance either: on a
			// retryable failure the same window is re-covered (the
			// destination-version check above keeps re-moving idempotent),
			// and on a node failure the caller aborts the migration with
			// the un-moved records still served through the old-location
			// fallback of the dual pointers.
			sess.Abort(p)
			if err2 := retryConflict(p, err); err2 != nil {
				return err2
			}
			if batchSize > 1 {
				batchSize /= 2
			}
			recovering = true
			continue
		}
		cursor = boundary
		recovering = false
		if batchSize < logicalBatch {
			batchSize *= 2
		}
	}
	// All records moved: the old pointer stays until old snapshots drain,
	// then the source's tombstoned range is vacuumed. Clearing the boundary
	// is safe to do before the ship: every record sits at the destination,
	// and if the ship fails a failover resurrects the last boundary, under
	// which unmoved-looking keys simply fall back through the source's
	// Absent answers to the destination copy.
	moved.MovedBelow = nil
	if !m.shipTable(p, tm.Schema.Name, true) {
		return ErrMasterDown{}
	}
	m.retireOldCopy("old-pointer-cleanup", tm, moved, m.Oracle.Clock(), func(p *sim.Proc, src *table.Partition) {
		if src != nil {
			src.Vacuum(p, m.Oracle.Watermark())
		}
	})
	return nil
}

// retryConflict converts transient movement conflicts (a user transaction
// holding a record) into a brief backoff; other errors pass through.
func retryConflict(p *sim.Proc, err error) error {
	switch err {
	case cc.ErrWriteConflict, cc.ErrLockTimeout:
		p.Sleep(10 * time.Millisecond)
		return nil
	}
	return err
}

// snapshotsPast reports whether every snapshot, present or future, reads
// above horizon — the old copies of a moved range are then unreachable. The
// watermark bounds both: the active table holds every transaction's safe
// snapshot (so it speaks for the ones reading at Begin too), and a future
// snapshot begins at the published view, whose safe snapshot the watermark
// includes. While a commit is unsettled safe snapshots stay below it, and a
// commit parked across its node's outage keeps PreferFollower sessions
// reading at or below the horizon for as long as it parks. With nothing
// committing, the published clock can sit at the horizon forever — on a
// quiesced cluster, or under a read-only load; then one timestamp is issued,
// and once its publication has landed and the snapshots begun before it have
// ended, a poll passes.
func (m *Master) snapshotsPast(horizon cc.Timestamp) bool {
	o := m.Oracle
	if o.Watermark() > horizon {
		return true
	}
	if pub, _ := o.Published(); pub <= horizon && o.UnsettledCount() == 0 {
		o.Advance()
	}
	return false
}

// splitForMove replaces e with moved — the moving sub-range, given its dual
// pointers here: new at moved.Part, old at e's partition — between the
// unmoved remainders of e on either side.
func (tm *TableMeta) splitForMove(e, moved *RangeEntry) {
	moved.OldPart, moved.OldOwner = e.Part, e.Owner
	var news []*RangeEntry
	if moved.Low != nil && (e.Low == nil || bytes.Compare(e.Low, moved.Low) < 0) {
		news = append(news, &RangeEntry{Low: e.Low, High: moved.Low, Part: e.Part, Owner: e.Owner})
	}
	news = append(news, moved)
	if moved.High != nil && (e.High == nil || bytes.Compare(moved.High, e.High) < 0) {
		news = append(news, &RangeEntry{Low: moved.High, High: e.High, Part: e.Part, Owner: e.Owner})
	}
	tm.replaceEntry(e, news...)
}

// retireOldCopy spawns the process, named name, that retires a finished
// move's old copy for both movement protocols: once every snapshot at or
// below horizon has ended it drops e's dual pointer and hands drop the old
// partition, read through the entry at fire time — a source-node restart
// rebinds e.OldPart to the recovered partition.
func (m *Master) retireOldCopy(name string, tm *TableMeta, e *RangeEntry, horizon cc.Timestamp, drop func(p *sim.Proc, old *table.Partition)) {
	m.cluster.Env.Spawn(name, func(p *sim.Proc) {
		for !m.snapshotsPast(horizon) {
			p.Sleep(time.Second)
		}
		old := e.OldPart
		e.OldPart = nil
		e.OldOwner = nil
		if m.rep != nil {
			// A failover since scheduling rebuilt the partition table; the
			// captured entry is stale then, so retire the old pointer on the
			// current entry too and replicate the retirement (unforced: a
			// lost cleanup snapshot only resurrects a read-safe dual
			// pointer).
			m.clearOldPointer(tm.Schema.Name, e.Low, e.High)
			m.shipTable(p, tm.Schema.Name, false)
		}
		drop(p, old)
	})
}

// --- Physiological partitioning ---------------------------------------------

// migratePhysiological ships whole mini-partitions (segments) of [lo, hi)
// to dst, following the Sect. 4.3 repartitioning protocol step by step.
func (m *Master) migratePhysiological(p *sim.Proc, tm *TableMeta, lo, hi []byte, dst *DataNode) error {
	// A coordinator failover orphans this migration as it does a logical one:
	// the new leader rebuilt the partition table, tm and its entries are no
	// longer what routing reads, and a segment adopted on their say-so would
	// vanish from the catalog. Every step of every move re-checks (moveAlive).
	epoch := m.epoch
	for _, e := range tm.overlapping(lo, hi) {
		if e.Owner == dst {
			continue
		}
		if e.OldPart != nil {
			// Live dual pointers from an earlier move: re-migrating would
			// drop the old-location fallback (see migrateLogical).
			continue
		}
		if err := migrationAlive(e.Owner, dst); err != nil {
			return err
		}
		srcPart := e.Part
		// Segments straddling the migration boundary are split at the
		// exact key first, so the moved range is precise. Raced splits
		// (concurrent overflow splits) re-resolve and retry.
		for _, bound := range [][]byte{lo, hi} {
			if bound == nil {
				continue
			}
			for {
				h := srcPart.SegmentContaining(bound)
				if h == nil || bytes.Compare(h.Low, bound) >= 0 {
					break
				}
				err := srcPart.SplitSegmentAt(p, h, bound)
				if err == table.ErrSplitRaced {
					continue
				}
				if err != nil {
					return err
				}
			}
		}
		// One destination partition adopts every mini-partition moved from
		// this source partition; its bounds widen per adopted segment.
		m.nextPartID++
		dstPart := table.NewPartition(m.nextPartID, tm.Schema, tm.Scheme,
			maxBytes(lo, e.Low), minBytes(hi, e.High), dst.Deps())
		dstPart.AdoptOnly = true
		dst.Parts[dstPart.ID] = dstPart
		for {
			if err := m.moveAlive(epoch, e.Owner, dst); err != nil {
				return err
			}
			// Pick the next mini-partition fully inside [lo, hi).
			var target *table.SegHandle
			for _, h := range srcPart.Segments() {
				inLo := lo == nil || bytes.Compare(h.Low, lo) >= 0
				inHi := hi == nil || (h.High != nil && bytes.Compare(h.High, hi) <= 0)
				if inLo && inHi {
					target = h
					break
				}
			}
			if target == nil {
				break
			}
			// Re-route: earlier moves already re-split the partition table.
			cur, err := tm.route(target.Low)
			if err != nil {
				return err
			}
			if cur.Part != srcPart {
				return fmt.Errorf("cluster: entry for %x no longer points at source partition", target.Low)
			}
			if err := m.moveSegment(p, tm, cur, target, dstPart, dst, epoch); err != nil {
				return err
			}
		}
	}
	return nil
}

// moveSegment transfers one mini-partition from e.Part to a partition on
// dst, implementing the paper's movement protocol:
//
//  1. read-lock the mini-partition on the source, waiting for writers,
//  2. mark the move on the master (dual pointers), replicate it,
//  3. checkpoint + flush so no UNDO/REDO must ship,
//  4. copy the segment to the target node,
//  5. adopt it into the target's partition tree, update the master,
//  6. unlock; the source keeps a ghost until old readers drain.
//
// The lock precedes the dual-pointer install: replicating the install to
// master followers blocks, and a writer racing that window could
// overflow-split the mini-partition after the master captured its bounds,
// stranding the split-off tail at the source behind a dual pointer that is
// later dropped.
func (m *Master) moveSegment(p *sim.Proc, tm *TableMeta, e *RangeEntry, h *table.SegHandle, dstPart *table.Partition, dst *DataNode, epoch uint64) error {
	src := e.Part
	srcOwner := e.Owner

	// (1) Read lock on the mini-partition: waits for in-flight writers and
	// holds off new ones (they queue, then get redirected on retry). Taken
	// before the master entry is touched, so a lock failure needs no
	// unwinding.
	mover := m.BeginSystem(p, m.MoveMode, srcOwner)
	lockName := src.MovementLockName()
	if err := srcOwner.Locks.Lock(p, mover.Txn, lockName, cc.LockR, 30*time.Second); err != nil {
		srcOwner.Locks.ReleaseAll(mover.Txn)
		mover.Abort(p)
		return err
	}
	if err := m.moveAlive(epoch, srcOwner, dst); err != nil {
		srcOwner.Locks.ReleaseAll(mover.Txn)
		mover.Abort(p)
		return err
	}

	// (2) Master: split the entry so the moving range has dual pointers.
	// The segment's bounds are read under the lock — no concurrent split
	// can narrow them between capture and detach.
	moved := &RangeEntry{Low: h.Low, High: h.High, Part: dstPart, Owner: dst}
	tm.splitForMove(e, moved)
	e = moved

	// abortMove unwinds a failed move before the target took over: the
	// master entry reverts to the source (which still holds the records),
	// the movement lock is released, and any half-shipped clone is dropped.
	// After a source power failure the entry still reverts to the source:
	// its restart rebuilds the records there. The revert re-resolves the
	// partition through the node's live registry — a mover parked in a long
	// lock wait can outlive a full source crash+restart cycle, and writing
	// the captured pre-crash object back would resurrect a dead pointer the
	// restart's rebind already replaced.
	abortMove := func(mover *Session, clone *storage.Segment, cause error) error {
		cur := src
		if np, ok := srcOwner.Parts[src.ID]; ok {
			cur = np
		}
		moved.Part = cur
		moved.Owner = srcOwner
		moved.OldPart = nil
		moved.OldOwner = nil
		if clone != nil {
			m.cluster.dropSegment(clone.ID)
		}
		srcOwner.Locks.ReleaseAll(mover.Txn)
		mover.Abort(p)
		// Replicate the revert unforced; losing it resurrects read-safe
		// dual pointers, nothing worse.
		m.shipTable(p, tm.Schema.Name, false)
		return cause
	}

	// Replicate the dual-pointer install. Failing here unwinds the move —
	// the suspended dual pointers would be read-safe (the adopt-only
	// destination answers ErrNotOwned until a segment arrives and every
	// access falls back to the source), but the held movement lock must
	// not outlive the move attempt.
	if !m.shipTable(p, tm.Schema.Name, true) {
		return abortMove(mover, nil, ErrMasterDown{})
	}
	if err := m.moveAlive(epoch, srcOwner, dst); err != nil {
		return abortMove(mover, nil, err)
	}

	// (3) Movement acts as a checkpoint: commit records are durable and
	// the segment's pages are flushed, so "additional logging is not
	// required".
	srcOwner.Log.Checkpoint(p)
	srcOwner.Log.Append(wal.Record{Txn: mover.Txn.ID, Type: wal.RecSegMove, Part: uint64(src.ID)})
	if err := srcOwner.Pool.FlushSegment(p, h.Seg.ID); err != nil {
		return abortMove(mover, nil, err)
	}
	if err := m.moveAlive(epoch, srcOwner, dst); err != nil {
		return abortMove(mover, nil, err)
	}

	// (4) Ship the segment: sequential read, wire, sequential write.
	home, err := m.cluster.home(h.Seg.ID)
	if err != nil {
		return abortMove(mover, nil, err)
	}
	size := h.Seg.Bytes()
	home.disk.ReadSeq(p, size)
	m.cluster.Net.Transfer(p, srcOwner.ID, dst.ID, size)
	if err := m.moveAlive(epoch, srcOwner, dst); err != nil {
		return abortMove(mover, nil, err)
	}
	clone := h.Seg.Clone(m.cluster.NextSegID())
	dst.AdoptShippedSegment(clone)
	destHome, _ := m.cluster.home(clone.ID)
	destHome.disk.WriteSeq(p, size)
	if err := m.moveAlive(epoch, srcOwner, dst); err != nil {
		return abortMove(mover, clone, err)
	}

	// (5) Target adopts the mini-partition; the master entry already
	// points at it, so new transactions route there now. The adopted image
	// becomes part of the target's recovery base (the flush in step 3 made
	// it consistent), mirroring the checkpoint role movement plays for
	// logging. Adoption, base capture, and the source-side detach below are
	// free of blocking calls, so no failure can interleave with them.
	if _, err := dstPart.AdoptSegment(clone); err != nil {
		return abortMove(mover, clone, err)
	}
	captureAdoptedBase(p, dst, dstPart.ID, clone)

	// (6) Source detaches the segment but keeps it as a ghost for old
	// readers; unlock so queued writers retry (and get redirected). The
	// adoption above was the point of no return: on a detach failure the
	// move rolls FORWARD — routing stays at the destination (which holds
	// the records and has them in its recovery base), the source keeps its
	// now-shadowed copy behind the old pointer, and the error surfaces
	// without reverting the entry.
	horizon := m.Oracle.Clock() // snapshots begun by now may still read the ghost
	if err := src.DetachSegment(h, horizon); err != nil {
		srcOwner.Locks.ReleaseAll(mover.Txn)
		mover.Abort(p)
		return err
	}
	srcOwner.Locks.ReleaseAll(mover.Txn)
	m.Oracle.Abort(mover.Txn)

	// Replicate the adopted history before the dual pointer can drop: the
	// destination now owns the range, so a later disk loss there must be
	// recoverable from its replica set — force the adopted base records
	// durable locally and on a replica. A destination failure here still
	// rolls the move forward: its restart repairs the base log and resyncs
	// its followers.
	if m.cluster.drep != nil && !dst.Down() {
		m.cluster.forceShip(p, dst, dst.Log.TailLSN()-1, dst.ship.gen, false)
	}

	// Drop the ghost and the dual pointer once old snapshots drained; the
	// old log records for the moved range become obsolete with the
	// checkpoint already taken.
	segID := h.Seg.ID
	m.retireOldCopy("ghost-drop", tm, e, horizon, func(p *sim.Proc, _ *table.Partition) { src.DropGhost(p, segID) })
	// The adopted segment is at the destination and the source keeps only a
	// ghost: replicate the post-adoption state (unforced; a failover that
	// misses it re-serves through the step-1 dual pointers, whose fallback
	// still answers every key).
	m.shipTable(p, tm.Schema.Name, false)
	return nil
}

func maxBytes(a, b []byte) []byte {
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

func minBytes(a, b []byte) []byte {
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

// nextKey returns the immediate successor of k in byte order.
func nextKey(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}
