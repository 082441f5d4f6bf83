package cluster

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Fuzzy checkpoints (ROADMAP item 3): bound restart replay to the delta
// since the last checkpoint instead of the full retained history, so a node
// can leave and rejoin the cluster quickly (the gate on the autoscaler's
// fast drain/return).
//
// A checkpoint is fuzzy — foreground traffic keeps running throughout:
//
//  1. Flush walk: a second clock-ring cursor writes dirty frames back in
//     small batches (buffer.FlushDirtyBatch), sleeping between batches.
//  2. Begin record: RecCkptBegin marks the analysis instant.
//  3. Atomic scan (one simulation instant, no time charged): catch the
//     node's kept transaction table up on the frames appended since the
//     last read (logFold; after a crash, a wipe, a rewritten frame or a
//     truncation the next read takes the whole log once — after a crash
//     that read is the restart's), derive each hosted partition's redo
//     low-water mark — the minimum of the begin LSN, the recLSNs of its
//     still-dirty pages, and the first LSNs of unresolved transactions
//     touching it — and refresh the partition recovery bases with the
//     latest committed image of every key whose image falls below that
//     mark, reading the log from the previous scan's redo point on: every
//     image below it was folded then. The refresh only adds already-durable
//     committed information to the (durably modeled) base store, so a crash
//     at any step leaves restart correct: replay from the previous
//     checkpoint re-applies the refreshed keys' source records last in LSN
//     order and converges to the same values.
//  4. End record: RecCkptEnd carries the encoded redo table; the checkpoint
//     counts only once this record is durable (a restart's table reads
//     only what survived, and wal.Analysis.LastCheckpoint ignores torn or
//     unmatched pairs, falling back to the previous complete one).
//  5. Truncation: recycle log segments below the minimum of the global redo
//     point and the retention floors — master-state replay and follower
//     wrappers as the scan found them, replica durability as it stands at
//     the cut — dropping the kept transaction table if anything went (the
//     next scan reads what is left). That floor is the one retention rule:
//     the log recycles exactly what it is handed.
//
// Restart reads its recovered log once, into the node's transaction table
// (readLog), which also finds the newest complete checkpoint; it then
// replays each hosted partition from its recorded redo point up to where
// that table has read, in parallel — one simulation process per partition —
// and reports the replay work (RecoveryStats) so the chaos oracle can assert
// the O(delta-since-checkpoint) bound. The table stays the node's, and the
// first checkpoint after the restart catches it up on the frames appended
// since.

// ckptBatchPause is the sleep between flush-walk batches, letting foreground
// traffic run ahead of the checkpointer.
const ckptBatchPause = 10 * time.Millisecond

// defaultCkptBatch is the flush-walk batch size when the caller passes none.
const defaultCkptBatch = 16

// CheckpointStats reports one fuzzy checkpoint's work.
type CheckpointStats struct {
	Flushed   int    // dirty frames written back by the flush walk
	Redo      uint64 // global redo point recorded in the end record
	EndLSN    uint64 // LSN of the durable end record (0: checkpoint aborted)
	Truncated uint64 // truncation point handed to TruncateBefore
}

// RecoveryStats describes a node's last RestartNode pass — the chaos
// harness's RTO probe.
type RecoveryStats struct {
	Checkpointed   bool   // a complete checkpoint bounded the replay
	Redo           uint64 // lowest replay start point across hosted partitions
	Redone, Undone int
	Bytes          int64         // framed bytes of every record applied
	MinApplied     uint64        // lowest LSN any partition replay touched (0: none)
	Rebuild        bool          // log was rebuilt from replicas (full replay)
	Elapsed        time.Duration // simulated time from power-on to ready
}

// CheckpointNode takes one fuzzy checkpoint on n: flush walk, begin record,
// atomic redo scan with base refresh, end record, redo-point-aware log
// truncation. Every step is a crash point ("ckpt.*"); a node that crashes
// mid-checkpoint simply aborts — the torn pair is invisible to the restart's
// table (wal.Analysis.LastCheckpoint), which falls back to the previous
// complete checkpoint. Returns the work done; a nil error with EndLSN 0
// means the checkpoint did not complete.
func (c *Cluster) CheckpointNode(p *sim.Proc, n *DataNode, batch int) (CheckpointStats, error) {
	var st CheckpointStats
	if n.crashed || n.diskLost {
		return st, nil
	}
	if batch <= 0 {
		batch = defaultCkptBatch
	}
	if !c.point(n, "ckpt.walk") { // before the flush walk
		return st, nil
	}
	for {
		flushed, done, err := n.Pool.FlushDirtyBatch(p, batch)
		st.Flushed += flushed
		if err != nil {
			if n.crashed {
				return st, nil
			}
			return st, fmt.Errorf("cluster: checkpoint flush walk on node %d: %w", n.ID, err)
		}
		if !c.point(n, "ckpt.batch") { // after each flush batch
			return st, nil
		}
		if done {
			break
		}
		p.Sleep(ckptBatchPause)
		if n.crashed {
			return st, nil
		}
	}
	begin := n.Log.Append(wal.Record{Type: wal.RecCkptBegin})
	if !c.point(n, "ckpt.begin") { // begin appended
		return st, nil
	}
	ck, floor := c.ckptScan(n, begin)
	if ck == nil {
		return st, nil
	}
	if !c.point(n, "ckpt.scanned") { // bases refreshed, end not yet appended
		return st, nil
	}
	end := n.Log.Append(wal.Record{Type: wal.RecCkptEnd, Part: begin,
		After: wal.EncodeCheckpoint(nil, ck)})
	if !c.point(n, "ckpt.end") { // end appended but volatile
		return st, nil
	}
	n.Log.Flush(p, end)
	if n.crashed || n.Log.FlushedLSN() < end {
		return st, nil
	}
	st.Redo, st.EndLSN = ck.Redo, end
	if !c.point(n, "ckpt.durable") { // truncation pending
		return st, nil
	}
	st.Truncated = n.truncate(floor)
	n.Checkpoints++
	return st, nil
}

// logFold is what a node keeps of its log between reads — a restart's,
// its checkpoints' and the coordinator's reconcile: the transaction table,
// the replicated coordinator history on it and its lowest ship wrapper,
// caught up on the frames appended since the last read (readLog), plus the
// window of the recovery-base fold (refreshBases).
type logFold struct {
	gen   uint64        // the log generation the fold was read in (wal.Log.Gen)
	a     *wal.Analysis // the transaction table; its Next is where the next catch-up reads from
	coord *coordHistory // as an election folds it, over no decision known before
	ship  uint64        // the lowest RecShip wrapper's LSN (noFloor: none)

	// baseFrom is the last scan's global redo point: every base image below it
	// was folded then (0: fold the whole log). hosted is the partition set it
	// was folded for.
	baseFrom uint64
	hosted   []table.PartID
	decoded  int // frames decoded, both folds together
}

// readLog catches n's logFold up on the frames appended since the last read,
// reading the whole retained log instead when there is no fold yet or the
// log's generation has moved on (a crash, a restart, a wipe, a rewritten
// frame). A frame that no longer decodes drops the fold: the next read starts
// over.
func (n *DataNode) readLog() (*logFold, error) {
	f := n.fold
	if f == nil || f.gen != n.Log.Gen() {
		f = &logFold{gen: n.Log.Gen(), a: wal.NewAnalysis(), ship: noFloor,
			coord: foldCoord(nil, map[cc.TxnID]*txnDecision{})}
	}
	n.fold = nil
	it := n.Log.IterFrom(f.a.Next())
	for rec := (wal.Record{}); it.Next(&rec); f.decoded++ {
		f.a.Add(&rec)
		f.coord.add(&rec)
		if rec.Type == wal.RecShip {
			f.ship = min(f.ship, rec.LSN)
		}
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	n.fold = f
	return f, nil
}

// truncate recycles n's log below floor, capped by the replica-durable floor
// as it stands now, and returns the point it handed to TruncateBefore. The
// cap is read here, after the checkpoint's end record is durable, and not at
// its scan: a follower that went stale during the end record's force must
// floor this cut, since its resync re-ships the whole retained log.
//
// A cut drops the fold, and the next read starts over on what is left: the
// cut segments end inside some transaction's records, whose row a read of
// the rest builds differently, and a log that truncates is short — about
// what the fold would read from the last redo point anyway. A replicated
// log, whose reads grew with the run, is not cut above its first wrapper.
func (n *DataNode) truncate(floor uint64) uint64 {
	floor = min(floor, n.replicaDurableFloor())
	if n.Log.TruncateBefore(floor) {
		n.fold = nil
	}
	return floor
}

// ckptScan is the checkpoint's analysis instant: the node's transaction
// table, caught up on its log (readLog), and the buffer pool's dirty-page
// table, charging no simulated time. It returns the encoded-payload
// checkpoint and the truncation floor, or nil when the log is unreadable (a
// frame rotted and not yet scrubbed).
//
// A transaction in flight pins the redo point at its first LSN — unless its
// first record predates the last restart (deadBelow): such a transaction
// died with a crash, its effects were never replayed into the fresh
// partitions, and it will never resolve, so it must not pin retention
// forever.
func (c *Cluster) ckptScan(n *DataNode, begin uint64) (*wal.Checkpoint, uint64) {
	f, err := n.readLog()
	if err != nil {
		return nil, 0
	}
	// An in-flight transaction pins the redo point of every partition it
	// touched, and the GLOBAL redo point even when it touched no hosted
	// partition (a bare prepare vote): its records — the prepare in
	// particular — must survive truncation for in-doubt detection at the next
	// restart.
	ck := &wal.Checkpoint{Begin: begin, Redo: begin}
	partTxnMin := make(map[uint64]uint64) // partition -> min in-flight first LSN
	for _, id := range f.a.InFlightSince(n.deadBelow) {
		t := f.a.Txn(id)
		ck.Txns = append(ck.Txns, wal.CkptTxn{Txn: id, First: t.First})
		ck.Redo = min(ck.Redo, t.First)
		for _, part := range t.Parts {
			if cur, ok := partTxnMin[part]; !ok || t.First < cur {
				partTxnMin[part] = t.First
			}
		}
	}

	// Per-partition redo low-water marks over the hosted set.
	dirty := n.Pool.DirtyRecLSNs()
	ids := slices.Sorted(maps.Keys(n.Parts))
	redoOf := make(map[uint64]uint64, len(ids))
	for _, id := range ids {
		redo := begin
		for _, seg := range n.Parts[id].SegIDs() {
			if m, ok := dirty[seg]; ok && m < redo {
				redo = m
			}
		}
		if m, ok := partTxnMin[uint64(id)]; ok && m < redo {
			redo = m
		}
		ck.Parts = append(ck.Parts, wal.CkptPart{ID: uint64(id), Redo: redo})
		redoOf[uint64(id)] = redo
		ck.Redo = min(ck.Redo, redo)
	}

	if !slices.Equal(ids, f.hosted) {
		f.baseFrom, f.hosted = 0, ids
	}
	c.refreshBases(n, f, redoOf)
	f.baseFrom = ck.Redo

	// Truncation floor: global redo capped by the retention floors — the
	// lowest wrapper, and the coordinator history on this log while an
	// election may read it here: on the seated leader and on the anchor;
	// anywhere else it predates the anchor's term-opening snapshot. It is
	// folded as the election folds it: on one log LSN order is sequence
	// order, both being append order (a rebuild re-appends in order, too).
	// In the follower role this log IS some origin's rebuild source, and its
	// full wrapper history must outlive any local checkpoint. (This
	// conservatively blocks most recycling on nodes that follow a busy
	// origin — the RTO bound comes from redo-point replay skipping, not from
	// physical recycling, which fig3's housekeeping demonstrates on
	// unreplicated configurations.) The replica-durable floor joins at the
	// cut (truncate), not here.
	floor := min(ck.Redo, f.ship)
	if m := c.Master; m.rep != nil && (n == m.Node || n == m.rep.anchor) {
		floor = min(floor, f.coord.floor())
	}
	return ck, floor
}

// refreshBases folds the latest committed image of every key whose newest
// record falls below its partition's redo point into the in-memory recovery
// base (modeled durable, like the bulk-load and adoption images), so replay
// can skip everything below the redo point. Images come from RecBase records
// and the DML of the table's winners — the transactions a restart would
// redo; prepare-time images are excluded — a resolved in-doubt branch re-logs
// its roll-forward as ordinary committed DML (closeInDoubt), and an
// unresolved one pins the redo point above itself.
//
// The fold reads the log from the last scan's global redo point on: every
// image below it that was a key's newest then was folded then, and no later
// record lies below it. It reads the whole log when the fold has no such
// point — its first scan, and the first after a restart, a rewritten frame,
// a truncation or an image the log does not hold (addBase) — and when the
// hosted partition set has changed. The window meets no damaged frame: the
// fold has read every frame in it, in this log generation, and log bytes are
// write-once.
func (c *Cluster) refreshBases(n *DataNode, f *logFold, redoOf map[uint64]uint64) {
	type img struct {
		lsn uint64
		val []byte
	}
	latest := make(map[uint64]map[string]img)
	it := n.Log.IterFrom(f.baseFrom)
	for r := (wal.Record{}); it.Next(&r); f.decoded++ {
		switch r.Type {
		case wal.RecUpdate, wal.RecInsert, wal.RecDelete:
			if !f.a.Winner(r.Txn) {
				continue
			}
		case wal.RecBase:
		default:
			continue
		}
		if _, hosted := redoOf[r.Part]; !hosted {
			continue
		}
		m := latest[r.Part]
		if m == nil {
			m = make(map[string]img)
			latest[r.Part] = m
		}
		m[string(r.Key)] = img{lsn: r.LSN, val: r.After} // forward scan: later wins
	}
	parts := slices.Sorted(maps.Keys(latest))
	for _, part := range parts {
		redo := redoOf[part]
		id := table.PartID(part)
		pairs := n.bases[id]
		// Indexed by key of LAST occurrence — restart applies pairs in
		// order, so the final pair for a key is the one that wins. The index
		// is kept between checkpoints: this fold costs what the new images
		// do, not what the whole base does.
		idx := n.baseIndex(id)
		keys := slices.Sorted(maps.Keys(latest[part]))
		for _, k := range keys {
			im := latest[part][k]
			if im.lsn >= redo {
				continue // replay from the redo point still covers this key
			}
			// The base keeps a copy, for memory: it outlives the segment
			// im.val aliases, which truncation recycles on an unreplicated
			// log, and an alias would keep that whole segment alive.
			if j, ok := idx[k]; ok {
				if pairs[j].lsn < im.lsn {
					pairs[j].val = bytes.Clone(im.val)
					pairs[j].lsn = im.lsn
				}
				continue
			}
			pairs = append(pairs, basePair{key: []byte(k), val: bytes.Clone(im.val), lsn: im.lsn})
			idx[k] = len(pairs) - 1
		}
		n.bases[id] = pairs
	}
}

// noFloor means "no retention requirement" for the floor helpers below.
const noFloor = ^uint64(0)

// replicaDurableFloor returns the lowest LSN the origin must retain for its
// follower resyncs: one past the weakest follower's replica-durable
// watermark (noFloor without replication). Frames this log has flushed below
// every follower's durable watermark are permanent on each of their wrapper
// logs (a resync keeps and seeds from those), but a frame above any
// follower's watermark may still have to be re-shipped to it from this log —
// every frame still queued lies above it, since durable <= sent < the first
// queued LSN. A stale follower resyncs from the whole retained log, so it
// floors retention completely. Nothing else fences the origin's log: this
// floor, read at the cut (truncate), is the whole replication half of it.
func (n *DataNode) replicaDurableFloor() uint64 {
	floor := uint64(noFloor)
	if n.ship == nil {
		return floor
	}
	for _, l := range n.ship.links {
		d := l.durable
		if l.stale {
			d = 0
		}
		if d+1 < floor {
			floor = d + 1
		}
	}
	return floor
}
