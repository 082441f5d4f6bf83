package cluster

import (
	"bytes"
	"fmt"
	"sort"
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
//  3. Atomic scan (one simulation instant, no time charged): derive each
//     hosted partition's redo low-water mark — the minimum of the begin
//     LSN, the recLSNs of its still-dirty pages, and the first LSNs of
//     unresolved transactions touching it — and refresh the partition
//     recovery bases with the latest committed image of every key whose
//     image falls below that mark. The refresh only adds already-durable
//     committed information to the (durably modeled) base store, so a crash
//     at any step leaves restart correct: replay from the previous
//     checkpoint re-applies the refreshed keys' source records last in LSN
//     order and converges to the same values.
//  4. End record: RecCkptEnd carries the encoded redo table; the checkpoint
//     counts only once this record is durable (wal.LastCheckpoint ignores
//     torn or unmatched pairs, falling back to the previous complete one).
//  5. Truncation: recycle log segments below the minimum of the global redo
//     point and the retention floors (master-state replay, follower
//     wrappers, replica durability); the log's own PinBefore fence guards
//     unshipped frames on top of that.
//
// Restart then replays each hosted partition from its recorded redo point,
// in parallel — one simulation process per partition over a shared analysis
// pass (wal.Analysis) — and reports the replay work (RecoveryStats) so the
// chaos oracle can assert the O(delta-since-checkpoint) bound.

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
// mid-checkpoint simply aborts — the torn pair is invisible to
// wal.LastCheckpoint and the next restart falls back to the previous complete
// checkpoint. Returns the work done; a nil error with EndLSN 0 means the
// checkpoint did not complete.
func (c *Cluster) CheckpointNode(p *sim.Proc, n *DataNode, batch int) (CheckpointStats, error) {
	var st CheckpointStats
	if n.crashed || n.diskLost || n.Log.Down() {
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
		if n.crashed || n.Log.Down() {
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
	if n.crashed || n.Log.Down() || n.Log.FlushedLSN() < end {
		return st, nil
	}
	st.Redo, st.EndLSN = ck.Redo, end
	if !c.point(n, "ckpt.durable") { // truncation pending
		return st, nil
	}
	st.Truncated = floor
	n.Log.TruncateBefore(floor)
	n.Checkpoints++
	return st, nil
}

// ckptScan is the checkpoint's analysis instant: one wal.Analysis of the
// retained log — the transaction table restart replays by — and the buffer
// pool's dirty-page table, charging no simulated time. It returns the
// encoded-payload checkpoint and the truncation floor, or nil when the log
// is unreadable (a concurrent crash).
//
// A transaction in flight pins the redo point at its first LSN — unless its
// first record predates the last restart (deadBelow): such a transaction
// died with a crash, its effects were never replayed into the fresh
// partitions, and it will never resolve, so it must not pin retention
// forever.
//
// The log read fills n.ckptRecs' storage and is cleared on return, so no
// record left in it keeps a truncated segment alive. Nothing below keeps a
// *Record past the call: the analysis, the coordinator fold and the floors
// are local, and refreshBases clones what the bases keep.
func (c *Cluster) ckptScan(n *DataNode, begin uint64) (*wal.Checkpoint, uint64) {
	recs, err := n.Log.Iter().All(n.ckptRecs[:0])
	defer func() {
		clear(recs)
		n.ckptRecs = recs[:0]
	}()
	if err != nil {
		return nil, 0
	}
	a := wal.NewAnalysis(recs)
	// An in-flight transaction pins the redo point of every partition it
	// touched, and the GLOBAL redo point even when it touched no hosted
	// partition (a bare prepare vote): its records — the prepare in
	// particular — must survive truncation for in-doubt detection at the next
	// restart.
	ck := &wal.Checkpoint{Begin: begin, Redo: begin}
	partTxnMin := make(map[uint64]uint64) // partition -> min in-flight first LSN
	for _, id := range a.InFlightSince(n.deadBelow) {
		t := a.Txn(id)
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
	ids := make([]table.PartID, 0, len(n.Parts))
	for id := range n.Parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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

	c.refreshBases(n, recs, a, redoOf)

	// Truncation floor: global redo capped by the retention floors. The
	// coordinator history on this log matters only while an election may
	// read it here — on the seated leader and on the anchor; anywhere else
	// it predates the anchor's term-opening snapshot. It is folded as the
	// election folds it: on one log LSN order is sequence order, both being
	// append order (a rebuild re-appends in order, too).
	floor := ck.Redo
	if m := c.Master; m.rep != nil && (n == m.Node || n == m.rep.anchor) {
		floor = min(floor, foldCoord(recs, map[cc.TxnID]*txnDecision{}).floor())
	}
	if wf := wrapperRetentionFloor(recs); wf < floor {
		floor = wf
	}
	if c.drep != nil {
		if df := c.replicaDurableFloor(n); df < floor {
			floor = df
		}
	}
	return ck, floor
}

// refreshBases folds the latest committed image of every key whose newest
// record falls below its partition's redo point into the in-memory recovery
// base (modeled durable, like the bulk-load and adoption images), so replay
// can skip everything below the redo point. Images come from RecBase records
// and the DML of the analysis's winners — the transactions a restart would
// redo; prepare-time images are excluded — a resolved in-doubt branch re-logs
// its roll-forward as ordinary committed DML (closeInDoubt), and an
// unresolved one pins the redo point above itself.
func (c *Cluster) refreshBases(n *DataNode, recs []wal.Record, a *wal.Analysis, redoOf map[uint64]uint64) {
	type img struct {
		lsn uint64
		val []byte
	}
	latest := make(map[uint64]map[string]img)
	note := func(part uint64, key []byte, lsn uint64, val []byte) {
		if _, hosted := redoOf[part]; !hosted {
			return
		}
		m := latest[part]
		if m == nil {
			m = make(map[string]img)
			latest[part] = m
		}
		m[string(key)] = img{lsn: lsn, val: val} // forward scan: later wins
	}
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case wal.RecBase:
			note(r.Part, r.Key, r.LSN, r.After)
		case wal.RecUpdate, wal.RecInsert, wal.RecDelete:
			if a.Winner(r.Txn) {
				note(r.Part, r.Key, r.LSN, r.After)
			}
		}
	}
	parts := make([]uint64, 0, len(latest))
	for part := range latest {
		parts = append(parts, part)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	for _, part := range parts {
		redo := redoOf[part]
		id := table.PartID(part)
		pairs := n.bases[id]
		// Index by key of LAST occurrence — restart applies pairs in order,
		// so the final pair for a key is the one that wins.
		idx := make(map[string]int, len(pairs))
		for i := range pairs {
			idx[string(pairs[i].key)] = i
		}
		keys := make([]string, 0, len(latest[part]))
		for k := range latest[part] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
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

// wrapperRetentionFloor returns the lowest retained RecShip wrapper LSN: in
// the follower role this log IS some origin's rebuild source, and its full
// wrapper history must outlive any local checkpoint. (This conservatively
// blocks most recycling on nodes that follow a busy origin — the RTO bound
// comes from redo-point replay skipping, not from physical recycling, which
// fig3's housekeeping demonstrates on unreplicated configurations.)
func wrapperRetentionFloor(recs []wal.Record) uint64 {
	for i := range recs {
		if recs[i].Type == wal.RecShip {
			return recs[i].LSN // records arrive in LSN order: first is lowest
		}
	}
	return noFloor
}

// replicaDurableFloor returns the lowest LSN the origin must retain for its
// follower resyncs: one past the weakest follower's replica-durable
// watermark. Frames this log has flushed below every follower's durable
// watermark are permanent on each of their wrapper logs (a resync keeps and
// seeds from those), but a frame above any follower's watermark may still have
// to be re-shipped to it from this log. A stale follower resyncs from the whole
// retained log, so it floors retention completely (the ship pin does too —
// this keeps the checkpoint honest even about the request it hands down).
func (c *Cluster) replicaDurableFloor(n *DataNode) uint64 {
	floor := uint64(noFloor)
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
