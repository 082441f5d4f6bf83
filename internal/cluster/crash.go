package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"wattdb/internal/buffer"
	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// This file implements node power failure and restart as first-class
// cluster operations.
//
// Crash model. A power failure destroys everything volatile on the node:
// the buffer pool (dirty pages included), the lock table, MVCC version
// chains and staged writes, and the unflushed tail of the write-ahead log.
// Disk contents survive, but because dirty pages are written back lazily a
// segment's durable image is not structurally consistent at an arbitrary
// instant. Restart therefore rebuilds each partition from its *recovery
// base* — a logical record image captured at the two moments the durable
// state is known consistent (initial bulk load, and segment adoption after
// a flush-then-ship migration, which the paper treats as a checkpoint) —
// and then replays the node's durable WAL over it (REDO winners, UNDO
// losers). The master's catalog, timestamp oracle, and decision map are a
// replicated state machine (see replication.go): crashing the seated
// leader fences the coordinator until a member of its ship set replays the
// master records it holds of the leader's stream and takes over, resuming
// the oracle above the replicated lease ceiling with in-doubt resolution
// intact.
//
// Commit atomicity. A failure may land at ANY instant of a commit — there
// is no critical-section deferral. Distributed transactions survive because
// every branch is fully durable before the coordinator decides: prepare
// logs the branch's redo images with its vote (one force), the coordinator
// forces a decision record before any participant installs, and RestartNode
// resolves prepared-but-undecided branches against the coordinator — it
// logs the prepare-time images as committed DML at the decided timestamp,
// or an abort record under presumed abort when no decision exists, and its
// replay then redoes them like any other commit. Single-node
// transactions need no vote: the commit record is the decision, and a crash
// inside the window rolls them back (the caller never saw an ack).

// ErrNodeDown reports that an operation needed a power-failed node.
type ErrNodeDown struct{ Node int }

func (e ErrNodeDown) Error() string {
	return fmt.Sprintf("cluster: node %d is down (power failure)", e.Node)
}

// basePair is one record of a partition's recovery base: a key and the
// fully encoded tree value (a committed cc.Version image). lsn is the durable
// log position carrying the image — the RecBase append under data
// replication, or the committed record a fuzzy checkpoint refreshed the pair
// from; 0 when the image was never logged (unreplicated bulk load/adoption).
// repairBaseLog re-appends only pairs above the restart's durable boundary.
type basePair struct {
	key, val []byte
	lsn      uint64
}

// Down reports whether the node is power-failed.
func (n *DataNode) Down() bool { return n.crashed }

// addBase appends a record image to a partition's recovery base. Under data
// replication the image is also logged as a RecBase record, so the base rides
// the shipped stream and a replica can rebuild the partition from log frames
// alone (Append encodes immediately; key/val are borrowed). An image the log
// does not hold sends the next checkpoint's base fold back to the whole log.
func (n *DataNode) addBase(id table.PartID, key, val []byte) {
	pair := basePair{key: bytes.Clone(key), val: bytes.Clone(val)}
	if n.cluster.drep != nil {
		pair.lsn = n.Log.Append(wal.Record{Type: wal.RecBase, Part: uint64(id), Key: key, After: val})
	} else if n.fold != nil {
		n.fold.baseFrom = 0
	}
	n.bases[id] = append(n.bases[id], pair)
	if idx := n.baseIdx[id]; idx != nil {
		idx[string(key)] = len(n.bases[id]) - 1
	}
}

// baseIndex returns the index of partition id's recovery base by key (see
// DataNode.baseIdx), building it on first use: a base that no checkpoint
// refreshes — a run without checkpoints, an unreplicated migration's
// adoptions — never pays for one.
func (n *DataNode) baseIndex(id table.PartID) map[string]int {
	idx := n.baseIdx[id]
	if idx == nil {
		pairs := n.bases[id]
		idx = make(map[string]int, len(pairs))
		for i := range pairs {
			idx[string(pairs[i].key)] = i
		}
		if n.baseIdx == nil {
			n.baseIdx = make(map[table.PartID]map[string]int)
		}
		n.baseIdx[id] = idx
	}
	return idx
}

// CrashNode power-fails a node instantly (no orderly shutdown) — including
// in the middle of a commit installation. It is safe to call from any
// simulation process or scheduler callback: it never blocks. Crashing a
// node that is already down is a no-op.
func (c *Cluster) CrashNode(n *DataNode) {
	if n.crashed {
		return
	}
	c.doCrash(n, 0, -1)
}

// CrashNodeTorn is CrashNode with log-medium damage: up to tear bytes of
// the record frame the log device was writing when power cut survive on the
// platter (a torn final record), and flip >= 0 additionally flips one bit
// within those surviving bytes. RestartNode's log scan must CRC-detect the
// damage and truncate the tail — acknowledged commits sit below the torn
// region and survive untouched. It returns the torn bytes left behind
// (0 when the log had no unflushed tail, which degrades to a plain crash).
func (c *Cluster) CrashNodeTorn(n *DataNode, tear, flip int) int {
	if n.crashed {
		return 0
	}
	return c.doCrash(n, tear, flip)
}

func (c *Cluster) doCrash(n *DataNode, tear, flip int) int {
	n.crashed = true
	n.HW.ForceOff()
	torn := 0
	if tear > 0 {
		_, torn = n.Log.CrashTorn(tear, flip)
	} else {
		n.Log.Crash()
	}
	// Log shipping dies with the node: on restart it logs locally again.
	if n.shippedFrom != nil {
		n.Log.SetDevice(n.shippedFrom)
		n.shippedFrom = nil
	}
	// Data replication: the ship queue and replica stores die with DRAM;
	// followers and origins mark each other for resync.
	if c.drep != nil {
		c.crashShipState(n)
	}
	// Every owned partition loses its volatile state. The dead objects stay
	// routable so in-flight transactions fail cleanly with ErrPartitionDown.
	ids := make([]table.PartID, 0, len(n.Parts))
	for id := range n.Parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pt := n.Parts[id]
		pt.Fail()
		n.lostParts = append(n.lostParts, pt)
	}
	n.Parts = make(map[table.PartID]*table.Partition)
	// DRAM is gone: fresh buffer pool and lock table. Processes parked in
	// the old lock table wake now and observe dead partitions, as the ones
	// parked on their intents did in Fail above.
	n.Pool = buffer.NewPool(c.Env, (*nodeBackend)(n), c.Cal.PageSize, c.Cal.BufferFrames)
	n.Pool.SetWALFlush(func(p *sim.Proc, lsn uint64) { n.Log.Flush(p, lsn) })
	n.Locks.Fail()
	n.Locks = cc.NewLockManager(c.Env)
	// Replicated coordinator: losing the leader fences the master until a
	// successor is elected. (Losing one of its followers is the ship
	// stream's business: crashShipState marked it stale above.)
	if c.Master.rep != nil && n == c.Master.Node {
		c.Master.leaderDown()
	}
	return torn
}

// RestartNode boots a crashed node and recovers its partitions: pay the
// boot time, CRC-scan the durable log bytes (truncating any torn or
// bit-rotted tail a power failure left mid-device-write), rebuild every
// lost partition from its recovery base, read the recovered log once into
// the node's kept transaction table (readLog, which also finds the newest
// complete checkpoint), resolve its in-doubt transactions against the
// coordinator and log and force their closing records (closeInDoubt: the
// prepare images as committed DML, or an abort under presumed abort),
// catch the table up on them, replay each hosted partition from its
// last-checkpoint redo point up to where the table has read (REDO winners,
// UNDO losers), in parallel, then atomically swap the rebuilt partitions
// into the master's partition table and the node's registry, and ack the
// coordinator decisions the table shows closed. The table stays the node's:
// the next checkpoint catches it up on what the restart appended. It
// returns the replay counts; n.LastRecovery records the full RTO breakdown.
func (c *Cluster) RestartNode(p *sim.Proc, n *DataNode) (redone, undone int, err error) {
	if !n.crashed {
		return 0, 0, fmt.Errorf("cluster: restart of node %d, which is not crashed", n.ID)
	}
	started := p.Now()
	n.HW.PowerOn(p)
	// Salvage the damaged log's readable frames before Restart's byte scan
	// truncates at the first bad frame and destroys every readable frame
	// behind it (the in-memory offset map survives the power failure model,
	// as it does for the scrubber's CheckFlushed walk): if the restart turns
	// into a rebuild, the node's own durable shippable frames — the one
	// source sure to cover everything it acked locally — merge with the
	// replica copies. Rot on the node and a destroyed follower disk can each
	// eat a different part of the stream. The salvage aliases the segments:
	// log bytes are write-once, so neither Restart's cut nor a WipeDisk
	// changes what it holds, and only a rebuild reads it — which copies what
	// it keeps (rebuildFromReplicas).
	var sv frameSet
	if c.drep != nil {
		sv, _ = streamCopy(n, n.ID, n.Log.FlushedLSN())
	}
	n.Log.Restart()
	// Total durable loss — a wiped disk, or bit rot that ate into acked
	// history (Restart found fewer valid frames than were flushed). The log
	// is rebuilt from the replica set before anything reads it: the election
	// below and every recovery pass must see the reconstructed history.
	// Either way the node's shipped stream enters a new generation here: after
	// a plain restart everything up to the flushed boundary the log came back
	// with is still in it, and whatever followers were shipped above that is
	// not — from this instant no reader of their wrappers goes past it.
	rebuilt := false
	if c.drep != nil {
		if rebuilt = n.diskLost || n.Log.LostDurable(); rebuilt {
			c.rebuildFromReplicas(p, n, sv)
		} else {
			n.ship.openGen(n.ship.gen, n.Log.FlushedLSN(), false)
		}
	}
	// The durable boundary as restored from disk (or rebuilt), BEFORE this
	// restart appends anything: base pairs carrying a higher LSN lost their
	// log record with the crash's volatile tail and must be re-logged
	// (repairBaseLog).
	recoverFloor := n.Log.FlushedLSN()
	// A reviving node may complete a stalled election: its durable log (just
	// recovered or rebuilt) is valid election input even though the node is
	// still mid-restart — and stays so while the in-doubt resolution below
	// waits for a coordinator that only a later restart can seat.
	n.reviving = true
	defer func() { n.reviving = false }()
	c.Master.tryElect()

	// Rebuild replacements. Partition IDs are reused so the WAL's partition
	// references resolve; bounds are the bounds at crash time (adoption had
	// already widened migration targets). AdoptOnly is dropped: the rebuilt
	// partition must accept its base records, and the master routes only
	// the ranges it actually owns.
	replaced := make(map[*table.Partition]*table.Partition, len(n.lostParts))
	targets := make(map[uint64]wal.Target, len(n.lostParts))
	for _, old := range n.lostParts {
		np := table.NewPartition(old.ID, old.Schema, old.Scheme, old.Low, old.High, n.Deps())
		np.Replica = old.Replica
		replaced[old] = np
		targets[uint64(old.ID)] = np
		for _, bp := range n.bases[old.ID] {
			if err := np.RecoveryPut(p, bp.key, bp.val); err != nil {
				return 0, 0, fmt.Errorf("cluster: node %d base replay: %w", n.ID, err)
			}
		}
	}
	// The one read of the recovered log (Restart already truncated any
	// damaged tail; the crash moved the log's generation, so the node's
	// table starts over): the transaction table that the in-doubt
	// resolution, the replay and the outstanding-decision acks below all
	// read, and the newest complete checkpoint, which bounds the replay —
	// each hosted partition starts at its recorded redo low-water mark, with
	// everything below covered by the refreshed recovery bases. A rebuilt
	// log holds no checkpoint records (they never ship), so a rebuild falls
	// back to full replay of the reconstructed history — which is exactly
	// right, since the rebuilt bases are the shipped originals, not
	// refreshed ones.
	//
	// In-doubt resolution comes before the replay: a transaction with a
	// durable prepare vote but no local commit or abort record was cut down
	// between its vote and its commit record. The coordinator is queried for
	// each (ascending transaction ID for determinism), and closeInDoubt logs
	// and forces the answer — the branch's prepare images as committed DML
	// at the decided timestamp under a commit record, or an abort record
	// under presumed abort. A second readLog catches the table up on those
	// records, so the replay below redoes the rolled-forward branch like any
	// other commit and never reads a prepare image.
	f, err := n.readLog()
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: node %d log scan: %w", n.ID, err)
	}
	inDoubt := c.resolveInDoubt(p, n, f.a, targets)
	if f, err = n.readLog(); err != nil {
		return 0, 0, fmt.Errorf("cluster: node %d log scan: %w", n.ID, err)
	}
	a, ck := f.a, f.a.LastCheckpoint()
	// Replay hosted partitions in parallel: one simulation process per
	// partition, each reading the log from its checkpoint redo point (0 —
	// the recovery base — when no checkpoint covers it) against the shared
	// table.
	// Records for partitions that no longer exist (fully migrated away,
	// dropped replicas) simply match no replay and are skipped: their data
	// lives elsewhere now. Spawn order, the merge below, and error selection
	// all follow ascending partition ID, so the parallel replay stays
	// deterministic for the chaos state hash.
	stats := make([]wal.ReplayStats, len(n.lostParts))
	errs := make([]error, len(n.lostParts))
	froms := make([]uint64, len(n.lostParts))
	var minRedo uint64
	var rst wal.ReplayStats
	for i, old := range n.lostParts {
		if ck != nil {
			froms[i] = ck.PartRedo(uint64(old.ID))
		}
		if i == 0 || froms[i] < minRedo {
			minRedo = froms[i]
		}
	}
	p.Fork("recover", len(n.lostParts), func(rp *sim.Proc, i int) {
		old := n.lostParts[i]
		stats[i], errs[i] = a.ReplayPartition(rp, n.Log.IterFrom(froms[i]), uint64(old.ID), replaced[old])
	})
	for i := range stats {
		if errs[i] != nil && err == nil {
			err = errs[i]
		}
		rst.Redone += stats[i].Redone
		rst.Undone += stats[i].Undone
		rst.Bytes += stats[i].Bytes
		if m := stats[i].MinApplied; m != 0 && (rst.MinApplied == 0 || m < rst.MinApplied) {
			rst.MinApplied = m
		}
	}
	redone, undone = rst.Redone, rst.Undone
	if err != nil {
		return redone, undone, err
	}

	// Swap-in. No blocking calls below: routing flips from the dead
	// partitions to the recovered ones in one simulation instant.
	// Each recovered partition's snapshot-serving horizon is fenced at the
	// newest timestamp recovery installed in it (RecoveryPut raised it), or
	// at the published clock if that is higher: recovery rebuilds only the
	// newest committed image of every key (version chains died with the
	// DRAM, and checkpointed bases fold superseded versions away), so a
	// reader still holding an older snapshot — one that began before the
	// outage, or a PreferFollower session whose safe snapshot sits below a
	// commit parked across this very outage — must get a retryable
	// ErrSnapshotTooOld here instead of a silently missing version. Not the
	// raw clock: a session begun now reads at the published one.
	//
	// A commit parked across the outage is among those images if its record
	// made the flushed boundary: locally durable, on no replica until the
	// resyncs below, still unsettled. The node's commit table is re-read from
	// the coordinator's unsettled set in the same instant (the in-doubt
	// queries above already went there), so whoever reads that leaf depends
	// on the parked commit — and fails with it if this disk is lost before a
	// follower has the frame.
	n.Commits.Restarted()
	histFloor, _ := c.Master.Oracle.Published()
	c.Master.rebind(replaced)
	for _, old := range n.lostParts {
		np := replaced[old]
		np.RaiseHistoryFloor(histFloor)
		n.Parts[np.ID] = np
		for _, segID := range old.SegIDs() {
			if h, ok := c.homes[segID]; ok && !h.moving {
				c.dropSegment(segID)
			}
		}
	}
	n.lostParts = nil
	// Everything below the current tail is settled history: a transaction
	// with records down there and no commit or abort died with the crash and
	// will never resolve. Later checkpoints use this fence so dead losers
	// cannot pin the redo point (and retention) forever. It is drawn here,
	// where the node comes back: the epilogue below blocks, and a transaction
	// may prepare here meanwhile.
	n.deadBelow = n.Log.TailLSN()
	n.crashed = false
	// Decisions still charged to this node whose branches the table shows
	// resolved are acked with the in-doubt ones after the epilogue
	// (ackResolved): the node died between its commit record's force and the
	// ack (a replicated branch waits for a follower in between), or the ack
	// was in flight — or unforced and lost — when a leader died, and the
	// rebuilt decision map still lists them. The table shows the in-doubt
	// ones resolved too, by the records closeInDoubt logged: each is acked
	// once.
	acks := inDoubt
	for _, id := range c.Master.outstandingDecisionsFor(n.ID) {
		if resolved, _ := a.Resolved(id); resolved && !slices.Contains(inDoubt, id) {
			acks = append(acks, id)
		}
	}
	if c.Master.rep != nil {
		// A follower of the seated leader is about to be resynced: give it —
		// and the leader's own log — a fresh coordinator snapshot, so the
		// catalog record that pins the leader's log (the checkpoint's
		// coordinator floor, ckptScan's f.coord.floor()) is never older than
		// its ship set's last restart.
		if m := c.Master; !m.down && !m.Node.Down() {
			if l := m.Node.ship.link(n); l != nil && l.stale {
				m.logSnapshot()
			}
		}
	}
	// Replication epilogue: restore any base records the crash's lost tail
	// ate, then re-seed this node's replicas of live origins (the seated
	// leader's coordinator history among them) and push resyncs to followers
	// that went stale while it was down. Only then does
	// a rebuilt node shed its disk-lost mark — until its wrapper copies of
	// the streams it follows are re-seeded, it is not stable storage for
	// anyone else's rebuild. A power failure inside the epilogue leaves the
	// node down, and the restart after it finishes the job.
	if c.drep != nil {
		c.repairBaseLog(p, n, recoverFloor)
		c.restartResync(p, n)
		if n.crashed {
			return redone, undone, ErrNodeDown{n.ID}
		}
		n.diskLost = false
	}
	c.ackResolved(n, acks, n.Log.FlushedLSN())
	n.LastRecovery = RecoveryStats{
		Checkpointed: ck != nil,
		Redo:         minRedo,
		Redone:       redone,
		Undone:       undone,
		Bytes:        rst.Bytes,
		MinApplied:   rst.MinApplied,
		Rebuild:      rebuilt,
		Elapsed:      p.Now() - started,
	}
	return redone, undone, nil
}

// resolveInDoubt queries the coordinator for each of the analysis's in-doubt
// transactions (ascending transaction ID so the network charges are
// deterministic) and hands the verdicts to closeInDoubt, which logs them. It
// returns the in-doubt list, which the restart acks once the closing records
// are durable.
func (c *Cluster) resolveInDoubt(p *sim.Proc, n *DataNode, a *wal.Analysis, targets map[uint64]wal.Target) []cc.TxnID {
	inDoubt := a.InDoubt()
	if len(inDoubt) > 0 {
		// Under replication an in-doubt query must wait out a coordinator
		// failover and its presumed-abort grace window: a "no decision"
		// answer is only trustworthy once in-flight commits have had time to
		// re-replicate verdicts the dead leader never shipped.
		c.Master.awaitAvailable(p)
	}
	verdicts := make(map[cc.TxnID]cc.Timestamp, len(inDoubt))
	for _, id := range inDoubt {
		if n != c.Master.Node {
			// The coordinator query is a metadata round trip to the master.
			c.Net.Transfer(p, n.ID, c.Master.Node.ID, 32)
			c.Net.Transfer(p, c.Master.Node.ID, n.ID, 32)
		}
		if ts, ok := c.Master.InDoubtDecision(id); ok {
			verdicts[id] = ts
		}
	}
	c.closeInDoubt(p, n, a, targets, inDoubt, verdicts)
	return inDoubt
}

// closeInDoubt logs the in-doubt resolution before the restart replays, so
// the replay — and every later one, which no longer needs the coordinator
// (whose presumed-abort state may have been forgotten by then) — redoes it
// as ordinary committed work: a branch with a verdict re-logs its prepare
// images as committed DML at the decided timestamp under its commit record,
// a branch without one logs an abort record, and one force covers
// everything. The coordinator is acked later (ackResolved).
func (c *Cluster) closeInDoubt(p *sim.Proc, n *DataNode, a *wal.Analysis, targets map[uint64]wal.Target, inDoubt []cc.TxnID, verdicts map[cc.TxnID]cc.Timestamp) {
	var maxLSN uint64
	for _, id := range inDoubt {
		ts, committed := verdicts[id]
		if !committed {
			maxLSN = n.Log.Append(wal.Record{Txn: id, Type: wal.RecAbort})
			continue
		}
		for _, r := range a.Txn(id).Images {
			if _, known := targets[r.Part]; !known {
				continue // partition migrated away; its data lives elsewhere
			}
			// Append encodes immediately, so the decoded record's slices can
			// be passed straight through without defensive copies.
			switch r.Type {
			case wal.RecPrepDML:
				maxLSN = n.Log.Append(wal.Record{Txn: id, Type: wal.RecUpdate, Part: r.Part,
					Key: r.Key, After: table.EncodeValue(cc.Version{TS: ts, Val: r.After})})
			case wal.RecPrepDel:
				maxLSN = n.Log.Append(wal.Record{Txn: id, Type: wal.RecDelete, Part: r.Part,
					Key: r.Key, After: table.EncodeValue(cc.Version{TS: ts, Deleted: true})})
			}
		}
		maxLSN = n.Log.Append(wal.Record{Txn: id, Type: wal.RecCommit})
	}
	if maxLSN > 0 {
		n.Log.Flush(p, maxLSN)
	}
}

// ackResolved acks the coordinator for branches n's log closes at or below
// lsn — the ones a restart of n found or left closed, or one the reconcile
// found closed — letting it forget those decisions, but only once n's log is
// durable through lsn: flushed on n's own disk and, under replication, on a
// follower. Until then the closing record can still be lost: a power failure
// drops it with the volatile tail, and a rebuild from replicas after losing
// n's disk would find a rolled-forward branch prepared and undecided again;
// either way the restart needs the decision, and a forgotten one would roll
// the branch back. When the log is not yet durable through lsn, a process
// waits for it (and gives up if n goes down: its restart acks instead).
func (c *Cluster) ackResolved(n *DataNode, ids []cc.TxnID, lsn uint64) {
	if c.drep != nil && len(ids) > 0 && (n.Log.FlushedLSN() < lsn || !c.replicaDurable(n, lsn)) {
		c.Env.Spawn("ack-resolved", func(p *sim.Proc) {
			if c.forceShip(p, n, lsn, n.ship.gen, false) {
				for _, id := range ids {
					c.Master.AckInDoubt(id, n.ID)
				}
			}
		})
		return
	}
	for _, id := range ids {
		c.Master.AckInDoubt(id, n.ID)
	}
}
