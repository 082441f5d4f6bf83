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

// Coordinator replication. With MasterReplicas > 0 the master stops being a
// stable-metadata fiction: every coordinator mutation — catalog creation,
// partition-table updates (including migration boundary advances), timestamp
// leases, and commit decisions — is encoded as a master-state record and
// appended to the seated leader's own WAL. There it is just another shippable
// frame of that node's replicated stream (datarep.go): it reaches the leader's
// ship set through shipQueued, followers hold it inside ordinary RecShip
// wrappers, a stale follower is healed by resyncFollower, a destroyed leader
// disk gets it back from rebuildFromReplicas, and the scrubber repairs it
// like any data frame. What stays here is what is coordinator-specific:
// lease fencing, table-snapshot encode/apply, the epoch and grace window, the
// election, and reconcile.
//
// Ack rule. A forced master record takes effect only once it is durable on
// the leader AND on at least one in-sync follower (logMaster). The two forces
// run side by side, as a data frame's do, so a follower may hold a lease or a
// decision the leader's disk never gets; an election may adopt it (tryElect).
// Catalog snapshots are the exception: they ship only once the leader has
// flushed them. A commit decision that cannot be replicated is retried —
// across the failover if need be — so "ack iff decision durable" survives the
// leader dying between the decision force and the participant acks. Unforced
// records (acks, cleanup snapshots) ride the ship queue; losing them is
// resurrection-safe.
//
// Sequence numbers. Master records carry a monotonically increasing
// sequence in the Part field, independent of LSNs: it survives a rebuild's
// renumbering, so copies of a stream rank by it across generations, and
// election replay orders by it. Elections leave a gap above the highest
// replayed sequence so anything the dying leader wrote sorts strictly before
// everything the new leader writes.
//
// Terms. A new leader opens its term by appending a full-state snapshot to
// its own log, unforced; log flushes and ship batches are prefix-ordered, so
// the first forced record of the term makes the snapshot durable with it —
// and the oracle issues nothing before that first force (the lease grant).
// Until then the term is not established: the previous established leader
// stays the anchor, and its stream and ship set stay what an election reads.

const (
	// electionDelay models failure detection: how long after the leader's
	// power failure a follower takes over.
	electionDelay = 150 * time.Millisecond
	// coordWaitDelay paces restart-time coordinator queries against a
	// fenced master.
	coordWaitDelay = 250 * time.Millisecond
	// failoverGrace is the presumed-abort grace window after an election:
	// in-doubt queries for unknown transactions wait it out, giving
	// in-flight commits time to re-replicate decisions the old leader
	// forced but never shipped. Far larger than a retry round-trip, far
	// smaller than a restart delay.
	failoverGrace = 2 * time.Second
	// reconcileDelay is how long after an election the new leader waits
	// before probing participants of rebuilt decisions.
	reconcileDelay = 500 * time.Millisecond
	// seqEpochGap is the sequence headroom an election leaves for records
	// the dying leader may still land on a follower.
	seqEpochGap = 1024
	// leaseHeadroom triggers a lease extension when fewer timestamps
	// remain; it must cover the handful of raw oracle calls (migration
	// horizons) that bypass the master's lease check.
	leaseHeadroom = 256
	// defaultLeaseChunk is how many timestamps one lease grant covers.
	defaultLeaseChunk = 8192
)

// ErrMasterDown reports that the coordinator is unavailable: the leader
// power-failed and no follower has completed failover yet, or a mutation
// could not be replicated to any follower.
type ErrMasterDown struct{}

func (ErrMasterDown) Error() string {
	return "cluster: coordinator unavailable (awaiting master failover)"
}

// masterRep is the replication state of the coordinator role.
type masterRep struct {
	seq uint64 // last master-state sequence number issued
	// anchor is the last leader whose term was established (a forced record
	// acked). It and its ship set hold every acknowledged coordinator record,
	// so they are the electorate.
	anchor *DataNode
}

// electorate returns the nodes whose disks can hold acknowledged coordinator
// history: the anchor and its ship set.
func (m *Master) electorate() []*DataNode {
	a := m.rep.anchor
	group := []*DataNode{a}
	for _, l := range a.ship.links {
		group = append(group, l.follower)
	}
	return group
}

// enableMasterReplication turns the coordinator into a replicated state
// machine whose records ship on the leader's data-replication stream (which
// must be enabled first). Node 0 and its ship set are forced active — a
// replica must keep power. Setup-only (New calls it when
// Config.MasterReplicas is positive), so the bootstrap records replicate
// without charging virtual time.
func (c *Cluster) enableMasterReplication() {
	m := c.Master
	m.rep = &masterRep{anchor: m.Node}
	for _, n := range m.electorate() {
		n.HW.ForceActive()
	}
	if err := m.ensureLease(nil); err != nil {
		panic(fmt.Sprintf("cluster: bootstrap lease replication failed: %v", err))
	}
}

// Fenced reports whether the coordinator is currently unavailable (leader
// down, failover pending).
func (m *Master) Fenced() bool { return m.rep != nil && m.down }

// Failovers returns how many leader elections have completed.
func (m *Master) Failovers() int { return m.failovers }

// LeaderID returns the node currently seated as coordinator.
func (m *Master) LeaderID() int { return m.Node.ID }

// SetLeaseChunk overrides the lease grant size and re-arms the in-memory
// lease to one fresh chunk (tests sweep failovers across lease boundaries
// with small chunks; the bootstrap grant would otherwise defer the first
// boundary by defaultLeaseChunk timestamps). Lowering only the in-memory
// ceiling is safe: the durable bootstrap grant stays higher, so a failover
// resuming at the highest replicated ceiling is still strictly above
// anything this leader could have issued.
func (m *Master) SetLeaseChunk(n int) {
	if n <= 0 {
		return
	}
	m.leaseChunk = n
	if m.rep != nil {
		m.Oracle.RearmLease(m.Oracle.Clock() + 1 + cc.Timestamp(n))
	}
}

// logMaster appends rec to the leader's WAL under the next state-machine
// sequence number. Without force that is all: the frame rides the leader's
// ship queue, and loss is tolerated because unforced records are
// resurrection-safe (acks re-derive from participant logs, cleanup snapshots
// merely retire read-safe dual pointers). With force the local flush is
// kicked and one forced ship pass runs beside it (forcePass), then the flush
// is joined; the record counts as replicated (return true) only once it is
// durable on the leader and an in-sync follower holds it durably. A second
// pass runs only when the first began before the flush and left the record
// short of a follower — held back behind a catalog snapshot the leader had
// not flushed yet (shippable). Unlike forceShip the call never waits for a
// follower to come back: Begin and commitGate turn an unreachable ship set
// into ErrMasterDown, not a queue.
//
// p == nil with force is the setup path (cluster construction, table
// creation): no simulation process exists yet, so delivery is synchronous
// and free. A leader epoch change while a blocking call was in flight aborts
// the ship — the caller works for a seat that has been re-elected.
func (m *Master) logMaster(p *sim.Proc, rec wal.Record, force bool) bool {
	r := m.rep
	r.seq++
	rec.Part = r.seq
	leader := m.Node
	lsn := leader.Log.Append(rec)
	if !force {
		return true
	}
	c := m.cluster
	if p == nil {
		c.setupDrain(leader)
	} else {
		epoch := m.epoch
		leader.Log.Kick()
		for local := false; !local && !c.replicaDurable(leader, lsn); {
			if local = c.forcePass(p, leader, lsn); m.epoch != epoch {
				return false
			}
		}
	}
	if !c.replicaDurable(leader, lsn) {
		return false
	}
	r.anchor = leader
	return true
}

// ensureLease keeps the oracle's replicated lease ahead of consumption:
// when fewer than leaseHeadroom timestamps remain, a new ceiling is forced
// to the followers before the in-memory lease extends. The headroom absorbs
// the few raw oracle calls (migration snapshot horizons) that cannot reach
// this check.
func (m *Master) ensureLease(p *sim.Proc) error {
	if m.rep == nil {
		return nil
	}
	o := m.Oracle
	// An unleased oracle (Leased() == 0) reports unbounded headroom; it
	// still needs its first grant, or the ceiling never exists and failover
	// has no replicated bound to resume above.
	if o.Leased() != 0 && o.Remaining() > leaseHeadroom {
		return nil
	}
	ceil := o.Leased()
	if c := o.Clock() + 1; c > ceil {
		ceil = c
	}
	ceil += cc.Timestamp(m.leaseChunk)
	if !m.logMaster(p, wal.Record{Type: wal.RecMLease, TS: ceil}, true) {
		return ErrMasterDown{}
	}
	o.ExtendLease(ceil)
	return nil
}

// commitGate is checked before the oracle issues a begin or a commit
// timestamp: the coordinator must be seated and hold lease headroom. Failing
// here is safe — nothing of the transaction is visible yet, so the caller
// aborts cleanly.
func (m *Master) commitGate(p *sim.Proc) error {
	if m.rep == nil {
		return nil
	}
	if m.down || m.Node.Down() {
		return ErrMasterDown{}
	}
	return m.ensureLease(p)
}

// coordCheck guards long-running coordinator work (migrations): it fails
// when the master is fenced or when a failover re-seated the coordinator
// since the caller captured epoch — the caller's entry pointers are stale.
func (m *Master) coordCheck(epoch uint64) error {
	if m.rep == nil {
		return nil
	}
	if m.down {
		return ErrMasterDown{}
	}
	if m.epoch != epoch {
		return fmt.Errorf("cluster: coordinator failover fenced this operation")
	}
	return nil
}

// tableRecord builds the replicated snapshot record of one table's current
// coordinator state (catalog entry + full partition table).
func (m *Master) tableRecord(name string) wal.Record {
	tm := m.tables[name]
	st := &wal.MasterTable{Name: name, Scheme: byte(tm.Scheme),
		Replicated: tm.replicas != nil, NextPartID: uint64(m.nextPartID)}
	if tm.replicas != nil {
		nodes := make([]*DataNode, 0, len(tm.replicas))
		for n := range tm.replicas {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		for _, n := range nodes {
			st.Entries = append(st.Entries, wal.MasterEntry{
				PartID: uint64(tm.replicas[n].ID), OwnerID: uint32(n.ID)})
		}
	} else {
		for _, e := range tm.entries {
			me := wal.MasterEntry{PartID: uint64(e.Part.ID), OwnerID: uint32(e.Owner.ID),
				Low: e.Low, High: e.High, MovedBelow: e.MovedBelow}
			if e.OldPart != nil {
				me.HasOld = true
				me.OldPartID = uint64(e.OldPart.ID)
				me.OldOwnerID = uint32(e.OldOwner.ID)
			}
			st.Entries = append(st.Entries, me)
		}
	}
	return wal.Record{Type: wal.RecMState, After: wal.EncodeMasterTable(nil, st)}
}

// shipTable replicates a table's current snapshot. No-op without
// replication; returns false when the coordinator is fenced or a forced ship
// reached no follower.
func (m *Master) shipTable(p *sim.Proc, name string, force bool) bool {
	if m.rep == nil {
		return true
	}
	return !m.down && m.logMaster(p, m.tableRecord(name), force)
}

// clearOldPointer retires the old-location pointer of the current entry
// covering exactly [low, high). The asynchronous cleanup processes capture
// entry objects when scheduled, but a failover in between replaces the whole
// partition table — the retirement must land on whatever entry routing uses
// now, or the rebuilt old pointer would outlive the vacuumed source.
func (m *Master) clearOldPointer(name string, low, high []byte) {
	tm, ok := m.tables[name]
	if !ok {
		return
	}
	for _, e := range tm.entries {
		if bytes.Equal(e.Low, low) && bytes.Equal(e.High, high) {
			e.OldPart = nil
			e.OldOwner = nil
		}
	}
}

// findPart resolves a partition ID on this node: the live registry first,
// then the crash registry (a rebuilt master entry may point at a dead
// partition object — exactly what rebind re-points on restart).
func (n *DataNode) findPart(id table.PartID) *table.Partition {
	if pt, ok := n.Parts[id]; ok {
		return pt
	}
	for _, pt := range n.lostParts {
		if pt.ID == id {
			return pt
		}
	}
	return nil
}

// applyTableState installs a replayed table snapshot into the catalog,
// resolving partition IDs against the nodes' registries.
func (m *Master) applyTableState(st *wal.MasterTable) {
	schema, ok := m.schemas[st.Name]
	if !ok {
		return // table unknown to this process image (never created here)
	}
	tm := &TableMeta{Schema: schema, Scheme: table.Scheme(st.Scheme)}
	if st.Replicated {
		tm.replicas = make(map[*DataNode]*table.Partition)
		for i := range st.Entries {
			e := &st.Entries[i]
			n := m.cluster.Nodes[e.OwnerID]
			if pt := n.findPart(table.PartID(e.PartID)); pt != nil {
				tm.replicas[n] = pt
			}
		}
	} else {
		for i := range st.Entries {
			se := &st.Entries[i]
			owner := m.cluster.Nodes[se.OwnerID]
			re := &RangeEntry{Low: se.Low, High: se.High,
				Part: owner.findPart(table.PartID(se.PartID)), Owner: owner,
				MovedBelow: se.MovedBelow}
			if re.Part == nil {
				panic(fmt.Sprintf("cluster: replicated entry of %s names partition %d absent from node %d",
					st.Name, se.PartID, se.OwnerID))
			}
			if se.HasOld {
				oldOwner := m.cluster.Nodes[se.OldOwnerID]
				if pt := oldOwner.findPart(table.PartID(se.OldPartID)); pt != nil {
					re.OldPart = pt
					re.OldOwner = oldOwner
				}
			}
			tm.entries = append(tm.entries, re)
		}
	}
	m.tables[st.Name] = tm
	if table.PartID(st.NextPartID) > m.nextPartID {
		m.nextPartID = table.PartID(st.NextPartID)
	}
}

// leaderDown fences the coordinator the instant its node power-fails and
// schedules the election. Non-blocking (doCrash must not block). The epoch
// bump immediately invalidates in-flight ships and migrations working for
// the dead seat.
func (m *Master) leaderDown() {
	if m.down {
		return
	}
	m.down = true
	m.epoch++
	m.cluster.Env.Spawn("master-election", func(p *sim.Proc) {
		p.Sleep(electionDelay)
		m.tryElect()
	})
}

// masterCopy reads the replicated coordinator records of the anchor's stream
// that n's disk holds — shippedCopy, which is n's own log if it is the anchor,
// else the durable wrappers it keeps as the anchor's follower — in stream
// order, and their highest sequence. held is false when n holds no part of
// the stream at all; the anchor's own copy counts as held whatever it holds.
// Nothing is copied: the records alias the frames of the copy.
//
// The copy stops at n's flushed boundary, and for the anchor that loses
// nothing an election could want: while one runs, every coordinator record on
// the anchor's log is flushed. Either the anchor is down (an election reads no
// down node's copy), or it is being revived from its durable log, or it is up
// and has not led since its last restart — leadership moves only by election,
// and an election needs its leader down.
func (m *Master) masterCopy(n *DataNode) (recs []wal.Record, maxSeq uint64, held bool) {
	fs := m.cluster.shippedCopy(n, m.rep.anchor)
	var rec wal.Record
	for _, frame := range fs.frames {
		if wal.DecodeFrame(frame, &rec) == nil && wal.MasterRecord(&rec) {
			recs = append(recs, rec)
			maxSeq = max(maxSeq, rec.Part)
		}
	}
	return recs, maxSeq, fs.len() > 0 || n == m.rep.anchor
}

// CoordAhead returns a lease or decision record of n's stream that n's own log
// has not flushed and a follower of n holds durably, if there is one: what a
// power failure of n now leaves for an election to adopt (tryElect). The
// follower is an in-sync one whose log is flushed through its last wrapper,
// so every frame its replica store holds of n's current generation is
// durable there; the candidates are the few above n's flushed boundary. The
// record aliases the store's frame.
func (c *Cluster) CoordAhead(n *DataNode) (ahead wal.Record, ok bool) {
	if c.drep == nil {
		return ahead, false
	}
	for _, l := range n.ship.links {
		if st := l.store; st != nil && !l.stale && l.follower.Log.FlushedLSN() >= l.wrapLSN {
			for i := st.frames.len() - 1; i >= 0 && st.frames.lsns[i] > n.Log.FlushedLSN(); i-- {
				if wal.DecodeFrame(st.frames.frames[i], &ahead) == nil && (ahead.Type == wal.RecDecision || ahead.Type == wal.RecMLease) {
					return ahead, true
				}
			}
		}
	}
	return wal.Record{}, false
}

// tryElect seats a new leader if the coordinator is fenced and a safe
// candidate exists. A node inside RestartNode whose durable log is already
// recovered or rebuilt (reviving) counts as live.
//
// The electorate is the anchor and its ship set, and their copies of the
// anchor's stream are all an election reads: the stream opens each of the
// anchor's terms with a full snapshot, and a later, never established term
// acknowledged nothing. Every acknowledged record is durable on the anchor
// and on at least one follower, whose durable copy is a prefix of the stream.
//
// A follower's copy may run past the anchor's disk: everything but a catalog
// snapshot ships beside the anchor's own force, so the suffix a follower keeps
// of a stream its anchor lost — until masterCopy cuts it off, once the anchor
// has restarted — may hold records the anchor never flushed. No catalog
// snapshot is among them (sendQueued stops a batch before the first one not
// yet flushed: migration routing must never follow one that may vanish).
// Adopting any of the others is safe:
//   - an ack records that a participant's log holds its branch closed, a fact
//     about that log and not about the leader's, and it removes a participant
//     from a decision only after the decision itself, which precedes it in
//     the stream;
//   - a decision is in m.decisions already (recordDecision puts it there
//     before its first force), and electFrom keeps that map; its session
//     retries until some leader has logged the record, so the transaction
//     commits whichever copy wins;
//   - a lease ceiling only ever raises the oracle's clock, and the oracle
//     issued nothing under it: it does so only once logMaster acks the grant,
//     and that ack waits for the leader's own flush.
//
// So the live copies include a complete one when the anchor is among them or
// every follower is, and the one with the highest sequence is it — a longer
// prefix of the same stream holds everything a shorter one does. A follower
// counts only if it holds part of the stream: one wiped and not yet resynced
// could otherwise stand in for the follower that held the record. Failing that the coordinator
// stays fenced until more of the electorate restarts. Non-blocking; charges
// nothing (like restart-time log analysis).
func (m *Master) tryElect() {
	r := m.rep
	if r == nil || !m.down {
		return
	}
	group := m.electorate()
	var best *DataNode
	var bestRecs []wal.Record
	var bestSeq uint64
	copies := 0 // live follower copies; the anchor's own stands for all of them
	for _, n := range group {
		if n.crashed && !n.reviving {
			continue
		}
		recs, seq, held := m.masterCopy(n)
		if !held {
			continue
		}
		if copies++; n == r.anchor {
			copies = len(group)
		}
		if best == nil || seq > bestSeq {
			best, bestRecs, bestSeq = n, recs, seq
		}
	}
	if copies < len(group)-1 {
		return
	}
	m.electFrom(best, bestRecs, bestSeq)
}

// electFrom rebuilds the coordinator state machine from recs — candidate's
// copy of the replicated history, whose highest sequence is maxSeq — and
// seats candidate as leader, in place: the Master object and its Oracle
// pointer stay stable (sessions, node dependencies, and harnesses hold them).
// The catalog and partition tables come from the newest replicated snapshot
// of each table, the decision map from decision/ack records, and the oracle
// resumes at the replicated lease ceiling — strictly above anything the old
// leader issued (foldCoord). recs come in stream order, which is sequence
// order: on one stream both are append order (a rebuild re-appends in order,
// too), as the checkpoint's fold of the same records relies on (ckptScan).
// Non-blocking: routing flips in one instant.
func (m *Master) electFrom(candidate *DataNode, recs []wal.Record, maxSeq uint64) {
	r := m.rep
	// The decision map is NOT reset: every in-memory ack corresponds to a
	// participant branch durably closed (commit record or roll-forward
	// flushed), so existing entries are strictly fresher than the log's, and
	// entries the dead leader installed but never replicated must survive —
	// their commit sessions are still blocked in the replication retry loop
	// and restarting participants must be told to roll forward, not to
	// presume abort. The fold only adds decisions this Master never saw.
	h := foldCoord(recs, m.decisions)
	// In any order: each snapshot replaces its own table, and nextPartID only
	// rises.
	m.tables = make(map[string]*TableMeta)
	for _, t := range h.tables {
		m.applyTableState(t.st)
	}
	// Never below what this seat already issued: a never-established term
	// left records on its leader's log that no copy of the anchor's stream
	// shows, and sequences must stay unique.
	r.seq = max(r.seq, maxSeq) + seqEpochGap
	m.Node = candidate
	m.Oracle.Failover(h.lease)
	m.down = false
	m.epoch++
	m.failovers++
	m.graceUntil = m.cluster.Env.Now() + failoverGrace
	m.pub.poke()
	m.logSnapshot()
	m.reconcile()
}

// coordHistory is the one reading of a copy of the replicated coordinator
// records: what an election seats from it (electFrom), each part with the
// LSN of the record that carries it, so a checkpoint keeps exactly those
// records of the log that holds them (ckptScan, over the history each log
// keeps in its logFold).
type coordHistory struct {
	tables    map[string]coordTable // the newest decodable catalog snapshot of each table
	lease     cc.Timestamp          // the lease ceiling: the highest grant
	leaseLSN  uint64                // the last record granting it (0: none)
	decisions map[cc.TxnID]*txnDecision
}

type coordTable struct {
	st  *wal.MasterTable
	lsn uint64
}

// foldCoord reads recs in sequence order, as an election replays them, and
// skips every record that is not a replicated coordinator record. A table's
// newer snapshot replaces its older one wholesale, and only the highest lease
// ceiling counts. decisions holds the decisions already known — the seated
// master's for an election, none for a retention floor — and the fold extends
// it in place: a decision record of a known transaction is skipped (the known
// entry is fresher, and blocked commit sessions hold it), an unknown one
// enters with every participant outstanding, and each ack resolves one
// participant of a known decision, which drains once none is left.
func foldCoord(recs []wal.Record, decisions map[cc.TxnID]*txnDecision) *coordHistory {
	h := &coordHistory{tables: make(map[string]coordTable), decisions: decisions}
	for i := range recs {
		h.add(&recs[i])
	}
	return h
}

// add folds the record that follows every record folded so far.
func (h *coordHistory) add(rec *wal.Record) {
	if !wal.MasterRecord(rec) {
		return
	}
	switch rec.Type {
	case wal.RecMState:
		if st, err := wal.DecodeMasterTable(rec.After); err == nil {
			h.tables[st.Name] = coordTable{st, rec.LSN}
		}
	case wal.RecMLease:
		if rec.TS >= h.lease {
			h.lease, h.leaseLSN = rec.TS, rec.LSN
		}
	case wal.RecDecision:
		if _, known := h.decisions[rec.Txn]; known {
			return
		}
		nodes, err := wal.DecodeMasterParticipants(rec.After)
		if err != nil {
			return
		}
		out := make(map[int]bool, len(nodes))
		for _, id := range nodes {
			out[id] = true
		}
		h.decisions[rec.Txn] = &txnDecision{ts: rec.TS, outstanding: out, lsn: rec.LSN}
	case wal.RecMAck:
		if node, err := wal.DecodeMasterAck(rec.After); err == nil {
			dropAck(h.decisions, rec.Txn, node)
		}
	}
}

// floor returns the lowest LSN of a record the history was read from: cut
// below it, the log still gives an election the same tables, lease ceiling
// and outstanding decisions. Older snapshots of a table, lower or repeated
// ceilings and drained decisions lie below it.
func (h *coordHistory) floor() uint64 {
	floor := uint64(noFloor)
	for _, t := range h.tables {
		floor = min(floor, t.lsn)
	}
	if h.leaseLSN > 0 {
		floor = min(floor, h.leaseLSN)
	}
	for _, d := range h.decisions {
		floor = min(floor, d.lsn)
	}
	return floor
}

// awaitAvailable blocks restart-time coordinator queries until the master
// is seated and the post-election presumed-abort grace has passed — a
// participant must not be told "no decision" while an in-flight commit is
// still re-replicating a verdict the dead leader forced but never shipped.
func (m *Master) awaitAvailable(p *sim.Proc) {
	if m.rep == nil {
		return
	}
	for {
		if m.down {
			p.Sleep(coordWaitDelay)
			continue
		}
		if now := m.cluster.Env.Now(); now < m.graceUntil {
			p.Sleep(m.graceUntil - now)
			continue
		}
		return
	}
}

// reconcile probes, shortly after an election, the live participants of
// every rebuilt decision: a branch the participant's transaction table —
// the one its checkpoints keep, caught up on its log (readLog) — shows
// resolved (wal.Analysis.Resolved) is acked, draining entries whose original
// acks were in flight — or unforced and lost — when the old leader died. A
// branch never prepared is judged on the whole log and acked at once. The
// log also holds the volatile tail, so a branch closed by a commit or abort
// record goes through ackResolved, which acks once that record is flushed
// and on a follower: a commit record still being forced is no verdict yet —
// a power failure before the flush leaves the branch in doubt, and its
// restart needs the decision. Participants still down resolve at their own
// restart. Deterministic order throughout (sorted transactions, sorted
// nodes).
func (m *Master) reconcile() {
	epoch := m.epoch
	m.cluster.Env.Spawn("master-reconcile", func(p *sim.Proc) {
		p.Sleep(reconcileDelay)
		if m.rep == nil || m.down || m.epoch != epoch {
			return
		}
		ids := make([]cc.TxnID, 0, len(m.decisions))
		for id := range m.decisions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			d, ok := m.decisions[id]
			if !ok {
				continue
			}
			nodes := make([]int, 0, len(d.outstanding))
			for nid := range d.outstanding {
				nodes = append(nodes, nid)
			}
			sort.Ints(nodes)
			for _, nid := range nodes {
				n := m.cluster.Nodes[nid]
				if n.Down() {
					continue // its own restart resolves the branch
				}
				if n != m.Node {
					m.cluster.Net.Transfer(p, m.Node.ID, n.ID, 32)
					m.cluster.Net.Transfer(p, n.ID, m.Node.ID, 32)
				}
				if m.epoch != epoch {
					return
				}
				f, err := n.readLog()
				if err != nil {
					continue
				}
				switch resolved, at := f.a.Resolved(id); {
				case resolved && at == 0: // never prepared here
					m.ackDecision(id, nid)
				case resolved:
					m.cluster.ackResolved(n, []cc.TxnID{id}, at)
				}
			}
		}
	})
}

// outstandingDecisionsFor lists the decided transactions still awaiting an
// ack from node, ascending.
func (m *Master) outstandingDecisionsFor(node int) []cc.TxnID {
	var out []cc.TxnID
	for id, d := range m.decisions {
		if d.outstanding[node] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// logSnapshot opens a term: it appends the coordinator's full current state
// to the new leader's log, unforced — one snapshot per table, every
// remembered decision with its outstanding participants, and the lease
// ceiling, in deterministic order. It is one non-blocking burst of appends,
// so every flush and every ship batch carries it whole or not at all.
func (m *Master) logSnapshot() {
	names := make([]string, 0, len(m.tables))
	for name := range m.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]wal.Record, 0, len(names)+len(m.decisions)+1)
	for _, name := range names {
		recs = append(recs, m.tableRecord(name))
	}
	ids := make([]cc.TxnID, 0, len(m.decisions))
	for id := range m.decisions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := m.decisions[id]
		nodes := make([]int, 0, len(d.outstanding))
		for nid := range d.outstanding {
			nodes = append(nodes, nid)
		}
		sort.Ints(nodes)
		recs = append(recs, wal.Record{Txn: id, Type: wal.RecDecision, TS: d.ts,
			After: wal.EncodeMasterParticipants(nil, nodes)})
	}
	recs = append(recs, wal.Record{Type: wal.RecMLease, TS: m.Oracle.Leased()})
	for _, rec := range recs {
		m.logMaster(nil, rec, false)
	}
}
