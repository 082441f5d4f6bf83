package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Session executes one transaction. The transaction's logic runs at a home
// node (TPC-C: the node owning the home warehouse); operations on
// partitions owned elsewhere pay request/response network trips, and commit
// runs two-phase when multiple nodes were written.
//
// The snapshot is the published clock at Begin, so a read may return a version
// whose commit is still in its force; the session then depends on that commit
// (Txn.Deps). What a session read is final when its Commit returns nil and at
// no earlier point — a read-only session's too: Commit is what settles the
// dependencies, and it fails, retryably, if a power failure rolled one of them
// back. Abort discards the reads along with the writes; a caller that acts on
// a read before Commit returned, or after Abort, acts on a value that may
// never have existed.
type Session struct {
	m    *Master
	Txn  *cc.Txn
	Home *DataNode

	// touched: partitions with staged writes, by owning node. Lazily
	// allocated by touch() — read-only transactions never pay for it.
	touched map[*table.Partition]*DataNode
	// lockNodes: nodes whose lock managers hold locks for this txn
	// (locking mode also locks on reads). Lazily allocated by lockNode().
	lockNodes map[*DataNode]bool
	// fenced marks a session refused at Begin because the replicated
	// coordinator was unavailable: its transaction is born aborted and
	// every operation returns ErrMasterDown.
	fenced bool
	// reads counts the snapshot reads of partitions owned away from home,
	// alternating them between the owner and an eligible replica under data
	// replication (see followerFor).
	reads int
	// rs is the read set Refresh checks: the keys the session read at their
	// owners, taken from the master's pool at the first read (refresh.go).
	// unrefreshable marks a session with reads rs cannot hold — a scan, a
	// replica read, a read of a migrating range — or one that has ended.
	rs            *readSet
	unrefreshable bool

	// PreferFollower is the analytics offloading hint: a read-only snapshot
	// session that sets it — before its first read — skips the owner/replica
	// alternation and serves every eligible read from a follower store — the
	// one hosted at home first — keeping scans off the primaries entirely, a
	// home primary included. Only the load-balancing heuristic is bypassed —
	// all safety gates (snapshot coverage, in-flight commits, sync state) still
	// apply, and ineligible reads fall back to the owner as usual.
	//
	// It also means the session reads at its safe snapshot (Txn.Safe) instead
	// of the clock: a replica can only ever serve settled history, and a query
	// that never commits has no point at which to settle a dependency. Such a
	// session sees nothing unsettled, takes no dependency, and needs no Commit
	// for its reads to be final.
	PreferFollower bool
}

// Begin starts a transaction executing at home. A snapshot-isolation
// transaction takes its snapshot from the oracle's published view, which
// every node holds, so it sends no message at any home; that view covers
// every commit acknowledged so far (publish.go). A locking transaction needs
// a fresh timestamp from the master's oracle, and starting it away from the
// master's node pays the coordination round trip. The session's bookkeeping
// maps are allocated on first write or lock, keeping transaction setup
// map-free (TestSessionSetupAllocs pins this).
func (m *Master) Begin(p *sim.Proc, mode cc.Mode, home *DataNode) *Session {
	// A fenced coordinator (or one whose lease cannot replicate) admits no
	// new transactions: the session is born aborted and the caller sees
	// ErrMasterDown on every operation — the modeled unavailability window
	// of a master failover.
	if m.commitGate(p) != nil {
		return &Session{m: m, Txn: &cc.Txn{Mode: mode, State: cc.TxnAborted}, Home: home, fenced: true}
	}
	if mode == cc.Locking && home != m.Node {
		m.cluster.Net.Transfer(p, home.ID, m.Node.ID, 32)
		m.cluster.Net.Transfer(p, m.Node.ID, home.ID, 32)
	}
	txn := m.Oracle.Begin(mode)
	home.HW.Compute(p, m.cluster.Cal.CPUTxnOverhead)
	return &Session{m: m, Txn: txn, Home: home}
}

// touch records a staged write's partition and owning node.
func (s *Session) touch(pt *table.Partition, owner *DataNode) {
	if s.touched == nil {
		s.touched = make(map[*table.Partition]*DataNode, 4)
	}
	s.touched[pt] = owner
}

// lockNode records that node's lock manager holds locks for this txn.
func (s *Session) lockNode(n *DataNode) {
	if s.lockNodes == nil {
		s.lockNodes = make(map[*DataNode]bool, 4)
	}
	s.lockNodes[n] = true
}

// BeginSystem starts a system transaction (record movement housekeeping).
func (m *Master) BeginSystem(p *sim.Proc, mode cc.Mode, home *DataNode) *Session {
	s := m.Begin(p, mode, home)
	s.Txn.System = true
	return s
}

// pin runs ahead of every read and fixes what the session reads at: under
// PreferFollower the safe snapshot, from the first read on.
func (s *Session) pin() {
	if s.PreferFollower {
		s.Txn.Begin = s.Txn.Safe
	}
}

// rpc charges a request/response round trip between home and the operating
// node (free when co-located).
func (s *Session) rpc(p *sim.Proc, owner *DataNode, reqBytes, respBytes int64) {
	if owner == s.Home {
		return
	}
	s.m.cluster.Net.Transfer(p, s.Home.ID, owner.ID, reqBytes+32)
	s.m.cluster.Net.Transfer(p, owner.ID, s.Home.ID, respBytes+32)
}

// followerFor returns the link to a replica eligible to serve this session's
// snapshot reads of e's partition, or nil to read at the owner. Eligibility
// is a conjunction of safety gates: the store mirrors every committed version
// visible at the session's snapshot only if the owner has nothing queued or
// in flight at or below it and the follower is fully in sync.
//
// Among the eligible copies the cheapest wins. A copy on the session's home
// node costs no network trip, so it is always taken: the owner itself when it
// is home, else an eligible replica store hosted there. Only when every copy
// is remote do reads alternate between the owner and a replica, so both paths
// stay exercised and the owner keeps roughly half the load.
func (s *Session) followerFor(e *RangeEntry) *shipLink {
	if s.m.cluster.drep == nil || s.Txn.Mode != cc.SnapshotIsolation || len(s.touched) != 0 {
		return nil
	}
	origin := e.Owner
	if origin == s.Home && !s.PreferFollower {
		return nil // the owner's copy is local
	}
	s.reads++
	if e.OldPart != nil {
		return nil // a migration is in flight (dual copies)
	}
	ownerTurn := s.reads%2 == 0 && !s.PreferFollower
	if ownerTurn && origin.ship.link(s.Home) == nil {
		return nil // every replica is as far away as the owner
	}
	if origin.Down() || origin.ship.visibleBelow(s.Txn.Begin) {
		return nil // an undelivered frame holds a version below the snapshot
	}
	if origin.Commits.Below(s.Txn.Begin) {
		return nil // a commit at or below the snapshot is not yet replicated
	}
	var remote *shipLink
	for _, l := range origin.ship.links {
		if l.follower.Down() || l.stale {
			continue
		}
		// A store seeded from base images holds no history below its floor;
		// a snapshot down there must resolve at the owner (which applies its
		// own recovery-horizon fence).
		if st := l.store; st != nil && st.parts[e.Part.ID] != nil && st.floor <= s.Txn.Begin {
			if l.follower == s.Home {
				return l
			}
			if remote == nil {
				remote = l
			}
		}
	}
	if ownerTurn {
		return nil
	}
	return remote
}

type loc struct {
	part  *table.Partition
	owner *DataNode
}

// candidates returns the partitions to visit, new location first.
func (e *RangeEntry) candidates() []loc {
	out := []loc{{e.Part, e.Owner}}
	if e.OldPart != nil {
		out = append(out, loc{e.OldPart, e.OldOwner})
	}
	return out
}

// candidatesFor orders the locations for a specific key: during a logical
// migration the advancing boundary decides which copy is authoritative
// ("transactions read either copy, but not both", Sect. 4.2).
func (e *RangeEntry) candidatesFor(key []byte) []loc {
	if e.OldPart == nil {
		return []loc{{e.Part, e.Owner}}
	}
	if e.MovedBelow != nil && bytes.Compare(key, e.MovedBelow) >= 0 {
		// Not yet moved: the old location is authoritative.
		return []loc{{e.OldPart, e.OldOwner}, {e.Part, e.Owner}}
	}
	return []loc{{e.Part, e.Owner}, {e.OldPart, e.OldOwner}}
}

// staged touches pt, where a write of key just landed, so Abort finds the
// write, and checks it against the routing as it stands now. The routing was
// read before the request travelled to pt, and a logical move may have passed
// key since: a batch checks its window for writes, advances its boundary and
// commits without blocking, but cannot see a write still on its way. Left
// staged, such a write would commit in the source's dead copy, where no reader
// looks, so it fails as the conflict it lost. A segment-wise move needs no
// check: its source refuses what it no longer owns.
func (s *Session) staged(tableName string, pt *table.Partition, owner *DataNode, key []byte) error {
	s.touch(pt, owner)
	tm, err := s.m.Table(tableName)
	if err != nil {
		return err
	}
	e, err := tm.route(key)
	if err != nil {
		return err
	}
	if pt == e.Part {
		return nil
	}
	if pt != e.OldPart || tm.Scheme == table.Logical && (e.MovedBelow == nil || bytes.Compare(key, e.MovedBelow) < 0) {
		return cc.ErrWriteConflict
	}
	return nil
}

// Get reads key from tableName, visiting both locations of an in-flight
// migration if needed.
func (s *Session) Get(p *sim.Proc, tableName string, key []byte) ([]byte, bool, error) {
	if s.fenced {
		return nil, false, ErrMasterDown{}
	}
	s.pin()
	tm, err := s.m.Table(tableName)
	if err != nil {
		return nil, false, err
	}
	if tm.Replicated() {
		pt := tm.Replica(s.Home)
		if pt == nil {
			return nil, false, fmt.Errorf("cluster: no %s replica on node %d", tableName, s.Home.ID)
		}
		return pt.Get(p, s.Txn, key)
	}
	e, err := tm.route(key)
	if err != nil {
		return nil, false, err
	}
	if e.OldPart != nil {
		s.unrefreshable = true
	}
	// Follower snapshot read: an in-sync replica resolves the key below its
	// applied horizon without touching the owner. Its answer is authoritative
	// either way — the store mirrors the owner's full committed history, so
	// "absent" and a visible tombstone both mean not-found at this snapshot.
	if l := s.followerFor(e); l != nil {
		s.rpc(p, l.follower, 32, 64)
		// Re-read after the blocking trip: a crash or resync may have
		// replaced the store — possibly with one re-seeded from base images
		// whose floor now excludes this snapshot (fall back to the owner).
		if st := l.store; st != nil && st.floor <= s.Txn.Begin {
			if rp := st.parts[e.Part.ID]; rp != nil {
				s.m.cluster.drep.FollowerReads++
				s.unrefreshable = true
				v, ok := rp.get(key, s.Txn.Begin)
				if !ok || v.Deleted {
					return nil, false, nil
				}
				return v.Val, true, nil
			}
		}
	}
	answered := false
	for _, c := range e.candidatesFor(key) {
		if s.Txn.Mode == cc.Locking {
			s.lockNode(c.owner)
		}
		s.rpc(p, c.owner, 32, 64)
		v, state, err := c.part.Lookup(p, s.Txn, key)
		if _, notOwned := err.(table.ErrNotOwned); notOwned {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		answered = true
		s.noteRead(tm, e, c.part, c.owner, key)
		switch state {
		case table.LookupLive:
			return v, true, nil
		case table.LookupDeleted:
			// A committed tombstone here is authoritative: falling through
			// to the other location would resurrect its stale copy.
			return nil, false, nil
		}
		// Absent: this location knows nothing of the key — the other
		// location of an in-flight migration may still hold it.
	}
	if !answered {
		s.unrefreshable = true // no location owned the key
	}
	return nil, false, nil
}

// GetForUpdate reads key from tableName for an update that follows: the
// owning partition takes the key's write intent before reading it and stages
// the value it read as the transaction's own write (table.Partition.
// GetForUpdate). Where the key was committed above the snapshot, the session
// moves its snapshot up to that commit if nothing it read has changed in
// between (Refresh), instead of dying on a write-write conflict. The payload
// returned must not be modified. A range in migration, a replicated table and
// locking mode read with a plain Get, and leave the write to the Put.
func (s *Session) GetForUpdate(p *sim.Proc, tableName string, key []byte) ([]byte, bool, error) {
	if s.fenced {
		return nil, false, ErrMasterDown{}
	}
	tm, err := s.m.Table(tableName)
	if err != nil {
		return nil, false, err
	}
	if s.Txn.Mode != cc.SnapshotIsolation || tm.Replicated() {
		return s.Get(p, tableName, key)
	}
	e, err := tm.route(key)
	if err != nil {
		return nil, false, err
	}
	if e.OldPart != nil {
		return s.Get(p, tableName, key)
	}
	s.pin()
	s.lockNode(e.Owner)
	s.rpc(p, e.Owner, 32, 64)
	v, ok, err := e.Part.GetForUpdate(p, s.Txn, key, s)
	if _, notOwned := err.(table.ErrNotOwned); notOwned {
		return s.Get(p, tableName, key) // a split or a move raced the routing
	}
	if ok {
		if err := s.staged(tableName, e.Part, e.Owner, key); err != nil {
			return nil, false, err
		}
	}
	return v, ok, err
}

// Put writes key in tableName under the session's transaction.
func (s *Session) Put(p *sim.Proc, tableName string, key, payload []byte) error {
	return s.write(p, tableName, key, payload, false)
}

// Delete removes key in tableName.
func (s *Session) Delete(p *sim.Proc, tableName string, key []byte) error {
	return s.write(p, tableName, key, nil, true)
}

func (s *Session) write(p *sim.Proc, tableName string, key, payload []byte, del bool) error {
	if s.fenced {
		return ErrMasterDown{}
	}
	tm, err := s.m.Table(tableName)
	if err != nil {
		return err
	}
	// A migrating range may bounce the write between old and new location
	// while the move completes; retry across both (bounded).
	for attempt := 0; attempt < 8; attempt++ {
		e, err := tm.route(key)
		if err != nil {
			return err
		}
		var lastNotOwned error
		for _, c := range e.candidatesFor(key) {
			s.lockNode(c.owner)
			s.rpc(p, c.owner, int64(len(payload))+32, 32)
			if del {
				err = c.part.Delete(p, s.Txn, key)
			} else {
				err = c.part.Put(p, s.Txn, key, payload)
			}
			if _, notOwned := err.(table.ErrNotOwned); notOwned {
				lastNotOwned = err
				continue
			}
			if err != nil {
				return err
			}
			return s.staged(tableName, c.part, c.owner, key)
		}
		if lastNotOwned == nil {
			return err
		}
		// Ownership is mid-flight; let the move progress and re-route.
		p.Sleep(s.m.cluster.Cal.NetLatency)
	}
	return table.ErrNotOwned{Part: 0, Key: key}
}

// Scan iterates records of tableName with keys in [lo, hi) visible to the
// session's transaction. During migration, both locations of a range are
// scanned and merged by key (each record is visible in exactly one of them
// for a given snapshot).
func (s *Session) Scan(p *sim.Proc, tableName string, lo, hi []byte, fn func(key, payload []byte) bool) error {
	if s.fenced {
		return ErrMasterDown{}
	}
	s.pin()
	s.unrefreshable = true // a range read is not in the read set
	tm, err := s.m.Table(tableName)
	if err != nil {
		return err
	}
	if tm.Replicated() {
		pt := tm.Replica(s.Home)
		if pt == nil {
			return fmt.Errorf("cluster: no %s replica on node %d", tableName, s.Home.ID)
		}
		return pt.Scan(p, s.Txn, lo, hi, fn)
	}
	for _, e := range tm.entries {
		if hi != nil && e.Low != nil && bytes.Compare(e.Low, hi) >= 0 {
			break
		}
		if lo != nil && e.High != nil && bytes.Compare(e.High, lo) <= 0 {
			continue
		}
		if s.Txn.Mode == cc.Locking {
			for _, c := range e.candidates() {
				s.lockNode(c.owner)
			}
		}
		// Clamp to the entry's range: a partition may back several
		// entries (after splits), and rows outside the entry's range must
		// be delivered by their own entry exactly once.
		elo, ehi := maxBytes(lo, e.Low), minBytes(hi, e.High)
		stop := false
		if e.OldPart == nil {
			wrapped := func(k, v []byte) bool {
				if !fn(k, v) {
					stop = true
					return false
				}
				return true
			}
			if !s.followerScanPart(p, e, elo, ehi, wrapped) {
				s.rpc(p, e.Owner, 64, 256)
				err = e.Part.Scan(p, s.Txn, elo, ehi, wrapped)
			}
		} else {
			err = s.mergedScan(p, e, elo, ehi, func(k, v []byte) bool {
				if !fn(k, v) {
					stop = true
					return false
				}
				return true
			})
		}
		if _, notOwned := err.(table.ErrNotOwned); notOwned {
			err = nil
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// followerScanPart serves one range entry's scan from an eligible replica
// store; it reports whether the scan was served (false falls back to the
// owner). Tombstones are skipped exactly as the owner's scan would.
func (s *Session) followerScanPart(p *sim.Proc, e *RangeEntry, lo, hi []byte, fn func(k, v []byte) bool) bool {
	l := s.followerFor(e)
	if l == nil {
		return false
	}
	s.rpc(p, l.follower, 64, 256)
	st := l.store
	if st == nil || st.floor > s.Txn.Begin {
		return false // crash or resync replaced the store mid-trip
	}
	rp := st.parts[e.Part.ID]
	if rp == nil {
		return false
	}
	s.m.cluster.drep.FollowerReads++
	rp.scan(lo, hi, s.Txn.Begin, fn)
	return true
}

// mergedScan visits both locations of a migrating range and merges results
// in key order. The new location is authoritative for every key it has a
// committed version for — including tombstones — so the old location only
// contributes keys the new one does not know (not yet moved, or never
// rewritten there). This keeps interrupted migrations sound: a record
// deleted or rewritten at the new location can never resurface from a
// stale copy left at the source.
func (s *Session) mergedScan(p *sim.Proc, e *RangeEntry, lo, hi []byte, fn func(k, v []byte) bool) error {
	type rec struct{ k, v []byte }
	var all []rec
	newSeen := map[string]bool{}
	// Snapshot the entry's pointers before the first blocking call: the
	// old-pointer/ghost cleanup processes null them asynchronously once old
	// snapshots drain, and this scan may be parked in I/O when they fire.
	newPart, newOwner := e.Part, e.Owner
	oldPart, oldOwner := e.OldPart, e.OldOwner
	s.rpc(p, newOwner, 64, 256)
	err := newPart.ScanWithTombstones(p, s.Txn, lo, hi, func(k, v []byte, deleted bool) bool {
		newSeen[string(k)] = true
		if !deleted {
			all = append(all, rec{bytes.Clone(k), bytes.Clone(v)})
		}
		return true
	})
	if _, notOwned := err.(table.ErrNotOwned); err != nil && !notOwned {
		return err
	}
	if oldPart != nil {
		s.rpc(p, oldOwner, 64, 256)
		err = oldPart.Scan(p, s.Txn, lo, hi, func(k, v []byte) bool {
			if !newSeen[string(k)] {
				all = append(all, rec{bytes.Clone(k), bytes.Clone(v)})
			}
			return true
		})
		if _, notOwned := err.(table.ErrNotOwned); err != nil && !notOwned {
			return err
		}
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].k, all[j].k) < 0 })
	for _, r := range all {
		if !fn(r.k, r.v) {
			return nil
		}
	}
	return nil
}

// Commit finishes the transaction. A read-only snapshot transaction ends at
// its home node; a transaction whose writes all sit on one node commits
// there in one phase; one that wrote on several runs two-phase commit with
// the master as coordinator.
//
// The branches of a two-phase commit run side by side, one simulated process
// per participant (spawned in node-ID order, joined before the coordinator
// moves on), so a phase costs its slowest leg rather than the sum of its
// legs. What stays strictly ordered, and why:
//
//   - every prepare vote is durable (locally and, under data replication, on
//     a replica) before the coordinator asks for a commit timestamp: the
//     decision may only be taken over branches that can all roll forward;
//   - commitGate, the partition re-check, CommitTS and the forced decision
//     record run on the coordinator alone, in that order, between the two
//     joins: no participant installs before the decision is durable;
//   - the acknowledgment comes at the durable decision, as presumed-abort
//     2PC allows: the outcome is sealed there (the commit settles with it),
//     and phase 2 — every branch's install, its forced commit record and its
//     ack to the coordinator — runs in a process of its own behind the
//     caller's back. The transaction's locks are held until phase 2 ends,
//     and so is the decision: a drained system holds no in-doubt decisions
//     (InDoubtDecisionCount() == 0), one with a phase 2 running does.
//
// While phase 2 runs, the transaction is committed but not installed, and
// every reader already copes with that: a point read at a snapshot covering
// it resolves to the staged value (the committed-writer path), a scan merges
// the staged values in (CommittedPending), a follower read falls back to the
// owner while the branch is in its commit table, and a writer of one of its
// keys waits for the install to release the intent.
//
// A power failure may land at any instant of the commit window:
//
//   - Before the coordinator's decision is durable, the transaction aborts
//     (presumed abort): the caller gets the error of the lowest-numbered
//     failing participant, no acknowledgment is given, and any branch left
//     prepared on a durable log rolls back — by the caller's Abort if its
//     node survived, on restart otherwise, because the coordinator has no
//     decision for it.
//   - After the decision is durable, the commit is acknowledged, and a
//     participant that crashes before or during its install in phase 2 (the
//     "commit.decided" crash point marks the first instant) is in doubt: its
//     branch is fully durable (prepare-time DML images forced with its vote),
//     and RestartNode logs those images as committed DML at the decided
//     timestamp, then replays them like any other commit.
//   - A single-node transaction needs no vote: its commit record is the
//     decision, so a crash inside the window simply loses the unflushed
//     tail and the restart rolls the transaction back — the caller saw an
//     error and never acknowledged.
//
// Before any of that, the unsettled commits the transaction observed are
// settled (settleDeps): nothing below returns nil over a read that a power
// failure can still take back. After all of it, a writer's acknowledgment
// waits until the published view covers its commit timestamp
// (awaitPublished), after the locks are released on one node and after phase
// 2 is spawned on several; the publication left at the commit point, so the
// force has usually outlasted it.
func (s *Session) Commit(p *sim.Proc) error {
	if !s.Txn.Active() {
		return cc.ErrTxnNotActive
	}
	s.endReads()
	if len(s.touched) == 0 && len(s.lockNodes) == 0 {
		// A read-only snapshot transaction holds nothing anywhere: no staged
		// write, no lock, no version of its own. It ends where it ran — no
		// trip to the master, no gate (a fenced coordinator cannot fail
		// reads that already succeeded), no commit timestamp burnt — once
		// what it read is settled.
		if err := s.settleDeps(p, nil); err != nil {
			return err
		}
		s.m.Oracle.EndReadOnly(s.Txn)
		return nil
	}
	branches, err := s.participants()
	if err != nil {
		return err
	}
	if err := s.settleDeps(p, branches); err != nil {
		return err
	}
	c := s.m.cluster
	distributed := len(branches) > 1
	if distributed {
		// Phase 1: every participant prepares, all at once.
		errs := make([]error, len(branches))
		p.Fork("2pc-prepare", len(branches), func(bp *sim.Proc, i int) {
			errs[i] = s.prepareBranch(bp, branches[i])
		})
		for _, err := range errs {
			if err != nil {
				return err // the lowest-numbered failing participant's
			}
		}
	}
	// Commit point: timestamp from the master's oracle.
	if s.Home != s.m.Node {
		c.Net.Transfer(p, s.Home.ID, s.m.Node.ID, 32)
		c.Net.Transfer(p, s.m.Node.ID, s.Home.ID, 32)
	}
	// Under replication the coordinator must be seated with lease headroom
	// before the commit timestamp exists. Failing here is still the
	// presumed-abort side of the window: nothing is visible, the caller
	// aborts, and prepared branches roll back on restart.
	if err := s.m.commitGate(p); err != nil {
		return err
	}
	// Phase 1 and the gate can park for a long time (a prepare's forceShip
	// waits out follower outages). A participant that crashed AND restarted
	// meanwhile found its prepared branch undecided and presumed abort, so
	// deciding commit now would acknowledge a transaction one branch of which
	// is durably rolled back. No decision exists yet — aborting is still
	// legal — and nothing blocks between this check and recordDecision.
	for _, b := range branches {
		for _, pt := range b.parts {
			if pt.Failed() {
				return table.ErrPartitionDown{Part: pt.ID}
			}
		}
	}
	commitTS := s.m.Oracle.CommitTS(s.Txn)
	// The commit timestamp exists but the commit is not yet durable at its
	// participants and on their replicas: enter it in every participant's
	// commit table. Readers there that resolve to one of its versions depend
	// on it until it settles, and follower reads at snapshots covering it fall
	// back to the owner until the branch's two forces are done — a replica
	// store applies a commit record the moment it is shipped, which is before
	// the origin has flushed it. A branch leaves the table when it is forced;
	// a participant's restart drops what recovery resolved.
	s.Txn.CommitNode = s.m.Node.ID // a distributed commit is sealed by the coordinator's decision
	if len(branches) == 1 {
		s.Txn.CommitNode = branches[0].node.ID
	}
	for _, b := range branches {
		b.node.Commits.Add(s.versionTS(), s.Txn)
	}
	if !distributed {
		// Fast path: install and force on the one participant, in this
		// process. Its fate seals only when the commit record is durable and,
		// under replication, a replica holds the branch: settling any earlier
		// would release its dependents over a commit that a power failure
		// during the force still rolls back at restart.
		for _, b := range branches {
			if err := s.commitBranch(p, b, commitTS, false); err != nil {
				return err
			}
		}
		s.m.Oracle.SettleCommit(s.Txn)
		s.releaseLocks()
		s.Txn.DropUndo()
	} else {
		// The coordinator forces its decision record before any participant
		// installs: from here the transaction commits everywhere, no matter
		// which nodes fail when. That seals the durability fate — prepared
		// branches roll forward from their forced prepare images — so the
		// commit settles here, and whoever read its staged values since the
		// commit point may finish.
		s.m.recordDecision(p, s.Txn, commitTS, branches)
		s.m.Oracle.SettleCommit(s.Txn)
		// Phase 2, behind the acknowledgment: every participant installs, all
		// at once, and the locks go when the last install is done. A branch
		// that fails now is in doubt, not failed: its restart queries the
		// coordinator and rolls forward from the prepare-time log.
		c.Env.Spawn("2pc-phase2", func(p *sim.Proc) {
			p.Fork("2pc-commit", len(branches), func(bp *sim.Proc, i int) {
				_ = s.commitBranch(bp, branches[i], commitTS, true)
			})
			s.releaseLocks()
			s.Txn.DropUndo()
		})
	}
	// The acknowledgment waits until every node holds commitTS: a snapshot
	// begun anywhere after it returns covers the commit. A locking reader
	// stamped nothing and has nothing to wait for.
	if len(branches) > 0 {
		s.m.awaitPublished(p, commitTS)
	}
	return nil
}

// versionTS is the timestamp the transaction's versions carry, the key of its
// commit-table entries: the commit timestamp, or — locking-mode writes are
// applied in place as they happen — the begin timestamp.
func (s *Session) versionTS() cc.Timestamp {
	if s.Txn.Mode == cc.Locking {
		return s.Txn.Begin
	}
	return s.Txn.Commit
}

// settleDeps holds the transaction back until none of the unsettled commits
// it observed can take its reads back, and fails it if one already did.
//
// A dependency whose commit record is already on the log of a node where this
// transaction is about to force a record of its own — the commit record of a
// single-node commit, a prepare vote — needs no wait at all: that record will
// sit above the dependency's on the same log and the same ship stream, so the
// force and the replica ack this commit waits for anyway cover the dependency
// too, and a power failure that loses the dependency loses this transaction's
// branch with it. That is the common case on a hot row, read and written by
// every transaction of its node. Any other dependency — observed on a node this
// transaction only read, sealed by a coordinator's decision, or still
// installing, its record not yet appended — is waited for where its fate is
// known, one round trip away when that is not home. If it was rolled back the
// caller gets the error its own commit would have got from that node.
func (s *Session) settleDeps(p *sim.Proc, branches []branch) error {
	c := s.m.cluster
deps:
	for _, d := range s.Txn.Deps {
		if d.Settled {
			continue
		}
		if d.Unsettled() && d.CommitLSN != 0 {
			for _, b := range branches {
				if b.node.ID == d.CommitNode {
					continue deps
				}
			}
		}
		node := c.Nodes[d.CommitNode]
		c.DepWaits++
		if node != s.Home {
			c.Net.Transfer(p, s.Home.ID, node.ID, 32)
		}
		// A power failure of node from here on decides this wait too.
		c.point(node, "commit.depwait")
		stop := p.Meter(sim.CatLogging)
		settled := d.AwaitSettled(p)
		stop()
		if node != s.Home {
			c.Net.Transfer(p, node.ID, s.Home.ID, 32)
		}
		if !settled {
			c.DepLost++
			return ErrNodeDown{node.ID}
		}
	}
	return nil
}

// branch is one participant of a commit: a node and the partitions on it that
// hold staged writes of the transaction, in partition-ID order.
type branch struct {
	node  *DataNode
	parts []*table.Partition
}

// participants groups the touched partitions that have something to install
// by owning node, nodes and partitions both in ascending ID order: the
// phases perform network and log I/O, so map-iteration order would perturb
// the virtual clock between otherwise identical runs. A touched partition
// that power-failed lost the staged writes with its node's DRAM — including
// the pending bookkeeping, which would otherwise make this transaction look
// read-only and produce a false acknowledgment — so it fails the commit
// (lowest partition ID first). One owner for everything touched is the common
// case and gets its branch without any grouping.
func (s *Session) participants() ([]branch, error) {
	parts := make([]*table.Partition, 0, len(s.touched))
	var only *DataNode
	single := true
	for pt, owner := range s.touched {
		i := len(parts)
		parts = append(parts, pt)
		for ; i > 0 && parts[i-1].ID > pt.ID; i-- {
			parts[i] = parts[i-1]
		}
		parts[i] = pt
		if only == nil {
			only = owner
		} else if owner != only {
			single = false
		}
	}
	for _, pt := range parts {
		if pt.Failed() {
			return nil, table.ErrPartitionDown{Part: pt.ID}
		}
		if owner := s.touched[pt]; owner.Down() {
			return nil, ErrNodeDown{owner.ID}
		}
	}
	live := parts[:0]
	for _, pt := range parts {
		if pt.HasPending(s.Txn) || s.Txn.Mode == cc.Locking {
			live = append(live, pt)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	if single {
		return []branch{{only, live}}, nil
	}
	var out []branch
	for _, pt := range live {
		owner := s.touched[pt]
		i := 0
		for i < len(out) && out[i].node.ID < owner.ID {
			i++
		}
		if i == len(out) || out[i].node != owner {
			out = append(out, branch{})
			copy(out[i+1:], out[i:])
			out[i] = branch{node: owner}
		}
		out[i].parts = append(out[i].parts, pt)
	}
	return out, nil
}

// prepareBranch is one participant's phase 1: the redo images of the branch's
// staged writes are logged first, then the prepare vote — one force covers
// both, so a prepared branch is fully durable before the coordinator may
// decide. A participant that power-fails before its vote is durable aborts
// the transaction.
func (s *Session) prepareBranch(p *sim.Proc, b branch) error {
	node := b.node
	if node.Down() {
		return ErrNodeDown{node.ID}
	}
	s.rpc(p, node, 32, 32)
	for _, pt := range b.parts {
		pt.LogPrepare(s.Txn)
	}
	lsn := node.Log.Append(wal.Record{Txn: s.Txn.ID, Type: wal.RecPrepare})
	if c := s.m.cluster; c.drep != nil {
		// Under data replication a prepared branch must also be durable on a
		// replica before the coordinator may decide: losing the branch's
		// entire disk would otherwise lose a voted prepare. The two forces run
		// side by side.
		if !c.forceShip(p, node, lsn, node.ship.gen, false) {
			return ErrNodeDown{node.ID}
		}
		return nil
	}
	node.Log.Flush(p, lsn)
	if node.Down() { // power-failed during the prepare force
		return ErrNodeDown{node.ID}
	}
	return nil
}

// commitBranch is one participant's install: its staged writes go into the
// trees at commitTS, then its commit record is forced locally and, under data
// replication, onto a replica. An error means the branch did not get there
// because its node lost power. For the one branch of a single-node commit
// that fails the transaction: nothing of it is durable, the restart rolls it
// back, and the acknowledgment is withheld. A distributed branch is merely in
// doubt — the decision record drives its roll-forward on restart — and the
// caller drops the error. Any other install failure is an engine invariant
// violation (the movement protocols are responsible for never detaching a
// range with in-flight writers), so it fails loudly rather than losing
// updates.
func (s *Session) commitBranch(p *sim.Proc, b branch, commitTS cc.Timestamp, distributed bool) error {
	node, c := b.node, s.m.cluster
	if distributed {
		// Acknowledged, not yet installed: a power failure here leaves the
		// branch in doubt, and its restart rolls it forward.
		c.point(node, "commit.decided")
	}
	if node.Down() {
		return ErrNodeDown{node.ID}
	}
	s.rpc(p, node, 32, 32)
	for _, pt := range b.parts {
		if err := pt.Commit(p, s.Txn, commitTS); err != nil {
			if !isPowerFailure(err) {
				panic(fmt.Sprintf("cluster: commit installation failed after commit point: txn %d node %d: %v",
					s.Txn.ID, node.ID, err))
			}
			return err
		}
	}
	if c.drep == nil {
		if _, durable := appendCommitRecord(p, node, s.Txn); !durable {
			// The power failure caught the commit record above the flushed
			// boundary: it is gone from the platter, so restart recovery is
			// guaranteed to roll a single-node transaction back.
			return ErrNodeDown{node.ID}
		}
	} else {
		// The branch's frames (DML + commit) must be durable here AND on a
		// replica before the ack, or a disk loss at this node would lose an
		// acknowledged commit; the local force and the ship overlap. A
		// distributed branch whose node dies in there is in doubt like any
		// other; its inflight entry clears when it restarts. A single-node
		// transaction's commit record is its decision, and once appended it
		// may outlive this node's volatile tail on a follower's disk — so the
		// wait parks across any origin outage and resolves to what recovery
		// actually did: ack if the commit survived (below the flushed boundary
		// of a plain restart, or inside the replica prefix of a rebuild),
		// error only once it is durably gone everywhere.
		if node.Down() { // the install returned across a power failure
			return ErrNodeDown{node.ID}
		}
		lsn := node.Log.Append(wal.Record{Txn: s.Txn.ID, Type: wal.RecCommit})
		s.Txn.CommitLSN = lsn
		if !c.forceShip(p, node, lsn, node.ship.gen, !distributed) {
			return ErrNodeDown{node.ID}
		}
	}
	node.Commits.Del(s.versionTS())
	if distributed {
		s.m.ackDecision(s.Txn.ID, node.ID)
	}
	return nil
}

// isPowerFailure reports whether err is a node/partition power-failure
// error — the only legitimate way a commit installation can fail after the
// commit point.
func isPowerFailure(err error) bool {
	switch err.(type) {
	case table.ErrPartitionDown, ErrNodeDown:
		return true
	}
	return false
}

// Abort rolls the transaction back everywhere it touched. Partitions and
// logs lost to a power failure are skipped (their staged state died with
// the node).
func (s *Session) Abort(p *sim.Proc) {
	s.endReads()
	if s.Txn.State == cc.TxnAborted {
		return
	}
	// Deterministic order: aborting staged writes fires intent-release
	// signals, which reschedules waiting processes. Read-only transactions
	// skip the whole block (no slice, no sort boxing — the begin/abort
	// cycle stays allocation-minimal, see TestSessionSetupAllocs).
	if len(s.touched) > 0 {
		parts := make([]*table.Partition, 0, len(s.touched))
		for pt := range s.touched {
			parts = append(parts, pt)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].ID < parts[j].ID })
		for _, pt := range parts {
			pt.Abort(p, s.Txn)
		}
	}
	s.Txn.RunUndo(p)
	lockNodes := s.lockNodeList()
	for _, node := range lockNodes {
		node.Log.Append(wal.Record{Txn: s.Txn.ID, Type: wal.RecAbort})
		if s.Txn.State == cc.TxnCommitted { // failed past its commit point
			node.Commits.Del(s.versionTS())
		}
	}
	s.m.Oracle.Abort(s.Txn)
	for _, node := range lockNodes {
		node.Locks.ReleaseAll(s.Txn)
	}
}

// lockNodeList returns the nodes holding lock state for this transaction in
// ID order (lock release wakes waiters, so the order must be deterministic).
// The list is a handful of nodes at most — usually one — so it is kept sorted
// and duplicate-free by insertion.
func (s *Session) lockNodeList() []*DataNode {
	if len(s.lockNodes) == 0 && len(s.touched) == 0 {
		return nil // read-only MVCC transaction: nothing locked anywhere
	}
	out := make([]*DataNode, 0, len(s.lockNodes)+len(s.touched))
	add := func(n *DataNode) {
		i := len(out)
		for i > 0 && out[i-1].ID > n.ID {
			i--
		}
		if i > 0 && out[i-1] == n {
			return
		}
		out = append(out, nil)
		copy(out[i+1:], out[i:])
		out[i] = n
	}
	for node := range s.lockNodes {
		add(node)
	}
	// MVCC writers also took segment IX locks on owners.
	for _, owner := range s.touched {
		add(owner)
	}
	return out
}

func (s *Session) releaseLocks() {
	for _, node := range s.lockNodeList() {
		node.Locks.ReleaseAll(s.Txn)
	}
}
