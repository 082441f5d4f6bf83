// Package cc implements WattDB's concurrency control (Sect. 3.5): a global
// timestamp oracle, snapshot-isolation MVCC with version chains kept while
// records are on the move, and classical multi-granularity locking with RX
// modes (MGL-RX) as the comparison baseline of Fig. 3. System transactions
// for record movement are ordinary transactions flagged as such.
package cc

import (
	"errors"

	"wattdb/internal/sim"
)

// Timestamp orders transactions; issued by the Oracle.
type Timestamp uint64

// TxnID identifies a transaction cluster-wide.
type TxnID uint64

// Mode selects the concurrency control protocol for a transaction.
type Mode int

const (
	// SnapshotIsolation uses MVCC: readers never block, writers use
	// first-committer-wins conflict detection.
	SnapshotIsolation Mode = iota
	// Locking uses MGL-RX: hierarchical read/exclusive locks.
	Locking
)

// TxnState is a transaction's lifecycle position.
type TxnState int

const (
	TxnActive TxnState = iota
	TxnCommitted
	TxnAborted
)

// Common control errors. Executors abort and (optionally) retry on them.
var (
	ErrWriteConflict = errors.New("cc: write-write conflict (first committer wins)")
	ErrLockTimeout   = errors.New("cc: lock wait timeout")
	ErrTxnNotActive  = errors.New("cc: transaction not active")
	// ErrFailed ends a wait on a lock table or version store that died with
	// its node's DRAM (LockManager.Fail, VersionStore.Fail).
	ErrFailed = errors.New("cc: lost to a power failure")
)

// Txn is one transaction. Engine layers attach undo actions while executing;
// the owning executor drives commit or abort.
type Txn struct {
	ID TxnID
	// Begin is the snapshot: the oracle's clock when the transaction began, or
	// under a publisher the clock of the view that had reached every node by
	// then, which covers every commit acknowledged before. It covers every
	// commit point it is at or above, settled or not; reading a version whose
	// commit is still unsettled records its writer in Deps.
	Begin Timestamp
	// Safe is the newest snapshot at or below Begin that covers no commit
	// unsettled when the transaction began: everything visible at it is
	// durable history. It is what the oracle's active table protects, and what
	// a reader that will never settle dependencies reads at instead of Begin.
	Safe Timestamp
	// Commit is set when the transaction commits.
	Commit Timestamp
	Mode   Mode
	State  TxnState
	// Settled is set once a committed transaction's durability fate is sealed
	// (Oracle.SettleCommit). Between the commit point and that moment the
	// commit is unsettled: visible to snapshots that cover it, but a power
	// failure may still roll it back.
	Settled bool
	// Deps are the unsettled commits this transaction observed (read, scanned
	// or overwrote a version of). The owning executor must not let the
	// transaction finish before each of them is settled — by waiting for it, or
	// because this transaction's own forced log record lies above the
	// dependency's commit record on the same log — and must fail it if one was
	// rolled back. Nil for a transaction that observed only settled history.
	Deps []*Txn
	// CommitNode names the log that seals a committed transaction's fate (the
	// cluster stores node IDs: the one participant of a single-node commit, the
	// coordinator of a distributed one), from the commit point on. CommitLSN is
	// the position of a single-node commit's record on that log once appended,
	// zero before — and again after the log's node restarted with the commit
	// still unsettled, when the record may be gone. (A distributed commit's
	// branches append theirs after its decision settled it, when the position
	// no longer matters to anyone.)
	CommitNode int
	CommitLSN  uint64
	// System marks a system transaction (record movement housekeeping,
	// Sect. 3.5); it obeys the same protocols but is not counted as user
	// work by the metrics layer.
	System bool
	// Breakdown, when non-nil, receives the Fig. 7 time decomposition of
	// this transaction's execution.
	Breakdown *sim.Breakdown

	// undo actions run in reverse order on abort.
	undo []func(p *sim.Proc)
	// fate wakes the dependents waiting in AwaitSettled; allocated by the
	// first of them.
	fate *sim.Signal
	// decided wakes the writers waiting for this transaction's commit point or
	// abort to settle an intent it holds (AcquireWriteIntent's rule 4);
	// allocated by the first of them.
	decided *sim.Signal
	// waiting counts this transaction's processes parked in a cc wait (an
	// intent or a lock). A writer that finds such a transaction holding its key
	// dies instead of queueing behind it (rule 3).
	waiting int
}

// Active reports whether the transaction can still do work.
func (t *Txn) Active() bool { return t.State == TxnActive }

// Unsettled reports whether the transaction is past its commit point with its
// durability fate still open.
func (t *Txn) Unsettled() bool { return t.State == TxnCommitted && !t.Settled }

// dependOn records that t observed a version written by the unsettled commit w.
func (t *Txn) dependOn(w *Txn) {
	for _, d := range t.Deps {
		if d == w {
			return
		}
	}
	t.Deps = append(t.Deps, w)
}

// AwaitSettled blocks p until t's fate is sealed and reports it: true once the
// commit is settled, false if it was rolled back.
func (t *Txn) AwaitSettled(p *sim.Proc) bool {
	for t.Unsettled() {
		if t.fate == nil {
			t.fate = sim.NewSignal(p.Env())
		}
		t.fate.Wait(p)
	}
	return t.Settled
}

func (t *Txn) sealFate() {
	if t.fate != nil {
		t.fate.Fire()
	}
}

// decide wakes the writers waiting for t to leave the active state.
func (t *Txn) decide() {
	if t.decided != nil {
		t.decided.Fire()
	}
}

// PushUndo registers a compensating action for abort.
func (t *Txn) PushUndo(fn func(p *sim.Proc)) { t.undo = append(t.undo, fn) }

// RunUndo executes compensations in reverse order and clears them.
func (t *Txn) RunUndo(p *sim.Proc) {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i](p)
	}
	t.undo = nil
}

// DropUndo discards compensations (after successful commit).
func (t *Txn) DropUndo() { t.undo = nil }

// Oracle issues timestamps and tracks active transactions so MVCC garbage
// collection knows the oldest snapshot still in use. WattDB hosts it on the
// master node; callers pay any network cost at their layer.
//
// An oracle with a publisher (Publish) also keeps the published view: the
// clock and the safe snapshot as they stood when the publisher's last
// publication left, once that publication has reached every node (Land). A
// snapshot-isolation Begin then reads that view instead of the clock, so it
// needs no message to the master; the publisher's caller holds every
// acknowledgment until the view covers its commit timestamp, which keeps
// snapshots in real-time order. A standalone oracle has no view: its snapshots
// are the clock.
//
// When the master is replicated, the oracle runs under bounded leases: lease
// holds the first timestamp it may NOT issue, granted only after the lease
// record is durable on a follower replica. A new leader resumes at the old
// ceiling, so timestamps issued across a failover never regress or collide
// — the old leader could not have issued anything at or above its lease.
// lease == 0 disables the bound (standalone master).
type Oracle struct {
	next   Timestamp
	nextID TxnID
	active map[TxnID]Timestamp
	// unsettled holds commit timestamps whose durability fate is not yet
	// sealed: CommitTS hands out the timestamp at the commit point, but the
	// commit record (and, under replication, its replica copy) becomes
	// durable later. Until SettleCommit or Abort removes the entry a power
	// failure may still roll the commit back. Snapshots cover it all the same
	// — a force is milliseconds long, and keeping readers below it made every
	// one of those milliseconds a write-conflict window; what the oracle
	// guarantees instead is the safe snapshot (Txn.Safe), one below the oldest
	// entry, and what its callers guarantee is that no transaction finishes
	// before every unsettled commit it observed is settled (Txn.Deps).
	unsettled map[TxnID]Timestamp
	lease     Timestamp
	// pub and pubSafe are the published view (Land); changed, non-nil once a
	// publisher is attached, is called whenever the view it would send moves.
	pub, pubSafe Timestamp
	changed      func()
}

// NewOracle returns an oracle starting at timestamp 1.
func NewOracle() *Oracle {
	return &Oracle{next: 1, active: make(map[TxnID]Timestamp), unsettled: make(map[TxnID]Timestamp)}
}

func (o *Oracle) tick() Timestamp {
	o.next++
	if o.lease > 0 && o.next >= o.lease {
		// The master layer extends the lease with headroom before issuing;
		// reaching the ceiling means a timestamp would escape the replicated
		// bound, which a post-failover leader could then re-issue.
		panic("cc: timestamp issued beyond replicated lease ceiling")
	}
	return o.next
}

// Begin starts a transaction in the given mode. Its snapshot is the clock:
// every commit point passed so far is visible to it, including commits still
// in their force. The same call computes the safe snapshot — just below the
// oldest unsettled commit, the clock when there is none — and that, not the
// clock, is what the active table registers: the GC watermark and the "every
// snapshot is past this horizon" test then hold for a reader that falls back
// to its safe snapshot, and a fortiori for one that reads at Begin.
//
// With a publisher, a snapshot-isolation transaction takes the published view
// instead — both timestamps as the last landed publication carried them — and
// issues no timestamp. A locking transaction stamps its writes with its begin
// timestamp, so it always takes a fresh one.
func (o *Oracle) Begin(mode Mode) *Txn {
	o.nextID++
	begin, safe := o.pub, o.pubSafe
	if o.changed == nil || mode != SnapshotIsolation {
		o.tick()
		begin, safe = o.View()
	}
	t := &Txn{ID: o.nextID, Begin: begin, Safe: safe, Mode: mode, State: TxnActive}
	o.active[t.ID] = safe
	return t
}

// CommitTS assigns a commit timestamp to t and marks it committed. The commit
// is born unsettled: snapshots taken from now on cover it, and until the
// owning layer seals its durability fate with SettleCommit (or rolls it back
// with Abort) whoever observes one of its versions takes a dependency on it.
func (o *Oracle) CommitTS(t *Txn) Timestamp {
	t.Commit = o.tick()
	t.State = TxnCommitted
	delete(o.active, t.ID)
	o.unsettled[t.ID] = t.Commit
	t.decide()
	o.moved()
	return t.Commit
}

// Publish attaches a publisher: changed is called every time the view moves —
// a commit timestamp issued, an unsettled commit settled or dropped, Advance —
// and the view published so far is the one standing now.
func (o *Oracle) Publish(changed func()) {
	o.changed = changed
	o.pub, o.pubSafe = o.View()
}

// View returns the clock and the safe snapshot as they stand: one below the
// oldest unsettled commit, the clock when there is none.
func (o *Oracle) View() (clock, safe Timestamp) {
	safe = o.next
	for _, cts := range o.unsettled {
		if cts-1 < safe {
			safe = cts - 1
		}
	}
	return o.next, safe
}

// Land records that a view taken by View has reached every node. Views land
// in the order they left, and neither timestamp ever moves back.
func (o *Oracle) Land(clock, safe Timestamp) {
	o.pub = max(o.pub, clock)
	o.pubSafe = max(o.pubSafe, safe)
}

// Published returns the landed view: the clock and the safe snapshot the
// next snapshot-isolation Begin takes.
func (o *Oracle) Published() (clock, safe Timestamp) { return o.pub, o.pubSafe }

// Advance issues one timestamp that stamps nothing, so that the next view
// carries a clock above every timestamp issued so far.
func (o *Oracle) Advance() {
	o.tick()
	o.moved()
}

func (o *Oracle) moved() {
	if o.changed != nil {
		o.changed()
	}
}

// EndReadOnly ends a transaction that wrote nothing and holds no locks: it
// leaves the active set (the GC watermark stops protecting its snapshot) and
// counts as committed at its own snapshot. No timestamp is issued — there is
// no version for one to stamp — so the call needs neither the lease nor a
// seated coordinator.
func (o *Oracle) EndReadOnly(t *Txn) {
	t.Commit = t.Begin
	t.State = TxnCommitted
	t.Settled = true
	delete(o.active, t.ID)
}

// SettleCommit seals t's fate as durably committed: its commit record (and,
// under replication, a replica copy) can no longer be lost to a crash. Safe
// snapshots may cover its commit timestamp from here on, and the transactions
// waiting on it as a dependency proceed. Callers invoke it exactly at their
// force point — after the commit-record flush for a standalone commit, after
// the decision record is durable for a distributed one.
func (o *Oracle) SettleCommit(t *Txn) {
	t.Settled = true
	delete(o.unsettled, t.ID)
	t.sealFate()
	o.moved()
}

// Leased returns the current lease ceiling (0: unbounded).
func (o *Oracle) Leased() Timestamp { return o.lease }

// Clock returns the last timestamp issued.
func (o *Oracle) Clock() Timestamp { return o.next }

// Remaining returns how many timestamps the current lease still covers.
func (o *Oracle) Remaining() Timestamp {
	if o.lease == 0 {
		return ^Timestamp(0)
	}
	if o.next+1 >= o.lease {
		return 0
	}
	return o.lease - o.next - 1
}

// ExtendLease raises the lease ceiling to ceil (never lowers it). The caller
// must have made the grant durable on a replica first.
func (o *Oracle) ExtendLease(ceil Timestamp) {
	if ceil > o.lease {
		o.lease = ceil
	}
}

// RearmLease sets the lease ceiling to ceil even when that lowers it,
// provided ceil is still above the clock. Setup-only: a durable grant at or
// above the old ceiling must already exist, so shrinking the in-memory
// ceiling merely forces earlier re-grants (tests use it to sweep lease
// boundaries without consuming a full default chunk first).
func (o *Oracle) RearmLease(ceil Timestamp) {
	if ceil > o.next {
		o.lease = ceil
	}
}

// Failover re-seats the oracle on a new leader: the clock resumes at the
// replicated lease ceiling, strictly above anything the old leader could
// have issued. The active-transaction table is kept — survivors of the
// failover still hold their snapshots, so the GC watermark must keep
// honoring them. The new leader holds no usable lease until it replicates
// its own grant (Remaining() == 0 forces that before the next timestamp).
func (o *Oracle) Failover(ceil Timestamp) {
	if ceil == 0 {
		return
	}
	if ceil-1 > o.next {
		o.next = ceil - 1
	}
	o.lease = ceil
}

// Abort marks t aborted and deregisters it. A transaction whose commit never
// settled (the force failed and recovery is guaranteed to roll it back, or it
// is provably gone from every replica) also leaves the unsettled set here:
// its timestamp can never surface, so safe snapshots stop staying below it —
// and every transaction that observed it learns that it must fail.
func (o *Oracle) Abort(t *Txn) {
	t.State = TxnAborted
	delete(o.active, t.ID)
	if _, ok := o.unsettled[t.ID]; ok {
		delete(o.unsettled, t.ID)
		o.moved()
	}
	t.sealFate()
	t.decide()
}

// Watermark returns the oldest snapshot any transaction — present or future
// — can still read at: the minimum over the active transactions' safe
// snapshots AND one below every unsettled commit, falling back to the clock.
// The unsettled bound matters because that is where the next Begin puts its
// safe snapshot: while a commit's durability is in limbo (say, its node is
// down mid-force) it may be far below the clock, and version GC pruning to
// the active-only minimum would strand a reader that falls back to it on
// already-collected history. With a publisher the next Begin registers the
// published safe snapshot, which bounds the watermark too. Versions older
// than two generations below the watermark can never be read again.
func (o *Oracle) Watermark() Timestamp {
	min := o.next
	if o.changed != nil && o.pubSafe < min {
		min = o.pubSafe
	}
	for _, ts := range o.active {
		if ts < min {
			min = ts
		}
	}
	for _, cts := range o.unsettled {
		if cts-1 < min {
			min = cts - 1
		}
	}
	return min
}

// ActiveCount returns the number of in-flight transactions.
func (o *Oracle) ActiveCount() int { return len(o.active) }

// UnsettledCount returns the number of commits whose durability fate is not
// yet sealed (tests and diagnostics).
func (o *Oracle) UnsettledCount() int { return len(o.unsettled) }
