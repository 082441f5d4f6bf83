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
)

// Txn is one transaction. Engine layers attach undo actions while executing;
// the owning executor drives commit or abort.
type Txn struct {
	ID    TxnID
	Begin Timestamp
	// Commit is set when the transaction commits.
	Commit Timestamp
	Mode   Mode
	State  TxnState
	// System marks a system transaction (record movement housekeeping,
	// Sect. 3.5); it obeys the same protocols but is not counted as user
	// work by the metrics layer.
	System bool
	// Breakdown, when non-nil, receives the Fig. 7 time decomposition of
	// this transaction's execution.
	Breakdown *sim.Breakdown

	// undo actions run in reverse order on abort.
	undo []func(p *sim.Proc)
}

// Active reports whether the transaction can still do work.
func (t *Txn) Active() bool { return t.State == TxnActive }

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
	// durable later. Until SettleCommit or Abort removes the entry, Begin
	// caps every new snapshot below the oldest unsettled commit — no reader
	// can observe a version that a crash during the commit force would roll
	// back. Readers never block; they just get a slightly older snapshot.
	unsettled map[TxnID]Timestamp
	lease     Timestamp
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

// Begin starts a transaction in the given mode. The snapshot is capped just
// below the oldest unsettled commit (if any): a commit timestamp exists from
// the moment CommitTS issues it, but the transaction only becomes recoverable
// once its commit record is forced — handing a newer snapshot to a reader in
// that window would let it observe a commit that a crash then rolls back.
// The capped Begin (not the raw clock) is registered in the active table so
// the GC watermark keeps protecting the versions this snapshot can read.
func (o *Oracle) Begin(mode Mode) *Txn {
	o.nextID++
	begin := o.tick()
	for _, cts := range o.unsettled {
		if cts-1 < begin {
			begin = cts - 1
		}
	}
	t := &Txn{ID: o.nextID, Begin: begin, Mode: mode, State: TxnActive}
	o.active[t.ID] = t.Begin
	return t
}

// CommitTS assigns a commit timestamp to t and marks it committed. The commit
// is born unsettled: until the owning layer seals its durability fate with
// SettleCommit (or rolls it back with Abort), no new snapshot will cover it.
func (o *Oracle) CommitTS(t *Txn) Timestamp {
	t.Commit = o.tick()
	t.State = TxnCommitted
	delete(o.active, t.ID)
	o.unsettled[t.ID] = t.Commit
	return t.Commit
}

// EndReadOnly ends a transaction that wrote nothing and holds no locks: it
// leaves the active set (the GC watermark stops protecting its snapshot) and
// counts as committed at its own snapshot. No timestamp is issued — there is
// no version for one to stamp — so the call needs neither the lease nor a
// seated coordinator.
func (o *Oracle) EndReadOnly(t *Txn) {
	t.Commit = t.Begin
	t.State = TxnCommitted
	delete(o.active, t.ID)
}

// SettleCommit seals t's fate as durably committed: its commit record (and,
// under replication, a replica copy) can no longer be lost to a crash, so new
// snapshots may cover its commit timestamp. Callers invoke it exactly at
// their force point — after the commit-record flush for a standalone commit,
// after the decision record is durable for a distributed one.
func (o *Oracle) SettleCommit(t *Txn) { delete(o.unsettled, t.ID) }

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
// its timestamp can never surface, so snapshots stop capping below it.
func (o *Oracle) Abort(t *Txn) {
	t.State = TxnAborted
	delete(o.active, t.ID)
	delete(o.unsettled, t.ID)
}

// Watermark returns the oldest snapshot any transaction — present or future
// — can still hold: the minimum over active begin timestamps AND one below
// every unsettled commit, falling back to the clock. The unsettled bound
// matters because Begin caps new snapshots below the oldest unsettled
// commit: while a commit's durability is in limbo (say, its node is down
// mid-force), the next Begin may be far below the clock, and version GC
// pruning to the active-only minimum would strand that snapshot on
// already-collected history. Versions older than two generations below the
// watermark can never be read again.
func (o *Oracle) Watermark() Timestamp {
	min := o.next
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
