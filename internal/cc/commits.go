package cc

// CommitTable is one node's registry of the commits installed — or about to
// be — in its partitions whose branch there is not yet forced: version
// timestamp to writer, entered at the commit point and removed once the
// branch's commit record is durable (and, under replication, on a replica).
// Two questions are asked of it. A read that resolved to a version asks
// whether that version's commit is still unsettled, and if so depends on it
// (Unsettled). A replica store asked to serve a snapshot asks whether the
// origin still has a commit at or below it whose frames may not have arrived
// (Below).
//
// It is keyed by timestamp, not held in the version chains, because it must
// outlive them: a commit that parks across its node's restart comes back as a
// plain recovered leaf, locally durable and on no replica yet, and a reader of
// that leaf depends on it like any other. The table is the node's share of the
// coordinator's unsettled set, which a restart re-reads (Restarted).
type CommitTable struct {
	byTS map[Timestamp]*Txn
}

// NewCommitTable returns an empty table.
func NewCommitTable() *CommitTable { return &CommitTable{byTS: make(map[Timestamp]*Txn)} }

// Add enters t's branch on this node; ts is the timestamp its versions carry.
func (ct *CommitTable) Add(ts Timestamp, t *Txn) { ct.byTS[ts] = t }

// Del removes the branch whose versions carry ts.
func (ct *CommitTable) Del(ts Timestamp) { delete(ct.byTS, ts) }

// Unsettled returns the writer of the versions stamped ts if its commit is
// still unsettled, nil otherwise. A nil table knows of none.
func (ct *CommitTable) Unsettled(ts Timestamp) *Txn {
	if ct == nil || len(ct.byTS) == 0 {
		return nil
	}
	if t := ct.byTS[ts]; t != nil && t.Unsettled() {
		return t
	}
	return nil
}

// Below reports whether some branch entered here carries a timestamp at or
// below snap.
func (ct *CommitTable) Below(snap Timestamp) bool {
	for ts := range ct.byTS {
		if ts <= snap {
			return true
		}
	}
	return false
}

// Restarted is the node's restart: branches whose commit is settled or rolled
// back are dropped — recovery resolved them, and the resyncs that follow
// replicate whatever the log kept — and the still unsettled ones stay, so the
// recovered partitions' readers go on depending on them. Their commit records
// may not have survived, so they no longer vouch for anything by log position.
func (ct *CommitTable) Restarted() {
	for ts, t := range ct.byTS {
		if t.Unsettled() {
			t.CommitLSN = 0
		} else {
			delete(ct.byTS, ts)
		}
	}
}
