package cluster

import (
	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// readSet is what a snapshot session read at the keys' owners: the keys,
// back to back in one buffer, and where each was read. Refresh checks it.
// Read sets are pooled on the master, so a warm session records its reads
// without allocating.
type readSet struct {
	keys []byte
	refs []readRef
}

// readRef is one read: the table, the range entry that routed it, the
// partition and node that served it, and the end of its key in keys.
type readRef struct {
	tm    *TableMeta
	entry *RangeEntry
	part  *table.Partition
	owner *DataNode
	end   int
}

// key returns the i-th read's key.
func (rs *readSet) key(i int) []byte {
	start := 0
	if i > 0 {
		start = rs.refs[i-1].end
	}
	return rs.keys[start:rs.refs[i].end]
}

// noteRead records a point read of key served by pt on owner through e.
func (s *Session) noteRead(tm *TableMeta, e *RangeEntry, pt *table.Partition, owner *DataNode, key []byte) {
	if s.unrefreshable || s.Txn.Mode != cc.SnapshotIsolation {
		return
	}
	if s.rs == nil {
		if n := len(s.m.readSets); n > 0 {
			s.rs = s.m.readSets[n-1]
			s.m.readSets = s.m.readSets[:n-1]
		} else {
			s.rs = &readSet{}
		}
	}
	rs := s.rs
	rs.keys = append(rs.keys, key...)
	rs.refs = append(rs.refs, readRef{tm: tm, entry: e, part: pt, owner: owner, end: len(rs.keys)})
}

// endReads returns the read set to the master's pool when the transaction
// ends. The session cannot refresh from here on.
func (s *Session) endReads() {
	s.unrefreshable = true
	if rs := s.rs; rs != nil {
		clear(rs.refs)
		rs.keys, rs.refs = rs.keys[:0], rs.refs[:0]
		s.m.readSets = append(s.m.readSets, rs)
		s.rs = nil
	}
}

// Refresh implements cc.Refresher for the session's locking reads
// (GetForUpdate): it moves the snapshot up to ts if no key the session read
// has a committed version, or a committed writer still installing, with a
// timestamp in (Begin, ts]. Every read then returns what it would have at ts.
// Commits issued from now on carry timestamps above ts, so the answer holds
// once given. Each key is checked at the partition that served it, which must
// still be live and still the only one its range routes to; the check costs
// one round trip per node other than home. A session that scanned or read
// from a replica keeps no complete read set and never refreshes. Txn.Safe and
// the oracle's active entry keep their Begin-time values: the GC watermark
// stays at or below every snapshot the session has had.
func (s *Session) Refresh(p *sim.Proc, ts cc.Timestamp) bool {
	txn := s.Txn
	if s.unrefreshable || s.PreferFollower || !txn.Active() || txn.Mode != cc.SnapshotIsolation {
		return false
	}
	if rs := s.rs; rs != nil {
		lo := txn.Begin
	nodes:
		for i, r := range rs.refs {
			for _, q := range rs.refs[:i] {
				if q.owner == r.owner {
					continue nodes // checked with an earlier key
				}
			}
			var req int64
			for j := i; j < len(rs.refs); j++ {
				if rs.refs[j].owner == r.owner {
					req += int64(len(rs.key(j)))
				}
			}
			s.rpc(p, r.owner, req, 0)
			for j := i; j < len(rs.refs); j++ {
				if rs.refs[j].owner == r.owner && !s.unchangedSince(rs.refs[j], rs.key(j), lo, ts) {
					return false
				}
			}
		}
	}
	txn.Begin = ts
	return true
}

// unchangedSince reports whether the read r of key still stands at hi: its
// partition is live and still the one its range routes to, and nothing was
// committed to key in (lo, hi].
func (s *Session) unchangedSince(r readRef, key []byte, lo, hi cc.Timestamp) bool {
	if r.part.Failed() || s.m.tables[r.tm.Schema.Name] != r.tm {
		return false
	}
	e, err := r.tm.route(key)
	if err != nil || e != r.entry || e.OldPart != nil || e.Part != r.part {
		return false
	}
	return !r.part.Store.CommittedIn(key, lo, hi)
}
