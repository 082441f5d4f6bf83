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

// Master is the cluster coordinator (Sect. 3.2): catalog, global partition
// table, timestamp oracle, and client endpoint. It runs on node 0, which
// also serves data ("the smallest configuration of WattDB is a single
// server hosting all DBMS functions").
type Master struct {
	cluster *Cluster
	Node    *DataNode
	Oracle  *cc.Oracle

	tables     map[string]*TableMeta
	nextPartID table.PartID

	// decisions holds the coordinator's commit verdicts for distributed
	// transactions whose participants may still be in doubt (presumed
	// abort: only commit decisions are recorded; an unknown transaction is
	// aborted). An entry is forgotten once every participant has a durable
	// commit record or has resolved its branch after a restart. Like the
	// catalog and the oracle, the map is modeled as stable metadata — the
	// decision record appended to the master's log prices the force.
	decisions map[cc.TxnID]*txnDecision

	// MoveMode is the concurrency control mode used by record-movement
	// system transactions (Fig. 3 compares both).
	MoveMode cc.Mode

	// Replication state (nil: the legacy stable-metadata master). See
	// replication.go.
	rep        *masterRep
	down       bool          // leader power-failed, no successor seated yet
	epoch      uint64        // bumped on every fence and every election
	graceUntil time.Duration // presumed-abort grace deadline after election
	failovers  int
	leaseChunk int
	// schemas remembers every schema ever created: replicated snapshots
	// carry table names, not schema definitions, and a new leader
	// reconstructs TableMeta objects from this registry.
	schemas map[string]*table.Schema

	// pub spreads the oracle's view to every node (publish.go).
	pub *publisher
}

// txnDecision is one remembered commit verdict: the commit timestamp and
// the participants whose commit records are not yet known durable.
type txnDecision struct {
	ts          cc.Timestamp
	outstanding map[int]bool // node IDs still owing a durable commit record
}

// TableMeta is the master's view of one table.
type TableMeta struct {
	Schema  *table.Schema
	Scheme  table.Scheme
	entries []*RangeEntry
	// replicas, when non-nil, marks a read-only replicated table (e.g.
	// TPC-C ITEM): every node holds a full copy and reads go to the local
	// one.
	replicas map[*DataNode]*table.Partition
}

// Replicated reports whether the table is a read-only replicated table.
func (tm *TableMeta) Replicated() bool { return tm.replicas != nil }

// Replica returns the node-local copy of a replicated table.
func (tm *TableMeta) Replica(n *DataNode) *table.Partition { return tm.replicas[n] }

// CreateReplicatedTable registers a read-only table fully copied to every
// node (reads are always node-local; writes are rejected by sessions).
func (m *Master) CreateReplicatedTable(schema *table.Schema, nodes []*DataNode) (*TableMeta, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.tables[schema.Name]; dup {
		return nil, fmt.Errorf("cluster: table %s exists", schema.Name)
	}
	tm := &TableMeta{Schema: schema, Scheme: table.Physiological, replicas: map[*DataNode]*table.Partition{}}
	for _, n := range nodes {
		m.nextPartID++
		pt := table.NewPartition(m.nextPartID, schema, table.Physiological, nil, nil, n.Deps())
		pt.Replica = true
		n.Parts[pt.ID] = pt
		tm.replicas[n] = pt
	}
	m.tables[schema.Name] = tm
	m.schemas[schema.Name] = schema
	m.shipTable(nil, schema.Name, true)
	return tm, nil
}

// BulkLoadReplicated feeds the same sorted stream into every replica. The
// stream function is called once per replica, so it must be restartable.
func (m *Master) BulkLoadReplicated(p *sim.Proc, tableName string, stream func() func() (key, payload []byte, ok bool)) error {
	tm, err := m.Table(tableName)
	if err != nil {
		return err
	}
	if tm.replicas == nil {
		return fmt.Errorf("cluster: table %s is not replicated", tableName)
	}
	// Deterministic node order: loading allocates segment IDs.
	nodes := make([]*DataNode, 0, len(tm.replicas))
	for n := range tm.replicas {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		pt := tm.replicas[n]
		owner := n
		next := stream()
		err := pt.BulkLoad(p, 0.7, func() ([]byte, []byte, bool) {
			k, v, ok := next()
			if !ok {
				return nil, nil, false
			}
			lv := table.EncodeLoadValue(1, v)
			owner.addBase(pt.ID, k, lv)
			return k, lv, true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RangeEntry maps a primary-key range to its owning partition. During
// migration both the new and the old location are kept ("the master keeps
// two pointers, indicating both the new and old partition location, and
// queries are advised to visit both", Sect. 4.3).
type RangeEntry struct {
	Low, High []byte // High exclusive; nil = unbounded
	Part      *table.Partition
	Owner     *DataNode
	OldPart   *table.Partition
	OldOwner  *DataNode
	// MovedBelow is the logical-migration progress boundary: keys below it
	// have moved to the new location, keys at or above still live at the
	// old one. nil means the boundary does not apply (move complete, or a
	// segment-wise move where ErrNotOwned drives the fallback).
	MovedBelow []byte
}

func (e *RangeEntry) contains(key []byte) bool {
	if bytes.Compare(key, e.Low) < 0 && e.Low != nil {
		return false
	}
	return e.High == nil || bytes.Compare(key, e.High) < 0
}

func newMaster(c *Cluster) *Master {
	return &Master{
		cluster:    c,
		Node:       c.Nodes[0],
		Oracle:     cc.NewOracle(),
		tables:     make(map[string]*TableMeta),
		decisions:  make(map[cc.TxnID]*txnDecision),
		leaseChunk: defaultLeaseChunk,
		schemas:    make(map[string]*table.Schema),
	}
}

// recordDecision durably records the coordinator's commit verdict for a
// distributed transaction before any participant installs: a decision
// record is forced to the master's log and the verdict is remembered for
// in-doubt resolution. From this moment the transaction commits everywhere
// — a participant crash leaves a branch that RestartNode rolls forward.
//
// Under replication the decision must also reach a follower before any
// participant is acknowledged, and the transaction is already past its
// commit point (readers may have seen its versions), so there is no abort
// path: the session blocks here, retrying — across a leader failover if
// need be — until some leader holds the decision replicated. The map entry
// is installed before the first attempt (a participant restarting
// mid-replication must be told commit, which is safe exactly because this
// loop guarantees the verdict eventually replicates) and re-installed after
// (a failover during the loop rebuilt the map without it).
func (m *Master) recordDecision(p *sim.Proc, txn *cc.Txn, commitTS cc.Timestamp, participants []branch) {
	out := make(map[int]bool, len(participants))
	nodes := make([]int, 0, len(participants)) // ascending, as participants are
	for _, b := range participants {
		out[b.node.ID] = true
		nodes = append(nodes, b.node.ID)
	}
	d := &txnDecision{ts: commitTS, outstanding: out}
	if m.rep == nil {
		lsn := m.Node.Log.Append(wal.Record{Txn: txn.ID, Type: wal.RecDecision, TS: commitTS})
		m.Node.Log.Flush(p, lsn)
		m.decisions[txn.ID] = d
		return
	}
	rec := wal.Record{Txn: txn.ID, Type: wal.RecDecision, TS: commitTS,
		After: wal.EncodeMasterParticipants(nil, nodes)}
	m.decisions[txn.ID] = d
	for {
		if !m.down && !m.Node.Down() {
			if m.logMaster(p, rec, true) {
				break
			}
			// No follower took it, and unlike Begin this caller cannot walk
			// away: heal a live-but-stale ship set, as forceShip's loop does.
			m.cluster.healStaleFollowers(p, m.Node)
		}
		m.cluster.shipRetry(p)
	}
	// Elections during the loop keep this very object in the map (electFrom
	// never replaces a known decision), so acks that landed meanwhile are
	// reflected in d.outstanding. Re-install only while branches remain —
	// a fully drained decision must stay forgotten.
	if len(d.outstanding) > 0 {
		m.decisions[txn.ID] = d
	}
}

// ackDecision notes that node holds a durable commit record (or has rolled
// its branch forward after a restart) for the decided transaction; once no
// participant is outstanding the verdict is forgotten (presumed abort lets
// the coordinator drop resolved transactions).
func (m *Master) ackDecision(id cc.TxnID, node int) {
	d, ok := m.decisions[id]
	if !ok {
		return
	}
	delete(d.outstanding, node)
	if len(d.outstanding) == 0 {
		delete(m.decisions, id)
	}
	// Replicate the ack unforced: the bytes ride along with the followers'
	// next group commit. A lost ack merely resurrects the decision entry at
	// the next election, and reconciliation re-drains it from the
	// participant's durable log. The !down guard keeps election replay
	// (electFrom applies RecMAck through this path) from re-logging.
	if m.rep != nil && !m.down {
		m.logMaster(nil, wal.Record{Txn: id, Type: wal.RecMAck,
			After: wal.EncodeMasterAck(nil, node)}, false)
	}
}

// InDoubtDecision answers a restarting participant's query for a prepared
// but locally undecided transaction: ok=true with the commit timestamp when
// the coordinator decided commit, ok=false otherwise — the participant must
// presume abort. The caller acknowledges resolution via AckInDoubt once its
// branch is durably closed.
func (m *Master) InDoubtDecision(id cc.TxnID) (cc.Timestamp, bool) {
	if d, ok := m.decisions[id]; ok {
		return d.ts, true
	}
	return 0, false
}

// AckInDoubt closes a restarting participant's branch of a decided
// transaction (see ackDecision).
func (m *Master) AckInDoubt(id cc.TxnID, node int) { m.ackDecision(id, node) }

// InDoubtDecisionCount reports the number of remembered commit verdicts
// (diagnostics and tests).
func (m *Master) InDoubtDecisionCount() int { return len(m.decisions) }

// OutstandingDecisions describes every remembered commit verdict and the
// participants still charged with it (diagnostics: a non-empty result after
// a full drain means an ack path leaked).
func (m *Master) OutstandingDecisions() []string {
	ids := make([]cc.TxnID, 0, len(m.decisions))
	for id := range m.decisions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		d := m.decisions[id]
		nodes := make([]int, 0, len(d.outstanding))
		for n := range d.outstanding {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		out = append(out, fmt.Sprintf("txn=%d ts=%d outstanding=%v", id, d.ts, nodes))
	}
	return out
}

// RangeSpec declares one initial partition of a table.
type RangeSpec struct {
	Low, High []byte
	Owner     *DataNode
}

// CreateTable registers a table split into the given ranges. Ranges must be
// sorted and contiguous.
func (m *Master) CreateTable(schema *table.Schema, scheme table.Scheme, ranges []RangeSpec) (*TableMeta, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.tables[schema.Name]; dup {
		return nil, fmt.Errorf("cluster: table %s exists", schema.Name)
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("cluster: table %s needs at least one range", schema.Name)
	}
	tm := &TableMeta{Schema: schema, Scheme: scheme}
	for i, r := range ranges {
		if i > 0 && !bytes.Equal(ranges[i-1].High, r.Low) {
			return nil, fmt.Errorf("cluster: ranges of %s not contiguous at %d", schema.Name, i)
		}
		m.nextPartID++
		pt := table.NewPartition(m.nextPartID, schema, scheme, r.Low, r.High, r.Owner.Deps())
		r.Owner.Parts[pt.ID] = pt
		tm.entries = append(tm.entries, &RangeEntry{Low: r.Low, High: r.High, Part: pt, Owner: r.Owner})
	}
	m.tables[schema.Name] = tm
	m.schemas[schema.Name] = schema
	m.shipTable(nil, schema.Name, true)
	return tm, nil
}

// Table returns a table's metadata.
func (m *Master) Table(name string) (*TableMeta, error) {
	tm, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("cluster: no table %s", name)
	}
	return tm, nil
}

// Entries returns the partition table of a table (diagnostics, migration).
func (tm *TableMeta) Entries() []*RangeEntry { return tm.entries }

// Route returns the entry covering key.
func (tm *TableMeta) Route(key []byte) (*RangeEntry, error) { return tm.route(key) }

// Cluster returns the cluster the master coordinates.
func (m *Master) Cluster() *Cluster { return m.cluster }

// route finds the entry covering key.
func (tm *TableMeta) route(key []byte) (*RangeEntry, error) {
	i := sort.Search(len(tm.entries), func(i int) bool {
		return bytes.Compare(tm.entries[i].Low, key) > 0
	})
	if i > 0 {
		i--
	}
	e := tm.entries[i]
	if !e.contains(key) {
		return nil, fmt.Errorf("cluster: key %x outside table %s ranges", key, tm.Schema.Name)
	}
	return e, nil
}

// replaceEntry substitutes old with news (splitting a range during
// migration), keeping order. The slice is rebuilt copy-on-write: sessions
// parked mid-scan hold the old slice header, and splicing the backing
// array in place would shift entries under them — duplicating or skipping
// ranges when they resume. Their stale snapshot stays internally
// consistent (the replaced entry keeps serving reads at their older
// timestamps through ghosts and dual pointers).
func (tm *TableMeta) replaceEntry(old *RangeEntry, news ...*RangeEntry) {
	for i, e := range tm.entries {
		if e == old {
			out := make([]*RangeEntry, 0, len(tm.entries)+len(news)-1)
			out = append(out, tm.entries[:i]...)
			out = append(out, news...)
			out = append(out, tm.entries[i+1:]...)
			tm.entries = out
			return
		}
	}
}

// BulkLoad feeds a strictly ascending key stream into a table's partitions
// (experiment setup; charges no simulation time).
func (m *Master) BulkLoad(p *sim.Proc, tableName string, next func() (key, payload []byte, ok bool)) error {
	tm, err := m.Table(tableName)
	if err != nil {
		return err
	}
	var pendingK, pendingV []byte
	exhausted := false
	pull := func() ([]byte, []byte, bool) {
		if pendingK != nil {
			k, v := pendingK, pendingV
			pendingK, pendingV = nil, nil
			return k, v, true
		}
		if exhausted {
			return nil, nil, false
		}
		k, v, ok := next()
		if !ok {
			exhausted = true
		}
		return k, v, ok
	}
	for _, e := range tm.entries {
		e := e
		err := e.Part.BulkLoad(p, 0.7, func() ([]byte, []byte, bool) {
			k, v, ok := pull()
			if !ok {
				return nil, nil, false
			}
			if e.High != nil && bytes.Compare(k, e.High) >= 0 {
				pendingK, pendingV = k, v // belongs to a later range
				return nil, nil, false
			}
			lv := table.EncodeLoadValue(1, v)
			// The loaded image doubles as the partition's recovery base:
			// bulk loading bypasses the WAL, so a restart cannot re-derive
			// these records from log replay alone.
			e.Owner.addBase(e.Part.ID, k, lv)
			return k, lv, true
		})
		if err != nil {
			return err
		}
	}
	if pendingK != nil || !exhausted {
		return fmt.Errorf("cluster: bulk load rows beyond table %s ranges", tableName)
	}
	return nil
}

// TableOwners lists the distinct nodes owning live partitions of the table.
func (tm *TableMeta) TableOwners() []*DataNode {
	seen := map[*DataNode]bool{}
	var out []*DataNode
	for _, e := range tm.entries {
		if !seen[e.Owner] {
			seen[e.Owner] = true
			out = append(out, e.Owner)
		}
	}
	return out
}

// RecordCount sums visible records across a table's partitions (testing).
func (m *Master) RecordCount(p *sim.Proc, tableName string) (int, error) {
	tm, err := m.Table(tableName)
	if err != nil {
		return 0, err
	}
	total := 0
	counted := map[*table.Partition]bool{}
	for _, e := range tm.entries {
		if counted[e.Part] {
			continue
		}
		counted[e.Part] = true
		n, err := e.Part.RecordCount(p)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// appendCommitRecord writes and flushes a commit record on node's log. It
// returns the record's LSN and whether it is actually durable. Durability is
// judged by the flushed boundary alone, not by whether the node is still up:
// a power failure keeps everything at or below FlushedLSN on the platter, so
// a record the group commit covered before the cut WILL be replayed by
// restart recovery — reporting it non-durable would acknowledge an abort for
// a transaction that then resurfaces. Only a record the crash caught above
// the boundary is genuinely gone (restart rolls its transaction back) — as
// is one issued after the power failure (the install before it can return
// cleanly across a crash in its last key's read I/O): a down log drops the
// append and hands back its flushed boundary, which is not "covered".
func appendCommitRecord(p *sim.Proc, node *DataNode, txn *cc.Txn) (uint64, bool) {
	if node.Down() {
		return 0, false
	}
	lsn := node.Log.Append(wal.Record{Txn: txn.ID, Type: wal.RecCommit})
	txn.CommitLSN = lsn
	node.Log.Flush(p, lsn)
	return lsn, node.Log.FlushedLSN() >= lsn
}

// rebind re-points every catalog reference at a restarted node's recovered
// partitions (keyed by the dead partition objects they replace). Pure
// pointer swaps: no simulation time passes, so routing flips atomically.
func (m *Master) rebind(replaced map[*table.Partition]*table.Partition) {
	for _, tm := range m.tables {
		for _, e := range tm.entries {
			if np, ok := replaced[e.Part]; ok {
				e.Part = np
			}
			if np, ok := replaced[e.OldPart]; ok {
				e.OldPart = np
			}
		}
		for node, pt := range tm.replicas {
			if np, ok := replaced[pt]; ok {
				tm.replicas[node] = np
			}
		}
	}
}
