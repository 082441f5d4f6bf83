package cluster

import (
	"bytes"
	"sort"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Log replication: every node streams its shippable WAL frames (DML, commits,
// prepare images, recovery-base images, and — on whichever node is seated as
// coordinator — the replicated master records; see wal.Shippable) to a fixed
// set of follower nodes, which append them wrapped in RecShip records to
// their own logs (durability rides the followers' group commits) and apply
// them to in-memory replica stores. This is the cluster's one replicated log;
// the replicated history serves four purposes:
//
//   - Durability beyond one disk: a forced commit is acknowledged only once
//     its frames are durable on at least one follower (forceShip), so a node
//     that loses its entire log medium (DestroyDisk, or bit rot inside acked
//     history detected at Restart) rebuilds every hosted partition from a
//     follower's durable wrapper log (rebuildFromReplicas).
//   - Self-healing: a background scrubber CRC-rescans acked history and
//     patches bit-rotted frames with the byte-identical copy a follower
//     retained (ScrubPass).
//   - Read scaling: read-only snapshot gets/scans below a follower's applied
//     horizon are served from its replica store without touching the origin
//     (session.go followerGet/followerScanPart).
//   - Coordinator failover: the leader's forced records use the same ship pass
//     and the same durability predicate (replication.go logMaster), and an
//     election replays the wrappers the dead leader's followers hold.
//
// The origin/follower assignment is positional — followersOf(n) is the next
// DataReplicas node IDs cyclically — so every node plays both roles. A
// follower that misses deliveries (it was down, or its own disk was wiped)
// is marked stale and stops counting for durability until a wholesale resync
// (reset wrapper + every retained shippable frame) re-seeds it; resyncs run
// from RestartNode in both directions.

// shipRetryDelay paces every wait for a usable follower: forceShip's, and a
// commit decision's while the coordinator is fenced or cut off.
const shipRetryDelay = 50 * time.Millisecond

// shipRetry parks a forced waiter for one shipRetryDelay.
func (c *Cluster) shipRetry(p *sim.Proc) {
	c.drep.ShipRetries++
	p.Sleep(shipRetryDelay)
}

// shipWireOverhead is the per-frame wire framing cost of a shipped frame
// (ship header + request framing), matching the RPC overhead used elsewhere.
const shipWireOverhead = 32

// dataRep is the cluster-wide data-replication state.
type dataRep struct {
	replicas int // followers per origin node

	// The ship sets, fixed at construction and indexed by node ID: followers[o]
	// is origin o's replica set in ring order (the next replicas node IDs,
	// cyclically), origins[f] the nodes that ship to f, ascending by ID.
	followers [][]*DataNode
	origins   [][]*DataNode

	// inflight: commit timestamps issued whose frames may not yet be
	// replica-durable, keyed by origin node then transaction. A follower
	// read at snapshot >= any inflight timestamp of the origin could miss
	// that transaction's versions, so the read falls back to the origin.
	inflight map[int]map[cc.TxnID]cc.Timestamp

	// Stats (chaos report + state hash).
	Rebuilds      int // partitions-hosting nodes rebuilt from replicas
	ScrubRepairs  int // bit-rotted frames patched from a follower copy
	FollowerReads int // gets/scans served by a replica store
	DiskLosses    int // DestroyDisk invocations

	// ShipRetries counts shipRetryDelay sleeps: forced waiters that found no
	// usable follower. A fault-free run takes none.
	ShipRetries int
}

func (d *dataRep) addInflight(node int, id cc.TxnID, ts cc.Timestamp) {
	m := d.inflight[node]
	if m == nil {
		m = make(map[cc.TxnID]cc.Timestamp, 4)
		d.inflight[node] = m
	}
	m[id] = ts
}

func (d *dataRep) delInflight(node int, id cc.TxnID) { delete(d.inflight[node], id) }

func (d *dataRep) clearInflight(node int) { delete(d.inflight, node) }

// inflightBelow reports whether the origin has an undelivered commit at or
// below snap — a follower serving that snapshot could miss it.
func (d *dataRep) inflightBelow(node int, snap cc.Timestamp) bool {
	for _, ts := range d.inflight[node] {
		if ts <= snap {
			return true
		}
	}
	return false
}

// ReplicationStats reports the data-replication counters: partitions-hosting
// nodes rebuilt from their replica sets, bit-rotted frames the scrubber
// repaired, reads served by replica stores, and DestroyDisk invocations.
// All zero when data replication is off.
func (c *Cluster) ReplicationStats() (rebuilds, scrubRepairs, followerReads, diskLosses int) {
	if c.drep == nil {
		return 0, 0, 0, 0
	}
	return c.drep.Rebuilds, c.drep.ScrubRepairs, c.drep.FollowerReads, c.drep.DiskLosses
}

// DataReplicated reports whether per-node WAL shipping is enabled.
func (c *Cluster) DataReplicated() bool { return c.drep != nil }

// DiskLost reports whether the node's log medium is destroyed (DestroyDisk)
// and not yet rebuilt.
func (n *DataNode) DiskLost() bool { return n.diskLost }

// shipItem is one queued frame awaiting delivery to followers.
type shipItem struct {
	lsn   uint64
	frame []byte // stable copy (the append hook clones the segment alias)
	// vis is the version timestamp the frame carries (DML installs, base
	// images), or zero for frames without one (commit/abort/prepare
	// records). followerFor's snapshot gate compares it against the
	// reader's snapshot: an undelivered frame whose version timestamp
	// exceeds the snapshot cannot hold anything visible at it.
	vis cc.Timestamp
}

// shipState is a node's origin-side replication state.
type shipState struct {
	queue []shipItem // appended frames not yet delivered to live followers

	// lastShippable is the LSN of the newest shippable frame appended —
	// forceShip's durability target.
	lastShippable uint64

	// stale marks followers that missed deliveries (down, or wiped) and
	// must be wholesale-resynced before they count for anything again.
	stale map[int]bool

	// Per-follower watermarks, all in origin LSNs except wrapLSN:
	sent    map[int]uint64 // every shippable frame at or below is delivered (applied + appended there)
	durable map[int]uint64 // newest frame covered by a flush of the follower's log
	wrapLSN map[int]uint64 // follower-local LSN of the last wrapper appended

	// resyncs counts, per follower, the resyncs that brought it back in sync.
	// A ship pass confirms follower durability after it released the drain
	// lock (confirmShipped), from marks taken under it; a resync in between
	// re-anchors sent and durable — after a rebuild in a new numbering — so a
	// mark from before it is void.
	resyncs map[int]uint64

	// rebuildGen counts rebuildFromReplicas passes — it is the generation
	// stamped on every shipped frame, so followers' retained wrappers can be
	// told apart across renumberings. rebuiltThrough and rebuiltFromGen
	// describe the last rebuild: frames of generation rebuiltFromGen at or
	// below rebuiltThrough survived into the rebuilt log. A commit waiter
	// parked across the outage uses them to learn its frame's post-recovery
	// fate (forceShipDecided).
	rebuildGen     uint64
	rebuiltThrough uint64
	rebuiltFromGen uint64

	// syncedGen tracks, per follower, the generation current when that
	// follower's replica state was last reset. A resync within the same
	// generation skips the reset: the follower's retained wrappers are
	// byte-identical prefixes of the same numbering, and destroying them
	// would risk trading a complete durable history for a partial one if the
	// resync is cut short.
	syncedGen map[int]uint64

	// draining is the drain lock: it serializes everything that reads or
	// moves the queue and the sent/wrapLSN watermarks — the send stage of a
	// ship pass (background shipper or forced commit) and a whole resync;
	// contenders wait on drained. It is never held across a flush of a
	// follower's log by a ship pass: the confirm stage runs after release.
	draining bool
	drained  *sim.Signal

	// Scratch of the send stage, reused under the drain lock: the pass's
	// receivers and their node IDs. freeMarks recycles the mark lists passes
	// carry into their confirm stage, where several can be live at once.
	recv      []*DataNode
	dest      []int
	freeMarks [][]shipMark
	wrapBuf   []byte // applyToFollower's wrapper payload
}

// shipMark is what a ship pass remembers about one receiver when it releases
// the drain lock: once f's log is flushed through wrap, every shippable frame
// of the origin at or below through is durable there — unless f was resynced
// since (resyncs moved on).
type shipMark struct {
	f       *DataNode
	wrap    uint64 // f-local LSN of the last wrapper this pass knows of
	through uint64 // the origin boundary it stands for (origin LSN)
	resyncs uint64
}

// visibleBelow reports whether any queued (undelivered) frame carries a
// version at or below snap — the only frames whose absence from a replica
// store could change what a snapshot read at snap returns. Queued MVCC
// install frames are stamped with their commit timestamp, which the
// monotone oracle issued after every existing snapshot, so live analytics
// snapshots are not blocked by unrelated in-flight write traffic;
// locking-mode eager writes (stamped with the transaction's begin
// timestamp) and mid-run base images keep blocking until delivered.
func (sh *shipState) visibleBelow(snap cc.Timestamp) bool {
	for _, it := range sh.queue {
		if it.vis != 0 && it.vis <= snap {
			return true
		}
	}
	return false
}

// stagedRep is one replicated DML image buffered until its commit arrives.
type stagedRep struct {
	part table.PartID
	key  []byte
	ver  cc.Version
}

// repStore is a follower's in-memory replica of one origin's partitions,
// built by applying the origin's shipped frames in log order. It is wiped by
// a crash (DRAM) and re-seeded by resync.
type repStore struct {
	maxLSN  uint64            // newest applied origin LSN (dedupe; reset clears)
	frames  map[uint64][]byte // raw frame retention: scrub repair + rebuild source
	pending map[cc.TxnID][]stagedRep
	parts   map[table.PartID]*replicaPart
	// floor is the store's snapshot-serving horizon: base-image frames carry
	// only the newest committed version of each key (superseded history is
	// folded away at the origin), so a store seeded from them cannot resolve
	// snapshots below the newest base timestamp it applied. Follower reads
	// below the floor fall back to the owner.
	floor cc.Timestamp
}

func newRepStore() *repStore {
	return &repStore{
		frames:  make(map[uint64][]byte),
		pending: make(map[cc.TxnID][]stagedRep),
		parts:   make(map[table.PartID]*replicaPart),
	}
}

func (st *repStore) part(id table.PartID) *replicaPart {
	rp := st.parts[id]
	if rp == nil {
		rp = &replicaPart{vers: make(map[string][]cc.Version)}
		st.parts[id] = rp
	}
	return rp
}

// applyFrame processes one shipped origin frame: retain the raw bytes, buffer
// DML under its transaction, promote on commit, drop on abort, and install
// base images immediately (they are logged before any DML on their keys).
// The frame must be a stable copy — it is retained verbatim.
func (st *repStore) applyFrame(lsn uint64, frame []byte) {
	if lsn <= st.maxLSN {
		return // duplicate delivery (resync overlap)
	}
	rec, err := wal.DecodeFrame(frame)
	if err != nil {
		return // never shipped: drains and resyncs skip damaged frames
	}
	st.maxLSN = lsn
	st.frames[lsn] = frame
	switch rec.Type {
	case wal.RecBase:
		if v, err := table.DecodeValue(rec.After); err == nil {
			st.part(table.PartID(rec.Part)).install(rec.Key, v)
			if v.TS > st.floor {
				st.floor = v.TS
			}
		}
	case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		if v, err := table.DecodeValue(rec.After); err == nil {
			st.pending[rec.Txn] = append(st.pending[rec.Txn],
				stagedRep{part: table.PartID(rec.Part), key: rec.Key, ver: v})
		}
	case wal.RecCommit:
		for _, sv := range st.pending[rec.Txn] {
			st.part(sv.part).install(sv.key, sv.ver)
		}
		delete(st.pending, rec.Txn)
	case wal.RecAbort:
		delete(st.pending, rec.Txn)
	}
	// Prepare images (RecPrepDML/RecPrepDel) carry raw payloads without a
	// commit timestamp: they are retained for rebuild (where the normal
	// in-doubt recovery path stamps them) but never installed here — the
	// deciding commit re-ships ordinary DML with the final values.
}

// replicaPart mirrors one partition's full committed version history: a key
// list and per-key newest-first version chains. Nothing is ever pruned — old
// snapshots routed here must resolve exactly as at the origin.
type replicaPart struct {
	// keys[:sorted] is in key order; keys[sorted:] are the keys first seen
	// since the last scan, in arrival order. Installs outnumber scans by
	// orders of magnitude, so a new key is appended and the next scan folds
	// the tail in (sortedKeys) — inserting in place moved half the list per
	// new key, which made applying a stream quadratic in its length.
	keys   []string
	sorted int
	vers   map[string][]cc.Version
	kbuf   []byte // scan's key buffer, kept between scans
}

// install adds v as key's version at v.TS (replacing an equal-TS install —
// re-applied history is idempotent).
func (rp *replicaPart) install(key []byte, v cc.Version) {
	ks := string(key)
	vs, known := rp.vers[ks]
	if !known {
		rp.keys = append(rp.keys, ks)
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS <= v.TS })
	if i < len(vs) && vs[i].TS == v.TS {
		vs[i] = v
	} else {
		vs = append(vs, cc.Version{})
		copy(vs[i+1:], vs[i:])
		vs[i] = v
	}
	rp.vers[ks] = vs
}

// sortedKeys returns every key in key order, merging in the ones installed
// since the last call (in place, from the back, over a copy of the new keys).
func (rp *replicaPart) sortedKeys() []string {
	if rp.sorted == len(rp.keys) {
		return rp.keys
	}
	tail := rp.keys[rp.sorted:]
	sort.Strings(tail)
	if h := rp.sorted; h > 0 && tail[0] < rp.keys[h-1] {
		tail = append([]string(nil), tail...)
		for w := len(rp.keys) - 1; len(tail) > 0; w-- {
			if t := tail[len(tail)-1]; h == 0 || rp.keys[h-1] < t {
				rp.keys[w], tail = t, tail[:len(tail)-1]
			} else {
				rp.keys[w] = rp.keys[h-1]
				h--
			}
		}
	}
	rp.sorted = len(rp.keys)
	return rp.keys
}

// get resolves key at snapshot snap: the newest version with TS <= snap
// (tombstones included — ok distinguishes "no version" from a visible
// tombstone, matching cc.VersionStore.VisibleVersion).
func (rp *replicaPart) get(key []byte, snap cc.Timestamp) (cc.Version, bool) {
	return visibleAt(rp.vers[string(key)], snap)
}

// visibleAt resolves a newest-first version chain at snapshot snap.
func visibleAt(vs []cc.Version, snap cc.Timestamp) (cc.Version, bool) {
	for _, v := range vs {
		if v.TS <= snap {
			return v, true
		}
	}
	return cc.Version{}, false
}

// scan visits live versions of keys in [lo, hi) at snapshot snap, in key
// order; fn returning false stops the scan. The key fn receives is a buffer
// reused from row to row, valid for the callback only — the contract of an
// owner's scan, whose keys alias a pinned page.
func (rp *replicaPart) scan(lo, hi []byte, snap cc.Timestamp, fn func(k, v []byte) bool) {
	keys := rp.sortedKeys()
	if lo != nil {
		keys = keys[sort.Search(len(keys), func(i int) bool { return keys[i] >= string(lo) }):]
	}
	// Taken for the duration: a callback that scans this part again gets a
	// buffer of its own.
	kbuf := rp.kbuf
	rp.kbuf = nil
	for _, ks := range keys {
		if hi != nil && ks >= string(hi) {
			break
		}
		v, ok := visibleAt(rp.vers[ks], snap)
		if !ok || v.Deleted {
			continue
		}
		kbuf = append(kbuf[:0], ks...)
		if !fn(kbuf, v.Val) {
			break
		}
	}
	rp.kbuf = kbuf
}

// EnableDataReplication turns on per-node WAL shipping with the given number
// of followers per node. Setup-only: call before the simulation starts (New
// does, when Config.DataReplicas is positive), so bulk-load base images queue
// from the first append.
func (c *Cluster) EnableDataReplication(replicas int) {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(c.Nodes)-1 {
		replicas = len(c.Nodes) - 1
	}
	c.drep = &dataRep{
		replicas:  replicas,
		inflight:  make(map[int]map[cc.TxnID]cc.Timestamp),
		followers: make([][]*DataNode, len(c.Nodes)),
		origins:   make([][]*DataNode, len(c.Nodes)),
	}
	// Walking origins in ascending ID leaves every origins[f] ascending.
	for id, o := range c.Nodes {
		for i := 1; i <= replicas; i++ {
			f := c.Nodes[(id+i)%len(c.Nodes)]
			c.drep.followers[id] = append(c.drep.followers[id], f)
			c.drep.origins[f.ID] = append(c.drep.origins[f.ID], o)
		}
	}
	for _, n := range c.Nodes {
		node := n
		node.ship = &shipState{
			stale:     make(map[int]bool),
			sent:      make(map[int]uint64),
			durable:   make(map[int]uint64),
			wrapLSN:   make(map[int]uint64),
			resyncs:   make(map[int]uint64),
			syncedGen: make(map[int]uint64),
			drained:   sim.NewSignal(c.Env),
		}
		node.stores = make(map[int]*repStore)
		node.Log.SetAppendHook(func(rec *wal.Record, frame []byte) {
			if !wal.Shippable(rec) {
				return
			}
			sh := node.ship
			sh.lastShippable = rec.LSN
			var vis cc.Timestamp
			switch rec.Type {
			case wal.RecInsert, wal.RecUpdate, wal.RecDelete, wal.RecBase:
				if v, err := table.DecodeValue(rec.After); err == nil {
					vis = v.TS
				}
			}
			sh.queue = append(sh.queue, shipItem{lsn: rec.LSN, frame: bytes.Clone(frame), vis: vis})
			if len(sh.queue) == 1 {
				sh.updatePin(node.Log)
			}
		})
	}
}

// followersOf returns origin id's replica set: the next DataReplicas node
// IDs, cyclically. The slice is the stored table — read-only.
func (c *Cluster) followersOf(id int) []*DataNode { return c.drep.followers[id] }

// follows reports whether node f is in origin's replica set.
func (c *Cluster) follows(f, origin int) bool {
	d := (f - origin + len(c.Nodes)) % len(c.Nodes)
	return d >= 1 && d <= c.drep.replicas
}

// originsOf returns the nodes that replicate TO node id (the inverse of
// followersOf), ascending by ID. The slice is the stored table — read-only.
func (c *Cluster) originsOf(id int) []*DataNode { return c.drep.origins[id] }

// updatePin advances the log's truncation fence: everything unshipped (or
// everything, while any follower awaits a resync from the retained log) is
// pinned against TruncateBefore.
func (sh *shipState) updatePin(l *wal.Log) {
	for _, s := range sh.stale {
		if s {
			l.PinBefore(1) // a resync re-ships the whole retained log
			return
		}
	}
	if len(sh.queue) > 0 {
		l.PinBefore(sh.queue[0].lsn)
		return
	}
	l.PinBefore(l.TailLSN())
}

// applyToFollower delivers one origin frame to follower f: a RecShip wrapper
// on f's log (Part carries the origin ID) and an immediate replica-store
// apply. frame must be a stable copy.
func (c *Cluster) applyToFollower(f, origin *DataNode, lsn uint64, frame []byte) {
	sh := origin.ship
	// Append copies the payload into f's log segment, so one buffer serves
	// every wrapper this origin ships.
	sh.wrapBuf = wal.EncodeShipFrame(sh.wrapBuf[:0], &wal.ShipFrame{
		Origin: uint32(origin.ID), LSN: lsn, Gen: sh.rebuildGen, Frame: frame})
	sh.wrapLSN[f.ID] = f.Log.Append(wal.Record{Type: wal.RecShip, Part: uint64(origin.ID), After: sh.wrapBuf})
	st := f.stores[origin.ID]
	if st == nil {
		st = newRepStore()
		f.stores[origin.ID] = st
	}
	st.applyFrame(lsn, frame)
}

// applyReset opens a wholesale resync of origin's stream at follower f: a
// reset wrapper on f's log, and a fresh replica store.
func (c *Cluster) applyReset(f, origin *DataNode) {
	payload := wal.EncodeShipFrame(nil, &wal.ShipFrame{
		Origin: uint32(origin.ID), Gen: origin.ship.rebuildGen, Reset: true})
	wl := f.Log.Append(wal.Record{Type: wal.RecShip, Part: uint64(origin.ID), After: payload})
	origin.ship.wrapLSN[f.ID] = wl
	f.stores[origin.ID] = newRepStore()
}

// acquireDrain serializes queue drains for origin; returns false if origin
// died while waiting.
func (c *Cluster) acquireDrain(p *sim.Proc, origin *DataNode) bool {
	sh := origin.ship
	for sh.draining {
		if origin.crashed {
			return false
		}
		stop := p.Meter(sim.CatLogging)
		sh.drained.Wait(p)
		stop()
	}
	if origin.crashed {
		return false
	}
	sh.draining = true
	return true
}

func (c *Cluster) releaseDrain(origin *DataNode) {
	origin.ship.draining = false
	origin.ship.drained.Fire()
}

// shipQueued is one ship pass over origin's queue, in two stages. The send
// stage (sendQueued) runs under the origin's drain lock and ends with every
// live in-sync follower holding the origin-flushed prefix of the queue; the
// confirm stage (confirmShipped) runs after the lock is released and turns
// follower log flushes into durable watermarks — with forced, by flushing the
// receivers' logs itself until one of them is durable, which is what a forced
// pass owes its waiters. So the next pass's batch travels while this one's is
// being forced, and the forces of concurrent passes meet in the follower's
// group commit instead of queueing on the origin's lock. Returns false only
// when origin died during the pass.
func (c *Cluster) shipQueued(p *sim.Proc, origin *DataNode, forced bool) bool {
	marks, ok := c.sendQueued(p, origin)
	if !ok {
		return false
	}
	c.confirmShipped(p, origin, marks, forced)
	origin.ship.freeMarks = append(origin.ship.freeMarks, marks[:0])
	return !origin.crashed
}

// sendQueued is the send stage of a ship pass: origin's queued frames go to
// every live, in-sync follower in one send — each copy of the batch serialises
// on the origin's uplink, and all of them land at the same instant, one
// propagation delay later — as wrappers on the follower's log and installs in
// its replica store. Followers that cannot receive (down, already stale, or
// crashed while the batch was on the wire) are marked stale; a resync re-seeds
// them. The drain lock is held throughout, because it is what keeps the queue
// and the sent / wrapLSN watermarks in step: between cutting the batch and
// popping it nobody else may deliver, resync or trim, or a follower could see
// a frame twice, out of order, or never. It covers the send and nothing after
// it. Returns one mark per receiver for the confirm stage, and false when
// origin died waiting for the lock or during the send.
//
// Only the origin-flushed prefix of the queue ships: a frame the origin has
// not made locally durable could die with its unflushed tail, yet survive in
// a follower's durably-flushed wrapper — a ghost the origin's restart would
// renumber over and a rebuild would resurrect. Holding frames until the
// origin's own flush covers them makes every shipped frame permanent at the
// origin, so followers' retained wrappers never diverge from a restarted
// origin's log. (This is also why the local force and the ship cannot
// overlap: that would need followers able to truncate what they flushed.)
func (c *Cluster) sendQueued(p *sim.Proc, origin *DataNode) ([]shipMark, bool) {
	if !c.acquireDrain(p, origin) {
		return nil, false
	}
	defer c.releaseDrain(origin)
	sh := origin.ship
	flushed := origin.Log.FlushedLSN()
	cut := 0
	for cut < len(sh.queue) && sh.queue[cut].lsn <= flushed {
		cut++
	}
	items := sh.queue[:cut:cut]
	var batchBytes int64
	for _, it := range items {
		batchBytes += int64(len(it.frame)) + shipWireOverhead
	}
	recv := sh.recv[:0]
	for _, f := range c.followersOf(origin.ID) {
		if f.crashed || sh.stale[f.ID] {
			if len(items) > 0 {
				sh.stale[f.ID] = true
			}
			continue
		}
		// Whatever this follower flushed on its own since the last pass
		// counts: a follower no forced pass flushes still advances.
		if f.Log.FlushedLSN() >= sh.wrapLSN[f.ID] {
			sh.durable[f.ID] = sh.sent[f.ID]
		}
		recv = append(recv, f)
	}
	sh.recv = recv
	if len(items) > 0 && len(recv) > 0 {
		dest := sh.dest[:0]
		for _, f := range recv {
			dest = append(dest, f.ID)
		}
		sh.dest = dest
		c.Net.Multicast(p, origin.ID, dest, batchBytes)
		if origin.crashed {
			return nil, false
		}
		live := recv[:0]
		for _, f := range recv {
			if f.crashed || sh.stale[f.ID] {
				sh.stale[f.ID] = true
				continue
			}
			have := sh.sent[f.ID]
			for _, it := range items {
				if it.lsn > have {
					c.applyToFollower(f, origin, it.lsn, it.frame)
				}
			}
			live = append(live, f)
		}
		recv = live
	}
	var marks []shipMark
	if n := len(sh.freeMarks); n > 0 {
		marks, sh.freeMarks = sh.freeMarks[n-1], sh.freeMarks[:n-1]
	}
	for _, f := range recv {
		// The receiver now holds every shippable frame up to the origin's
		// flushed boundary, whatever kind of record sits at the boundary
		// itself: a forced waiter's target is that boundary, and it may be a
		// frame that never ships (a wrapper of another origin's stream).
		sh.sent[f.ID] = flushed
		marks = append(marks, shipMark{f: f, wrap: sh.wrapLSN[f.ID], through: flushed, resyncs: sh.resyncs[f.ID]})
	}
	if len(recv) > 0 {
		sh.queue = sh.queue[len(items):]
	}
	// No receiver: every follower is stale or down. The queue is kept —
	// a restarting follower's resync covers only the origin-flushed prefix,
	// so frames still volatile at the origin must stay queued for ordinary
	// delivery once a follower is back in sync.
	sh.updatePin(origin.Log)
	return marks, true
}

// confirmShipped is the confirm stage of a ship pass, run without the drain
// lock: a receiver whose log is flushed through its mark's wrapper holds the
// origin's frames up to the mark's boundary durably. With forced, receivers
// not flushed that far are flushed, in follower order, until one of them is
// durable; the other wrappers ride their log's next group commit, and their
// watermark advances whenever a later pass finds the log flushed that far.
//
// What this stage may assume is what the marks say and no more. Other passes
// have sent, and confirmed, since the lock was released — they finish in any
// order, so the durable watermark only ever moves up to a mark's boundary,
// never down to it. And anything may have failed meanwhile: a follower that
// crashed, or the origin crashing (which marks its whole ship set stale), is
// caught by the stale flag for as long as it lasts and by the resync counter
// once a resync has cleared it — after a rebuild that resync re-anchors the
// watermarks in a new numbering, where an old boundary means nothing. A void
// mark is dropped; its waiter finds no durable follower and ships again.
func (c *Cluster) confirmShipped(p *sim.Proc, origin *DataNode, marks []shipMark, forced bool) {
	sh := origin.ship
	acked := false
	for _, m := range marks {
		id := m.f.ID
		if forced && !acked && m.f.Log.FlushedLSN() < m.wrap {
			m.f.Log.Flush(p, m.wrap)
			if origin.crashed {
				return
			}
		}
		if m.f.Log.FlushedLSN() < m.wrap || sh.stale[id] || sh.resyncs[id] != m.resyncs {
			continue
		}
		if sh.durable[id] < m.through {
			sh.durable[id] = m.through
		}
		acked = true
	}
}

// replicaDurable reports whether at least one in-sync follower of origin holds
// every frame up to target durably — the one predicate behind every forced
// ack, data or coordinator.
func (c *Cluster) replicaDurable(origin *DataNode, target uint64) bool {
	sh := origin.ship
	for _, f := range c.followersOf(origin.ID) {
		if !sh.stale[f.ID] && sh.durable[f.ID] >= target {
			return true
		}
	}
	return false
}

// forceShip blocks until every shippable frame origin has appended so far is
// durable on at least one follower — the replication half of a forced
// commit. It retries through follower outages (a restarting follower resyncs
// and satisfies the target); it returns false only when origin itself dies.
func (c *Cluster) forceShip(p *sim.Proc, origin *DataNode) bool {
	sh := origin.ship
	target := sh.lastShippable
	// The caller locally forced its own frames before calling, so they sit at
	// or below the flushed boundary. Anything above it was appended by OTHER
	// in-flight transactions — they have their own waiters, and chasing them
	// would hang this commit on a group-commit flush that may never come
	// (an end-of-workload straggler).
	if fl := origin.Log.FlushedLSN(); fl < target {
		target = fl
	}
	for {
		if origin.crashed {
			return false
		}
		if c.replicaDurable(origin, target) {
			return true
		}
		if !c.shipQueued(p, origin, true) {
			return false
		}
		if c.replicaDurable(origin, target) {
			return true
		}
		if origin.crashed {
			return false
		}
		c.healStaleFollowers(p, origin)
		if origin.crashed {
			return false
		}
		c.shipRetry(p)
	}
}

// healStaleFollowers resyncs any live-but-stale follower of origin. Restart
// epilogues normally do this, but a resync interrupted by a concurrent crash
// of the counterpart leaves the pair stale with no further trigger once both
// are finally up — a forced commit waiting on replica durability would spin
// forever. The forced-ship retry loops call this so they make progress on
// whatever replica set the crash schedule left them.
func (c *Cluster) healStaleFollowers(p *sim.Proc, origin *DataNode) {
	sh := origin.ship
	for _, f := range c.followersOf(origin.ID) {
		if origin.crashed {
			return
		}
		if !f.crashed && sh.stale[f.ID] {
			c.resyncFollower(p, origin, f)
		}
	}
}

// forceShipDecided is the phase-2 replication wait of a single-node commit
// whose commit record is ALREADY locally durable at LSN target (generation
// gen, captured when the record was appended): the transaction's fate is
// decided on this node's log, so an origin crash must not fail the commit —
// a plain restart replays it and the ack must follow. The waiter parks across
// the outage and resolves to the commit's actual post-recovery fate:
//
//   - origin alive: ship forced until a follower holds the target durably;
//   - origin down: sleep until its restart resyncs a follower (durable
//     watermarks re-anchor at the restored flushed boundary, which covers the
//     locally-durable commit) — then true;
//   - the restart was a rebuild (disk lost, or acked history rotted beyond
//     repair): true iff the commit's frame was inside the replica set's
//     durable prefix of its generation and thus survived into the rebuilt
//     log; otherwise the commit is gone from the origin AND every replica
//     (the rebuilt generation supersedes the stale wrappers), so false is
//     consistent — nothing can surface.
//
// This keeps the harness oracle's strict contract: an error return means the
// transaction is durably absent everywhere, a true return means it is durable
// at the origin and recoverable from the replica set.
func (c *Cluster) forceShipDecided(p *sim.Proc, origin *DataNode, target, gen uint64) bool {
	sh := origin.ship
	for {
		if sh.rebuildGen != gen {
			return sh.rebuiltFromGen == gen && target <= sh.rebuiltThrough
		}
		if !origin.crashed {
			if c.replicaDurable(origin, target) {
				return true
			}
			if c.shipQueued(p, origin, true) && sh.rebuildGen == gen && c.replicaDurable(origin, target) {
				return true
			}
			if !origin.crashed && sh.rebuildGen == gen {
				c.healStaleFollowers(p, origin)
			}
		}
		c.shipRetry(p)
	}
}

// DrainShipQueues runs one unforced delivery pass over every node (the
// background shipper's body): queued frames ride to followers and their
// wrapper durability rides the followers' group commits.
func (c *Cluster) DrainShipQueues(p *sim.Proc) {
	if c.drep == nil {
		return
	}
	for _, n := range c.Nodes {
		if n.crashed || len(n.ship.queue) == 0 {
			continue
		}
		c.shipQueued(p, n, false)
	}
}

// SetupReplicationDrain ships everything queued during setup (bulk-load base
// images) and marks all logs durable, without charging simulated time — the
// replicated starting state, like BulkLoad itself, exists before the clock
// starts. Call after loading, before traffic.
func (c *Cluster) SetupReplicationDrain() {
	if c.drep == nil {
		return
	}
	for _, n := range c.Nodes {
		c.setupDrain(n)
	}
}

// setupDrain is SetupReplicationDrain for one origin: its appended tail
// becomes durable, its queue lands on every follower, and the wrappers are
// durable there too — synchronously and free of charge. Setup-time forced
// coordinator records (bootstrap lease, table creation) use it directly.
func (c *Cluster) setupDrain(n *DataNode) {
	sh := n.ship
	n.Log.SetupFlush()
	for _, f := range c.followersOf(n.ID) {
		for _, it := range sh.queue {
			c.applyToFollower(f, n, it.lsn, it.frame)
			sh.sent[f.ID] = it.lsn
		}
		f.Log.SetupFlush()
		sh.durable[f.ID] = sh.sent[f.ID]
	}
	sh.queue = nil
	sh.updatePin(n.Log)
}

// resyncFollower wholesale-rebuilds follower f's replica of origin: a reset
// wrapper, then every durable shippable frame of origin's log, appended to
// f's log and flushed — after which f is in sync (stale cleared) and counts
// for durability again. Tolerates either side dying mid-resync (stale
// stays set; a later restart retries).
func (c *Cluster) resyncFollower(p *sim.Proc, origin, f *DataNode) {
	if origin.crashed || f.crashed {
		return
	}
	// Heal any rot in the origin's acked history first: the collection below
	// skips undecodable frames, and silently baking that gap into the
	// follower's durable shipped prefix would defeat a later rebuild.
	c.scrubNode(p, origin)
	if origin.crashed || f.crashed {
		return
	}
	if !c.acquireDrain(p, origin) {
		return
	}
	defer c.releaseDrain(origin)
	sh := origin.ship
	if !sh.stale[f.ID] {
		// Someone else's resync of f held the lock this call waited for (a
		// forced commit's heal and a restart epilogue race for the same pair):
		// f is in sync, and shipping the whole retained log again buys nothing.
		return
	}
	flushed := origin.Log.FlushedLSN()
	var frames []shipItem
	var total int64
	origin.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.LSN > flushed {
			return false
		}
		if !wal.Shippable(rec) {
			return true
		}
		frames = append(frames, shipItem{lsn: rec.LSN, frame: bytes.Clone(frame)})
		total += int64(len(frame)) + shipWireOverhead
		return true
	})
	c.Net.Transfer(p, origin.ID, f.ID, total+shipWireOverhead)
	if origin.crashed || f.crashed {
		return
	}
	// Reset only across a renumbering rebuild: the follower's retained
	// wrappers of an older generation are unrelated records at colliding
	// LSNs and must be superseded. Within one generation the retained
	// wrappers are byte-identical to what ships below, so re-applying over
	// them is idempotent — and skipping the reset means a resync cut short
	// by a crash can only add duplicates, never trade the follower's
	// complete durable history for a partial one.
	if sh.syncedGen[f.ID] != sh.rebuildGen {
		c.applyReset(f, origin)
		sh.syncedGen[f.ID] = sh.rebuildGen
	} else {
		// Same generation: keep the retained wrappers and seed the fresh
		// in-memory store from the follower's own durable copies first (a
		// crashed follower's store died with DRAM; a live stale one may have
		// missed deliveries). Seeding matters since fuzzy checkpoints: the
		// origin's retained log may be truncated below the replica-durable
		// boundary, so the frames collected above cover only the retained
		// suffix — the follower's durable wrappers are the authoritative
		// source for the prefix it already holds.
		st := newRepStore()
		own, _, gen := durableShippedFrames(f, origin.ID)
		if gen == sh.rebuildGen {
			lsns := make([]uint64, 0, len(own))
			for lsn := range own {
				lsns = append(lsns, lsn)
			}
			sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
			for _, lsn := range lsns {
				st.applyFrame(lsn, own[lsn])
			}
		}
		f.stores[origin.ID] = st
	}
	for _, it := range frames {
		c.applyToFollower(f, origin, it.lsn, it.frame)
	}
	sh.sent[f.ID] = flushed
	wl := sh.wrapLSN[f.ID]
	f.Log.Flush(p, wl)
	if origin.crashed {
		return
	}
	if !f.crashed && f.Log.FlushedLSN() >= wl {
		sh.durable[f.ID] = flushed
		sh.stale[f.ID] = false
		sh.resyncs[f.ID]++
	}
	// The resynced prefix no longer needs queue delivery to THIS follower —
	// but the queue is shared across the replica set, so only frames every
	// non-stale follower already holds (sent covers them; stale followers
	// re-ship from the retained log) may be dropped. Trimming to this
	// follower's flushed boundary alone would discard frames a sibling
	// synced at an older boundary never received, leaving a permanent gap
	// in its replica store.
	limit := flushed
	for _, g := range c.followersOf(origin.ID) {
		if !sh.stale[g.ID] && sh.sent[g.ID] < limit {
			limit = sh.sent[g.ID]
		}
	}
	q := origin.ship.queue
	keep := 0
	for keep < len(q) && q[keep].lsn <= limit {
		keep++
	}
	origin.ship.queue = q[keep:]
	sh.updatePin(origin.Log)
}

// durableShippedFrames reads follower f's durable wrapper log directly —
// even while f is down; its disk is stable storage — and reconstructs
// origin's shipped stream: raw frames keyed by origin LSN, after processing
// reset markers in log order and keeping only the newest generation present
// (older generations use a numbering the origin has since renumbered over —
// their frames are unrelated records at colliding LSNs). Returns the frames,
// the highest LSN among them, and the generation they belong to. Used by
// rebuildFromReplicas, which must not wait for followers to restart (two
// destroyed nodes could be mutual followers), and by the scrubber.
func durableShippedFrames(f *DataNode, origin int) (map[uint64][]byte, uint64, uint64) {
	frames := make(map[uint64][]byte)
	var max, gen uint64
	flushed := f.Log.FlushedLSN()
	f.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.LSN > flushed {
			return false
		}
		if rec.Type != wal.RecShip || rec.Part != uint64(origin) {
			return true
		}
		sf, err := wal.DecodeShipFrame(rec.After)
		if err != nil {
			return true
		}
		if sf.Gen < gen {
			return true // stale straggler from before a renumbering
		}
		if sf.Gen > gen || sf.Reset {
			frames = make(map[uint64][]byte)
			max = 0
			gen = sf.Gen
		}
		if sf.Reset {
			return true
		}
		if sf.LSN > max {
			max = sf.LSN
		}
		frames[sf.LSN] = sf.Frame
		return true
	})
	return frames, max, gen
}

// RotEligible returns a predicate over origin n's acked frames marking those
// a chaos bit-rot fault may damage without exceeding the redundancy budget:
// only frames with a durable current-generation copy on a follower whose disk
// medium is intact qualify. In-memory repair sources (the origin's ship
// queue, follower replica stores) are deliberately excluded — a crash
// schedule can erase every one of them before the scrubber runs, and rotting
// a frame whose last durable copy is the origin's own models unrecoverable
// media loss, not repairable decay.
func (c *Cluster) RotEligible(n *DataNode) func(lsn uint64) bool {
	covered := make(map[uint64]bool)
	if c.drep != nil {
		for _, f := range c.followersOf(n.ID) {
			if f.diskLost {
				continue
			}
			frames, _, gen := durableShippedFrames(f, n.ID)
			if gen != n.ship.rebuildGen {
				continue
			}
			for lsn := range frames {
				covered[lsn] = true
			}
		}
	}
	return func(lsn uint64) bool { return covered[lsn] }
}

// ownSalvage is the pre-Restart per-frame read of a crashed node's own
// damaged log: every durable frame that still decodes, captured before
// Restart's byte scan truncates at the first damaged frame. Rot on the
// origin and a destroyed follower disk can each eat a DIFFERENT part of the
// replicated history; the origin's own readable frames are the one source
// guaranteed to cover everything it ever acked locally, so a rebuild merges
// them with the best follower copy instead of discarding them.
type ownSalvage struct {
	frames map[uint64][]byte // shippable frames by LSN (current numbering)
	max    uint64
}

// salvageOwnFrames reads n's crashed, possibly damaged log frame by frame
// (the in-memory offset map survives the power failure model, mirroring the
// scrubber's CheckFlushed walk) and keeps whatever still decodes inside the
// durable boundary. Must run before Log.Restart — the restart scan
// physically truncates at the first damaged frame, destroying every
// readable frame behind it.
func salvageOwnFrames(n *DataNode) *ownSalvage {
	sv := &ownSalvage{frames: make(map[uint64][]byte)}
	flushed := n.Log.FlushedLSN()
	n.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.LSN > flushed {
			return false
		}
		if wal.Shippable(rec) {
			sv.frames[rec.LSN] = bytes.Clone(frame)
			if rec.LSN > sv.max {
				sv.max = rec.LSN
			}
		}
		return true
	})
	return sv
}

// rebuildFromReplicas reconstructs a node's log after total loss of its
// durable state (a wiped disk, or bit rot that ate into acked history): the
// node's own salvaged frames and the follower holding the longest durable
// prefix of the shipped stream together supply the frames, which are
// re-appended — renumbered — to the freshly wiped log. Replicated coordinator
// records are part of the stream, so a node that ever led gets them back here
// too, their master sequence (Record.Part) untouched by the renumbering — the
// election below RestartNode reads them. Runs inside RestartNode, right after
// Log.Restart and before any recovery pass; sv is the pre-Restart salvage
// (empty after a wiped disk).
func (c *Cluster) rebuildFromReplicas(p *sim.Proc, n *DataNode, sv *ownSalvage) {
	// Pick the follower with the newest generation, longest durable prefix.
	// Within a generation each follower's durable shipped set is a prefix of
	// the origin's stream (in-order flushed-only delivery, resync on any
	// gap), so the longest prefix of the newest generation covers every
	// frame any forced commit had acked against since the last renumbering.
	var best *DataNode
	var bestFrames map[uint64][]byte
	var bestMax, bestGen uint64
	for _, f := range c.followersOf(n.ID) {
		if f.diskLost {
			continue // wiped too: no stable storage to read
		}
		frames, max, gen := durableShippedFrames(f, n.ID)
		if best == nil || gen > bestGen || (gen == bestGen && max > bestMax) {
			best, bestFrames, bestMax, bestGen = f, frames, max, gen
		}
	}
	// Merge the sources. The salvage (when non-empty) is in the log's current
	// numbering and covers everything this node acked locally — including
	// slices whose only follower copy died with a destroyed disk; the best
	// follower's copy fills the salvage's rot holes and is the sole source
	// after a wiped disk. They merge when the follower holds the current
	// generation (same numbering, byte-identical frames where both present);
	// an older-generation follower copy uses a numbering this log has since
	// renumbered over and cannot extend the salvage.
	curGen := n.ship.rebuildGen
	frames := bestFrames
	rebuiltFromGen, rebuiltThrough := bestGen, bestMax
	var fromBestBytes int64
	if best != nil {
		for _, fr := range bestFrames {
			fromBestBytes += int64(len(fr)) + shipWireOverhead
		}
	}
	if sv != nil && len(sv.frames) > 0 {
		frames = sv.frames
		rebuiltFromGen, rebuiltThrough = curGen, sv.max
		if best != nil && bestGen == curGen {
			fromBestBytes = 0
			for lsn, fr := range bestFrames {
				if _, ok := frames[lsn]; !ok {
					frames[lsn] = fr
					fromBestBytes += int64(len(fr)) + shipWireOverhead
				}
			}
			if bestMax > rebuiltThrough {
				rebuiltThrough = bestMax
			}
		} else {
			best = nil
		}
	}
	n.Log.WipeDisk() // renumber from LSN 1: the shipped stream has gaps
	// forceShip targets are LSNs of the OLD numbering; re-anchor at zero and
	// let the append hook re-advance as frames are re-appended below.
	n.ship.lastShippable = 0
	// Parked commit waiters resolve against the rebuild outcome: frames of
	// generation rebuiltFromGen at or below rebuiltThrough survive (in that
	// generation's numbering); everything else is gone everywhere once the
	// resyncs supersede the stale wrappers.
	n.ship.rebuiltThrough = rebuiltThrough
	n.ship.rebuiltFromGen = rebuiltFromGen
	n.ship.rebuildGen++
	// The recovery bases are re-derived from the rebuilt log alone: the wiped
	// log IS the new base truth, and stale in-memory pairs would re-append as
	// phantom tail bases on the next repairBaseLog pass.
	n.bases = make(map[table.PartID][]basePair)
	if len(frames) > 0 {
		if best != nil && fromBestBytes > 0 {
			// Read the follower's contribution from its disk, ship it over.
			best.HW.LogDisk().ReadSeq(p, fromBestBytes)
			c.Net.Transfer(p, best.ID, n.ID, fromBestBytes)
		}
		lsns := make([]uint64, 0, len(frames))
		for lsn := range frames {
			lsns = append(lsns, lsn)
		}
		sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
		for _, lsn := range lsns {
			rec, err := wal.DecodeFrame(frames[lsn])
			if err != nil {
				continue
			}
			nl := n.Log.Append(rec) // Append renumbers
			if rec.Type == wal.RecBase {
				// A wiped disk also lost the recovery bases; the shipped
				// base images restore them (Append encoded already, so the
				// decoded slices can be retained). The pair carries its
				// renumbered append LSN, so repairBaseLog sees it covered.
				id := table.PartID(rec.Part)
				n.bases[id] = append(n.bases[id], basePair{key: rec.Key, val: rec.After, lsn: nl})
			}
		}
	}
	last := n.Log.TailLSN() - 1
	if last > 0 {
		n.Log.Flush(p, last)
	}
	n.Log.ClearLostDurable()
	// diskLost stays set until RestartNode's resync epilogue finishes: the
	// replica set must be whole again (this node's wrapper copies of the
	// streams it follows re-seeded, its followers re-seeded with the rebuilt
	// stream) before it counts as stable storage for anyone else's rebuild.
	c.drep.Rebuilds++
}

// repairBaseLog re-appends recovery-base records whose original appends were
// lost with the unflushed tail of a crash — possible only in the window
// between a migration's segment adoption and the move's base force. Each pair
// remembers the LSN of the record carrying its image; one at or below the
// restart's restored durable boundary is already covered (its record is
// durable — or was absorbed below a checkpoint's redo point, where the
// refreshed base itself is the durable carrier), while one above it lost its
// append with the volatile tail and re-appends here. (The old prefix-count
// comparison against retained RecBase records broke both under checkpoint
// truncation — recycled records would re-append durable pairs at the tail,
// shadowing newer DML on their keys — and under checkpoint base refresh,
// which grows the in-memory list without logging.) Runs after the recovery
// passes (this restart replayed the bases from memory) and before the
// resyncs (which ship only the durable log).
func (c *Cluster) repairBaseLog(p *sim.Proc, n *DataNode, durable uint64) {
	ids := make([]table.PartID, 0, len(n.bases))
	for id := range n.bases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var last uint64
	for _, id := range ids {
		bps := n.bases[id]
		for i := range bps {
			if bps[i].lsn <= durable {
				continue
			}
			last = n.Log.Append(wal.Record{Type: wal.RecBase, Part: uint64(id), Key: bps[i].key, After: bps[i].val})
			bps[i].lsn = last
		}
	}
	if last > 0 {
		n.Log.Flush(p, last)
	}
}

// restartResync runs RestartNode's replication epilogue on a freshly revived
// node: drop stale inflight bookkeeping, pull fresh replicas of live origins
// this node follows, and push resyncs to live followers that went stale.
func (c *Cluster) restartResync(p *sim.Proc, n *DataNode) {
	c.drep.clearInflight(n.ID)
	for _, o := range c.originsOf(n.ID) {
		if !o.crashed && o.ship.stale[n.ID] {
			c.resyncFollower(p, o, n)
		}
	}
	c.healStaleFollowers(p, n)
}

// crashShipState is doCrash's replication teardown: the origin-side queue
// dies with DRAM (followers resync on restart), the follower-side stores die
// with DRAM (origins mark this node stale), and any drain parked in a
// transfer is released.
func (c *Cluster) crashShipState(n *DataNode) {
	sh := n.ship
	sh.queue = nil
	sh.draining = false
	sh.drained.Fire()
	// Appends above the flushed boundary died with the crash: they can never
	// become replica-durable, and a forceShip target above the durable tail
	// would wait forever.
	sh.lastShippable = n.Log.FlushedLSN()
	// Followers may hold an unflushed shipped suffix the origin is about to
	// lose — or miss frames whose queue just evaporated. Either way their
	// replicas diverge from the restarted origin's durable log: resync.
	for _, f := range c.followersOf(n.ID) {
		sh.stale[f.ID] = true
	}
	n.stores = make(map[int]*repStore)
	for _, o := range c.originsOf(n.ID) {
		o.ship.stale[n.ID] = true
		o.ship.updatePin(o.Log)
	}
	sh.updatePin(n.Log)
}

// DestroyDisk power-fails a node AND destroys its log medium: segments,
// acked history, wrapper logs of the origins it follows, and the recovery
// bases — everything durable is gone. RestartNode detects the loss and
// rebuilds the node's state from its replica set. A no-op on an
// already-destroyed disk.
func (c *Cluster) DestroyDisk(n *DataNode) {
	if n.diskLost {
		return
	}
	c.CrashNode(n)
	n.Log.WipeDisk()
	n.bases = make(map[table.PartID][]basePair)
	n.diskLost = true
	if c.drep != nil {
		c.drep.DiskLosses++
	}
}

// ScrubPass CRC-rescans every live node's acked history and repairs
// bit-rotted frames from a healthy copy. Returns the number of frames
// repaired this pass.
func (c *Cluster) ScrubPass(p *sim.Proc) int {
	if c.drep == nil {
		return 0
	}
	repaired := 0
	for _, n := range c.Nodes {
		if n.crashed {
			continue
		}
		repaired += c.scrubNode(p, n)
	}
	return repaired
}

// scrubNode repairs every bit-rotted frame of one node's acked history.
// Repair sources, in order: the node's own ship queue (the append-time clone
// is pristine and covers flushed-but-unshipped frames), a live in-sync
// follower's replica store, and finally any follower's durable wrapper log —
// readable even while that follower is down or stale, since its disk is
// stable storage. PatchFrame validates the candidate bytes, so a stale
// wrapper log from before a renumbering rebuild can never patch wrong data.
func (c *Cluster) scrubNode(p *sim.Proc, n *DataNode) int {
	repaired := 0
	for _, lsn := range n.Log.CheckFlushed() {
		var frame []byte
		for _, it := range n.ship.queue {
			if it.lsn == lsn {
				frame = it.frame
				break
			}
		}
		if frame == nil {
			for _, f := range c.followersOf(n.ID) {
				if !f.crashed && !n.ship.stale[f.ID] {
					if st := f.stores[n.ID]; st != nil {
						frame = st.frames[lsn]
					}
				}
				if frame == nil && !f.diskLost {
					// Only the current generation's wrappers may patch: an
					// older generation's frame at the same LSN is a different
					// record that happens to decode (PatchFrame checks CRC
					// and LSN, not identity).
					frames, _, gen := durableShippedFrames(f, n.ID)
					if gen == n.ship.rebuildGen {
						frame = frames[lsn]
					}
				}
				if frame != nil {
					// Request + frame response from the follower's copy.
					c.Net.Transfer(p, n.ID, f.ID, 32)
					c.Net.Transfer(p, f.ID, n.ID, int64(len(frame))+shipWireOverhead)
					break
				}
			}
		}
		if n.crashed {
			break
		}
		if frame != nil && n.Log.PatchFrame(lsn, frame) {
			repaired++
			c.drep.ScrubRepairs++
		}
	}
	return repaired
}
