package cluster

import (
	"bytes"
	"slices"
	"sort"
	"strings"
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
//     (Session.Get, and Session.Scan through followerScanPart).
//   - Coordinator failover: the leader's forced records use the same ship pass
//     and the same durability predicate (replication.go logMaster), and an
//     election replays the wrappers the dead leader's followers hold.
//
// Each origin→follower pair is one shipLink, held by both ends: the origin's
// ship set is its outbound links, a follower's replica stores hang off its
// inbound links. The links are built once, at construction — node n ships to
// the next DataReplicas node IDs cyclically — so every node plays both roles.
// A follower that misses deliveries (it was down, or its own disk was wiped)
// is marked stale and stops counting for durability until a resync (every
// retained shippable frame, behind a reset marker if the origin restarted
// meanwhile) re-seeds it; resyncs run from RestartNode in both directions.
//
// A frame ships the moment it is appended, not once the origin has flushed it
// (a commit's two forces run side by side), so a follower may durably hold a
// suffix of the stream that the origin loses with its volatile tail. The one
// invariant that makes this safe: no reader of a follower's wrappers ever uses
// a frame the origin lost. Every restart opens a new generation and records
// what survived it (shipState.lineage); followers learn it from the reset
// marker of their next resync, and until then shippedCopy cuts their copy at
// the same boundary. Every copy of a stream on a disk — an origin's own
// shippable frames or a follower's wrappers — is read by one function,
// streamCopy: the restart's salvage, both sides of a resync, RotEligible and
// the scrubber, the election and the rebuild. Everyone but the rebuild, which
// ranks whole copies, reads a follower's copy through shippedCopy. Every copy
// is read in place: its frames alias the log segments that hold them (log
// bytes are write-once), and what is kept past a read — a replica store's
// versions, seeded from a follower's own wrappers or fed by shipping from the
// origin's segments — keeps aliasing them. A replica store keeps no frames of
// its own: the scrubber's repair source is the ship queue, then a follower's
// durable copy.

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
	// Stats (chaos report + state hash).
	Rebuilds      int // partitions-hosting nodes rebuilt from replicas
	ScrubRepairs  int // bit-rotted frames patched from a follower copy
	FollowerReads int // gets/scans served by a replica store
	DiskLosses    int // DestroyDisk invocations

	// ShipRetries counts shipRetryDelay sleeps: forced waiters that found no
	// usable follower. A fault-free run takes none.
	ShipRetries int
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
	frame []byte // aliases the origin's log segment (write-once)
	// vis is the version timestamp the frame carries (DML installs, base
	// images), or zero for frames without one (commit/abort/prepare
	// records). followerFor's snapshot gate compares it against the
	// reader's snapshot: an undelivered frame whose version timestamp
	// exceeds the snapshot cannot hold anything visible at it.
	vis cc.Timestamp
	// flushFirst marks the one kind of frame that waits for the origin's own
	// flush before it ships: a replicated catalog snapshot (sendQueued).
	flushFirst bool
}

// shipLink is one origin→follower pair of the replicated log: what the origin
// knows of the follower, and the follower's replica of the origin's
// partitions. The origin lists it in shipState.links, the follower in
// DataNode.inbound — one object, shared by both ends.
type shipLink struct {
	origin, follower *DataNode

	// stale marks a follower that missed deliveries (down, or wiped) and must
	// be resynced before it counts for anything again.
	stale bool

	// Watermarks, all in origin LSNs except wrapLSN:
	sent    uint64 // every shippable frame at or below is delivered (applied + appended there)
	durable uint64 // newest frame covered by a flush of the follower's log
	wrapLSN uint64 // follower-local LSN of the last wrapper appended

	// resyncs counts the resyncs that brought the follower back in sync. A
	// ship pass confirms follower durability after it released the drain lock
	// (confirmShipped), from marks taken under it; a resync in between
	// re-anchors sent and durable — after a rebuild in a new numbering — so a
	// mark from before it is void.
	resyncs uint64

	// syncedGen is the origin generation of the follower's last completed
	// resync — the generation whatever it holds beyond that was shipped in. A
	// resync in a newer one opens with a reset marker telling the follower how
	// much of it the restarts in between left standing.
	syncedGen uint64

	// store is the follower's in-memory replica of the origin's partitions:
	// nil until the first delivery, and again once the follower crashes.
	store *repStore
}

// shipState is a node's origin-side replication state.
type shipState struct {
	queue []shipItem  // appended frames not yet delivered to live followers
	links []*shipLink // the ship set, in ring order

	// gen is the node's restart epoch, stamped on every shipped frame: every
	// restart — plain or rebuild — opens a new generation, and lineage[g] says
	// how generation g began, i.e. which frames of which older generation are
	// still frames of g. Followers' retained wrappers are read against it
	// (keepFrom), and a commit waiter parked across an outage learns its
	// frame's fate from it (follow).
	gen     uint64
	lineage []genStep

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
	recv      []*shipLink
	dest      []int
	freeMarks [][]shipMark
	wrapBuf   []byte // applyToFollower's wrapper payload
}

// genStep is how one generation began: the frames of generation from at or
// below through survived the restart into it — at their old LSNs after a plain
// restart (through is the flushed boundary the log came back with), renumbered
// after a rebuild (through is the end of the replica prefix it was rebuilt
// from).
type genStep struct {
	from, through uint64
	renumbered    bool
}

// openGen records a restart of the node.
func (sh *shipState) openGen(from, through uint64, renumbered bool) {
	sh.gen++
	sh.lineage = append(sh.lineage, genStep{from: from, through: through, renumbered: renumbered})
}

// keepFrom returns the LSN through which frames shipped in generation g are
// frames of the current generation too: the lowest boundary of the restarts
// since (noFloor if there were none), 0 once a rebuild renumbered the log.
func (sh *shipState) keepFrom(g uint64) uint64 {
	keep := uint64(noFloor)
	for h := g + 1; h <= sh.gen; h++ {
		if st := sh.lineage[h]; st.renumbered {
			return 0
		} else if st.through < keep {
			keep = st.through
		}
	}
	return keep
}

// follow traces the frame appended at lsn in generation g through the
// restarts since. A plain restart that kept it extends the run of generations
// it sits in, unchanged and at the same LSN; a rebuild from a copy of any of
// those generations that reached it adopts it — renumbered, flushed with the
// rebuilt log and read from a replica's durable wrappers, so durable in both
// places. follow returns the newest generation the frame is part of and
// whether a rebuild adopted it on the way; without adopted, a result other
// than the current generation means a restart lost the frame.
func (sh *shipState) follow(g, lsn uint64) (reached uint64, adopted bool) {
	first := g
	for h := g + 1; h <= sh.gen; h++ {
		st := sh.lineage[h]
		if st.from < first || st.from > g || lsn > st.through {
			continue
		}
		if st.renumbered {
			return h, true
		}
		g = h
	}
	return g, false
}

// shipMark is what a ship pass remembers about one receiver when it releases
// the drain lock: once the follower's log is flushed through wrap, every
// shippable frame of the origin at or below through is durable there — unless
// the follower was resynced since (resyncs moved on).
type shipMark struct {
	l       *shipLink
	wrap    uint64 // follower-local LSN of the last wrapper this pass knows of
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

// frameSet is (part of) one origin's shipped stream as one log holds it: raw
// frames in ascending origin-LSN order, each aliasing the log segment it was
// read from. streamCopy sizes both slices once, from the log's frame count
// (Log.FramesThrough), so building one is appends into place; a copy's
// overlap with what it already holds replaces in place. Each reader builds
// its own: a resync parks in a transfer while another reads.
type frameSet struct {
	lsns   []uint64
	frames [][]byte
}

func (fs *frameSet) len() int { return len(fs.lsns) }

// max returns the highest LSN held, 0 when empty.
func (fs *frameSet) max() uint64 {
	if len(fs.lsns) == 0 {
		return 0
	}
	return fs.lsns[len(fs.lsns)-1]
}

// put stores frame at lsn.
func (fs *frameSet) put(lsn uint64, frame []byte) {
	if lsn > fs.max() {
		fs.lsns, fs.frames = append(fs.lsns, lsn), append(fs.frames, frame)
		return
	}
	i := sort.Search(len(fs.lsns), func(i int) bool { return fs.lsns[i] >= lsn })
	if fs.lsns[i] != lsn {
		fs.lsns, fs.frames = append(fs.lsns, 0), append(fs.frames, nil)
		copy(fs.lsns[i+1:], fs.lsns[i:])
		copy(fs.frames[i+1:], fs.frames[i:])
		fs.lsns[i] = lsn
	}
	fs.frames[i] = frame
}

// get returns the frame held at lsn, or nil.
func (fs frameSet) get(lsn uint64) []byte {
	i := sort.Search(len(fs.lsns), func(i int) bool { return fs.lsns[i] >= lsn })
	if i == len(fs.lsns) || fs.lsns[i] != lsn {
		return nil
	}
	return fs.frames[i]
}

// keepThrough drops every frame above lsn.
func (fs *frameSet) keepThrough(lsn uint64) {
	n := sort.Search(len(fs.lsns), func(i int) bool { return fs.lsns[i] > lsn })
	fs.lsns, fs.frames = fs.lsns[:n], fs.frames[:n]
}

// repStore is a follower's in-memory replica of one origin's partitions,
// built by applying the origin's shipped frames in log order. It is wiped by
// a crash (DRAM) and re-seeded by resync. It keeps no frames, only the
// newest LSN it applied: what it installs aliases the frames where they lie —
// the origin's segments for a delivery, the follower's own wrapper segments
// for a resync's seed — and a frame is read back, for the scrubber or an
// election, from a durable copy on a disk (streamCopy).
//
// pending is not a wal.Analysis: it is staged one delivery at a time,
// between frames, and held in DRAM until the commit or abort frame arrives —
// not a batch pass over a log read. Its entries alias the frames.
type repStore struct {
	applied uint64 // origin LSN of the newest frame applied: deliveries at or below are duplicates
	pending map[cc.TxnID][]stagedRep
	spare   [][]stagedRep // emptied staging lists, reused by later transactions
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
		pending: make(map[cc.TxnID][]stagedRep),
		parts:   make(map[table.PartID]*replicaPart),
	}
}

func (st *repStore) part(id table.PartID) *replicaPart {
	rp := st.parts[id]
	if rp == nil {
		rp = newReplicaPart()
		st.parts[id] = rp
	}
	return rp
}

// applyFrame processes one shipped origin frame: buffer DML under its
// transaction, promote on commit, drop on abort, and install base images
// immediately (they are logged before any DML on their keys). Everything the
// store keeps of the decoded record points into frame.
func (st *repStore) applyFrame(lsn uint64, frame []byte) {
	if lsn <= st.applied {
		return // duplicate delivery (resync overlap)
	}
	var rec wal.Record
	if wal.DecodeFrame(frame, &rec) != nil {
		return // never shipped: drains and resyncs skip damaged frames
	}
	st.applied = lsn
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
			staged, open := st.pending[rec.Txn]
			if n := len(st.spare); !open && n > 0 {
				staged, st.spare = st.spare[n-1], st.spare[:n-1]
			}
			st.pending[rec.Txn] = append(staged,
				stagedRep{part: table.PartID(rec.Part), key: rec.Key, ver: v})
		}
	case wal.RecCommit, wal.RecAbort:
		staged, open := st.pending[rec.Txn]
		if !open {
			break
		}
		if rec.Type == wal.RecCommit {
			for _, sv := range staged {
				st.part(sv.part).install(sv.key, sv.ver)
			}
		}
		delete(st.pending, rec.Txn)
		clear(staged)
		st.spare = append(st.spare, staged[:0])
	}
	// Prepare images (RecPrepDML/RecPrepDel) carry raw payloads without a
	// commit timestamp and are never installed, here or by any replay: a
	// committed branch ships ordinary DML with the final values — from its
	// phase two, or from the restart that closed it in doubt. The images
	// stay in the stream for a rebuilt node's own in-doubt resolution.
}

// replicaPart mirrors one partition's full committed version history: a key
// list and per-key version chains, oldest first. Nothing is ever pruned — old
// snapshots routed here must resolve exactly as at the origin.
type replicaPart struct {
	// keys[:sorted] is in key order; keys[sorted:] are the keys first seen
	// since the last scan, in arrival order. Installs outnumber scans by
	// orders of magnitude, so a new key is appended and the next scan folds
	// the tail in (sortedKeys) — inserting in place moved half the list per
	// new key, which made applying a stream quadratic in its length. Each
	// entry carries its key's chain, so a scan resolves chains without
	// hashing; vers finds the chain of an arriving key.
	keys   []replicaKey
	sorted int
	vers   map[string]*[]cc.Version // by pointer: an install on a known key only looks up
	kbuf   []byte                   // scan's key buffer, kept between scans
}

// replicaKey is one key of a replica store and its version chain, the same
// chain vers holds for it.
type replicaKey struct {
	key  string
	vers *[]cc.Version
}

func newReplicaPart() *replicaPart {
	return &replicaPart{vers: make(map[string]*[]cc.Version)}
}

// install adds v as key's version at v.TS (replacing an equal-TS install —
// re-applied history is idempotent). Installs arrive in timestamp order, so
// the common case appends to the chain; a resync's overlap sorts in.
func (rp *replicaPart) install(key []byte, v cc.Version) {
	vp := rp.vers[string(key)]
	if vp == nil {
		ks := string(key)
		vp = new([]cc.Version)
		rp.keys = append(rp.keys, replicaKey{ks, vp})
		rp.vers[ks] = vp
	}
	vs := *vp
	if n := len(vs); n == 0 || vs[n-1].TS < v.TS {
		*vp = append(vs, v)
		return
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS >= v.TS })
	if vs[i].TS != v.TS {
		vs = append(vs, cc.Version{})
		copy(vs[i+1:], vs[i:])
		*vp = vs
	}
	vs[i] = v
}

// sortedKeys returns every key in key order, merging in the ones installed
// since the last call (in place, from the back, over a copy of the new keys).
func (rp *replicaPart) sortedKeys() []replicaKey {
	if rp.sorted == len(rp.keys) {
		return rp.keys
	}
	tail := rp.keys[rp.sorted:]
	slices.SortFunc(tail, func(a, b replicaKey) int { return strings.Compare(a.key, b.key) })
	if h := rp.sorted; h > 0 && tail[0].key < rp.keys[h-1].key {
		tail = append([]replicaKey(nil), tail...)
		for w := len(rp.keys) - 1; len(tail) > 0; w-- {
			if t := tail[len(tail)-1]; h == 0 || rp.keys[h-1].key < t.key {
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
	if vp := rp.vers[string(key)]; vp != nil {
		return visibleAt(*vp, snap)
	}
	return cc.Version{}, false
}

// visibleAt resolves an oldest-first version chain at snapshot snap.
func visibleAt(vs []cc.Version, snap cc.Timestamp) (cc.Version, bool) {
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].TS <= snap {
			return vs[i], true
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
		keys = keys[sort.Search(len(keys), func(i int) bool { return keys[i].key >= string(lo) }):]
	}
	// Taken for the duration: a callback that scans this part again gets a
	// buffer of its own.
	kbuf := rp.kbuf
	rp.kbuf = nil
	for _, e := range keys {
		if hi != nil && e.key >= string(hi) {
			break
		}
		v, ok := visibleAt(*e.vers, snap)
		if !ok || v.Deleted {
			continue
		}
		kbuf = append(kbuf[:0], e.key...)
		if !fn(kbuf, v.Val) {
			break
		}
	}
	rp.kbuf = kbuf
}

// enableDataReplication turns on per-node WAL shipping with the given number
// of followers per node, clamped to [1, Nodes-1]: node n ships to the next
// replicas node IDs cyclically, over one shipLink per pair. Setup-only (New
// calls it when Config.DataReplicas or MasterReplicas is positive), so
// bulk-load base images queue from the first append.
func (c *Cluster) enableDataReplication(replicas int) {
	replicas = min(max(replicas, 1), len(c.Nodes)-1)
	c.drep = &dataRep{}
	for id, node := range c.Nodes {
		node.ship = &shipState{
			lineage: make([]genStep, 1), // generation 0 began with nothing
			drained: sim.NewSignal(c.Env),
		}
		// Walking origins in ascending ID leaves every inbound list ascending.
		for i := 1; i <= replicas; i++ {
			l := &shipLink{origin: node, follower: c.Nodes[(id+i)%len(c.Nodes)]}
			node.ship.links = append(node.ship.links, l)
			l.follower.inbound = append(l.follower.inbound, l)
		}
		node.Log.SetAppendHook(func(rec wal.Record, frame []byte) {
			if !wal.Shippable(&rec) {
				return
			}
			sh := node.ship
			var vis cc.Timestamp
			switch rec.Type {
			case wal.RecInsert, wal.RecUpdate, wal.RecDelete, wal.RecBase:
				if v, err := table.DecodeValue(rec.After); err == nil {
					vis = v.TS
				}
			}
			sh.queue = append(sh.queue, shipItem{lsn: rec.LSN, frame: frame, vis: vis,
				flushFirst: rec.Type == wal.RecMState})
		})
	}
}

// link returns the origin's link to follower f, nil when f does not follow it.
func (sh *shipState) link(f *DataNode) *shipLink {
	for _, l := range sh.links {
		if l.follower == f {
			return l
		}
	}
	return nil
}

// applyToFollower delivers one origin frame over the link: a RecShip wrapper
// on the follower's log (Part carries the origin ID) and an immediate
// replica-store apply, whose versions alias frame.
func (l *shipLink) applyToFollower(lsn uint64, frame []byte) {
	sh := l.origin.ship
	// Append copies the payload into the follower's log segment, so one buffer
	// serves every wrapper this origin ships.
	sh.wrapBuf = wal.EncodeShipFrame(sh.wrapBuf[:0], &wal.ShipFrame{
		Origin: uint32(l.origin.ID), LSN: lsn, Gen: sh.gen, Frame: frame})
	l.wrapLSN = l.follower.Log.Append(wal.Record{Type: wal.RecShip, Part: uint64(l.origin.ID), After: sh.wrapBuf})
	if l.store == nil {
		l.store = newRepStore()
	}
	l.store.applyFrame(lsn, frame)
}

// applyReset opens the follower's first resync in the origin's current
// generation: a reset marker on the follower's log saying that, of everything
// it holds of the stream, the frames at or below keep are still the origin's
// and the rest is not.
func (l *shipLink) applyReset(keep uint64) {
	payload := wal.EncodeShipFrame(nil, &wal.ShipFrame{
		Origin: uint32(l.origin.ID), Gen: l.origin.ship.gen, Reset: true, Keep: keep})
	l.wrapLSN = l.follower.Log.Append(wal.Record{Type: wal.RecShip, Part: uint64(l.origin.ID), After: payload})
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
// live in-sync follower holding what was queued; the confirm stage
// (confirmShipped) runs after the lock is released and turns follower log
// flushes into durable watermarks — with forced, by flushing the receivers'
// logs itself until one of them is durable, which is what a forced pass owes
// its waiters. So the next pass's batch travels while this one's is being
// forced, and the forces of concurrent passes meet in the follower's group
// commit instead of queueing on the origin's lock. Returns false only when
// origin died during the pass.
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
// The batch is everything appended, flushed at the origin or not: a forced
// waiter starts its pass the instant it starts its local force, and the two
// run side by side. A follower may therefore durably hold frames the origin
// then loses with its volatile tail; what keeps those from ever being used is
// not this function but the readers of follower wrappers, which stop at the
// boundary each origin restart records (shipState.lineage, shippedCopy) until
// the follower's next resync writes it into its log as a reset marker.
//
// One kind of frame still waits for the origin's flush: a replicated catalog
// snapshot, and with it — the stream is delivered in order — whatever is
// queued behind it. Migration routing follows the snapshots (a boundary
// advance is replicated before it is installed), and an election reads
// followers' copies of the anchor's stream on the premise that every catalog
// snapshot in them is durable on the anchor too (tryElect). Every other
// coordinator record ships ahead like a data frame: an ack decides nothing, a
// decision is remembered by the coordinator before it is forced, and a lease
// ceiling an election adopts only raises the clock. Holding those back would
// leave every commit on the leader's node that starts before the next flush
// covers one to ship in a second pass, after its local force.
func (c *Cluster) sendQueued(p *sim.Proc, origin *DataNode) ([]shipMark, bool) {
	if !c.acquireDrain(p, origin) {
		return nil, false
	}
	defer c.releaseDrain(origin)
	sh := origin.ship
	cut, through := sh.shippable(origin.Log)
	items := sh.queue[:cut:cut]
	var batchBytes int64
	for _, it := range items {
		batchBytes += int64(len(it.frame)) + shipWireOverhead
	}
	recv := sh.recv[:0]
	for _, l := range sh.links {
		if l.follower.crashed || l.stale {
			if len(items) > 0 {
				l.stale = true
			}
			continue
		}
		// Whatever this follower flushed on its own since the last pass
		// counts: a follower no forced pass flushes still advances.
		if l.follower.Log.FlushedLSN() >= l.wrapLSN {
			l.durable = l.sent
		}
		recv = append(recv, l)
	}
	sh.recv = recv
	if len(items) > 0 && len(recv) > 0 {
		dest := sh.dest[:0]
		for _, l := range recv {
			dest = append(dest, l.follower.ID)
		}
		sh.dest = dest
		c.Net.Multicast(p, origin.ID, dest, batchBytes)
		if origin.crashed {
			return nil, false
		}
		live := recv[:0]
		for _, l := range recv {
			if l.follower.crashed || l.stale {
				l.stale = true
				continue
			}
			have := l.sent
			for _, it := range items {
				if it.lsn > have {
					l.applyToFollower(it.lsn, it.frame)
				}
			}
			live = append(live, l)
		}
		recv = live
	}
	var marks []shipMark
	if n := len(sh.freeMarks); n > 0 {
		marks, sh.freeMarks = sh.freeMarks[n-1], sh.freeMarks[:n-1]
	}
	for _, l := range recv {
		// The receiver now holds every shippable frame up to the boundary,
		// whatever kind of record sits at the boundary itself (it may be one
		// that never ships, a wrapper of another origin's stream).
		l.sent = through
		marks = append(marks, shipMark{l: l, wrap: l.wrapLSN, through: through, resyncs: l.resyncs})
	}
	if len(recv) > 0 {
		sh.queue = sh.queue[len(items):]
	}
	// No receiver: every follower is stale or down. The queue is kept for
	// whoever comes back in sync first.
	return marks, true
}

// shippable returns how far origin's stream may ship right now — through the
// log's tail, or the frame before the first catalog snapshot its log has not
// flushed (such a record is still queued, with everything behind it) — and how
// many queued items that covers.
func (sh *shipState) shippable(l *wal.Log) (cut int, through uint64) {
	for i, it := range sh.queue {
		if it.flushFirst && it.lsn > l.FlushedLSN() {
			return i, it.lsn - 1
		}
	}
	return len(sh.queue), l.TailLSN() - 1
}

// confirmShipped is the confirm stage of a ship pass, run without the drain
// lock: a receiver whose log is flushed through its mark's wrapper holds the
// origin's frames up to the mark's boundary durably. With forced, one receiver
// is flushed that far first, chosen so the pass waits as little as it can
// (forcePick): none if some receiver is durable through its wrapper already,
// else the first in follower order whose log has no write in flight — its
// flush starts at once instead of queueing behind one — else the first; if
// that receiver dies in its flush, the pick goes on among its siblings. The
// other wrappers ride their log's next group commit, and their watermark
// advances whenever a later pass finds the log flushed that far.
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
//
// A forced flush that returns before the origin's own force has opened the
// window the ship.ahead crash point marks: the follower's disk holds frames of
// the origin's stream that the origin's log has not flushed, and a power
// failure of the origin now leaves a follower with a suffix its origin lost.
func (c *Cluster) confirmShipped(p *sim.Proc, origin *DataNode, marks []shipMark, forced bool) {
	// A flush either makes its receiver durable, which ends the forcing, or
	// finds it crashed and stale from then on: the next pick is a sibling.
	for i := 0; forced && i < len(marks); i++ {
		m := forcePick(marks)
		if m == nil {
			break
		}
		flog := m.l.follower.Log
		flog.Flush(p, m.wrap)
		ahead := flog.FlushedLSN() >= m.wrap && origin.Log.FlushedLSN() < m.through
		if origin.crashed || ahead && !c.point(origin, "ship.ahead") {
			return
		}
	}
	for _, m := range marks {
		if m.l.follower.Log.FlushedLSN() >= m.wrap && m.valid() && m.l.durable < m.through {
			m.l.durable = m.through
		}
	}
}

// valid reports whether m still speaks for its receiver: not stale, and no
// resync since the pass that cut it.
func (m *shipMark) valid() bool { return !m.l.stale && m.l.resyncs == m.resyncs }

// forcePick returns the receiver a forced pass flushes (see confirmShipped),
// or nil when none needs it.
func forcePick(marks []shipMark) *shipMark {
	var pick *shipMark
	for i := range marks {
		m := &marks[i]
		if !m.valid() {
			continue
		}
		flog := m.l.follower.Log
		if flog.FlushedLSN() >= m.wrap {
			return nil
		}
		if pick == nil || pick.l.follower.Log.Flushing() && !flog.Flushing() {
			pick = m
		}
	}
	return pick
}

// replicaDurable reports whether at least one in-sync follower of origin holds
// every frame up to target durably — the one predicate behind every forced
// ack, data or coordinator.
func (c *Cluster) replicaDurable(origin *DataNode, target uint64) bool {
	for _, l := range origin.ship.links {
		if !l.stale && l.durable >= target {
			return true
		}
	}
	return false
}

// forceShip is the forced wait of the data path: it blocks until the frame
// origin appended at lsn in generation gen (both read in the instant of the
// append) — and with it everything below — is durable on origin's own log AND
// on at least one in-sync follower, whichever lands last. The local force is
// started here and not waited for: the ship pass runs beside it, and the
// caller joins whichever write is still in flight when the pass returns. It
// retries through follower outages (a restarting follower resyncs and
// satisfies the target).
//
// Without park it gives up, false, when it finds origin down or the frame
// lost: a prepare vote or a distributed branch, whose fate the coordinator's
// decision settles either way. With park it is the wait of a single-node commit, whose
// commit record IS the decision: the answer must be the commit's actual fate,
// so the waiter sleeps across the outage and follows its frame through every
// restart since (shipState.follow):
//
//   - the frame survived into the current generation (it was below the flushed
//     boundary each plain restart came back with): the wait goes on there —
//     the restart's resyncs re-anchor the durable watermarks above it — and
//     ends in true;
//   - a rebuild adopted it (disk lost, or acked history rotted beyond repair,
//     and the replica prefix the log was rebuilt from reached it): true;
//   - a restart lost it — it sat in the volatile tail, or above the replica
//     prefix of a rebuild. A follower may still hold it durably, and a rebuild
//     before that follower is resynced would bring it back, so the answer
//     waits until the loss is sealed: a follower resynced in a newer
//     generation holds the marker that drops the frame, and a rebuild prefers
//     the newest generation. Then false.
//
// This keeps the harness oracle's strict contract: an error return means the
// transaction is durably absent from the origin and from every copy a rebuild
// could choose, a true return means it is durable at the origin and on a
// replica.
func (c *Cluster) forceShip(p *sim.Proc, origin *DataNode, lsn, gen uint64, park bool) bool {
	sh := origin.ship
	origin.Log.Kick()
	for {
		at, adopted := sh.follow(gen, lsn)
		if adopted {
			return true
		}
		if at != sh.gen || origin.crashed {
			if !park || at != sh.gen && c.lossSealed(origin, at) {
				return false
			}
		} else {
			if origin.Log.FlushedLSN() >= lsn && c.replicaDurable(origin, lsn) {
				return true
			}
			if !c.forcePass(p, origin, lsn) || sh.gen != at || origin.crashed {
				// The local force ended during this pass, or origin died: look
				// again.
				continue
			}
			if c.replicaDurable(origin, lsn) {
				return true
			}
			c.healStaleFollowers(p, origin)
		}
		c.shipRetry(p)
	}
}

// forcePass is one round of a forced wait on the frame origin appended at lsn,
// whose local force the caller has kicked: a forced ship pass runs beside that
// force, and then the round joins it. local reports whether the frame was
// already flushed on origin when the pass began. If it was not, the pass may
// have held it back behind a catalog snapshot origin had not flushed yet
// (shippable), and only a round that starts after the flush ships it.
func (c *Cluster) forcePass(p *sim.Proc, origin *DataNode, lsn uint64) (local bool) {
	local = origin.Log.FlushedLSN() >= lsn
	if c.shipQueued(p, origin, true) {
		origin.Log.Flush(p, lsn)
	}
	return local
}

// lossSealed reports whether what origin's generation g held above the
// boundary it was restarted at can no longer come back: some follower
// completed a resync in a newer generation, so its durable log carries that
// generation's reset marker, and a rebuild takes the newest generation on
// offer before the longest copy.
func (c *Cluster) lossSealed(origin *DataNode, g uint64) bool {
	for _, l := range origin.ship.links {
		if l.syncedGen > g {
			return true
		}
	}
	return false
}

// healStaleFollowers resyncs any live-but-stale follower of origin. Restart
// epilogues normally do this, but a resync interrupted by a concurrent crash
// of the counterpart leaves the pair stale with no further trigger once both
// are finally up — a forced commit waiting on replica durability would spin
// forever. The forced-ship retry loops call this so they make progress on
// whatever replica set the crash schedule left them.
func (c *Cluster) healStaleFollowers(p *sim.Proc, origin *DataNode) {
	for _, l := range origin.ship.links {
		if origin.crashed {
			return
		}
		if !l.follower.crashed && l.stale {
			c.resyncFollower(p, l)
		}
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
	for _, l := range sh.links {
		for _, it := range sh.queue {
			l.applyToFollower(it.lsn, it.frame)
			l.sent = it.lsn
		}
		l.follower.Log.SetupFlush()
		l.durable = l.sent
	}
	sh.queue = nil
}

// resyncFollower brings the follower f of link l back in sync with its origin:
// a reset marker if origin restarted since f last was, then every shippable
// frame of origin's retained log, appended to f's log and flushed — after
// which f counts for durability again (stale cleared). Tolerates either side
// dying mid-resync (stale stays set; a later restart retries).
func (c *Cluster) resyncFollower(p *sim.Proc, l *shipLink) {
	origin, f := l.origin, l.follower
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
	if !l.stale {
		// Someone else's resync of f held the lock this call waited for (a
		// forced commit's heal and a restart epilogue race for the same pair):
		// f is in sync, and shipping the whole retained log again buys nothing.
		return
	}
	// Everything a pass would ship: the frames popped from the queue while f
	// was away were popped the moment they were appended, so a resync that
	// stopped at the origin's flushed boundary would leave f without those
	// still above it, for good.
	_, through := sh.shippable(origin.Log)
	frames, _ := streamCopy(origin, origin.ID, through)
	var total int64
	for _, frame := range frames.frames {
		total += int64(len(frame)) + shipWireOverhead
	}
	c.Net.Transfer(p, origin.ID, f.ID, total+shipWireOverhead)
	if origin.crashed || f.crashed {
		return
	}
	// What f holds was shipped in the generation it last synced in, and may
	// run past what origin's restarts since came back with — frames origin
	// lost and has numbered over (none of them after a rebuild, which
	// renumbers everything). The marker says where f's copy stops being true;
	// it is written by every attempt until one completes, and never asks f to
	// give up the prefix that did survive: origin's retained log may be
	// truncated below the replica-durable boundary, so f's own durable
	// wrappers are the only source for that prefix — which is also why the
	// fresh in-memory store (a crashed follower's died with its DRAM, a live
	// stale one may have missed deliveries) is seeded from them first.
	if keep := sh.keepFrom(l.syncedGen); keep != noFloor {
		l.applyReset(keep)
	}
	st := newRepStore()
	own := c.shippedCopy(f, origin)
	for i, lsn := range own.lsns {
		st.applyFrame(lsn, own.frames[i])
	}
	l.store = st
	for i, lsn := range frames.lsns {
		l.applyToFollower(lsn, frames.frames[i])
	}
	l.sent = through
	wl := l.wrapLSN
	f.Log.Flush(p, wl)
	if !c.point(origin, "ship.resync") {
		return
	}
	if !f.crashed && f.Log.FlushedLSN() >= wl {
		l.durable = through
		l.stale = false
		l.resyncs++
		l.syncedGen = sh.gen
	}
	// The resynced prefix no longer needs queue delivery to THIS follower —
	// but the queue is shared across the replica set, so only frames every
	// non-stale follower already holds (sent covers them; stale followers
	// re-ship from the retained log) may be dropped. Trimming to this
	// follower's boundary alone would discard frames a sibling synced at an
	// older boundary never received, leaving a permanent gap in its replica
	// store.
	limit := through
	for _, g := range sh.links {
		if !g.stale && g.sent < limit {
			limit = g.sent
		}
	}
	q := sh.queue
	keep := 0
	for keep < len(q) && q[keep].lsn <= limit {
		keep++
	}
	sh.queue = q[keep:]
}

// streamCopy is the one reader of a copy of a node's shipped stream: the
// frames of origin's stream that n's log holds through LSN upTo, in origin-LSN
// order, and the generation the copy belongs to. The log is read directly —
// even while n is down; its disk is stable storage — and per frame, so a
// rotted frame the scrubber has not reached yet hides nothing behind it.
//
// When n is the origin the copy is its own shippable frames, aliasing its
// log segments, in its current generation. Otherwise it is what n's RecShip
// wrappers of origin hold, with the reset markers applied in log order: a
// marker drops what n held above its keep-through (everything, after a
// rebuild — older numberings hold unrelated records at colliding LSNs) and
// opens its generation; a frame of a newer generation whose marker rotted
// away drops everything before it, and a straggler from an older generation
// is skipped. Those frames alias the wrappers' payloads (DecodeShipFrame). A
// follower's copy is true as of its generation only; against a newer one it
// may end in a suffix the origin lost — every reader of a follower's copy but
// the rebuild, which ranks whole copies, reads it through shippedCopy.
//
// Nothing is copied and nothing grows: both slices are sized once, to the
// log's frame count through upTo, so a copy of any length costs the same
// handful of allocations.
func streamCopy(n *DataNode, origin int, upTo uint64) (fs frameSet, gen uint64) {
	own := n.ID == origin
	if own {
		gen = n.ship.gen
	}
	held := n.Log.FramesThrough(upTo)
	fs.lsns, fs.frames = make([]uint64, 0, held), make([][]byte, 0, held)
	var sf wal.ShipFrame
	n.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.LSN > upTo {
			return false
		}
		if own {
			if wal.Shippable(rec) {
				fs.put(rec.LSN, frame)
			}
			return true
		}
		if rec.Type != wal.RecShip || rec.Part != uint64(origin) {
			return true
		}
		if wal.DecodeShipFrame(rec.After, &sf) != nil || sf.Gen < gen {
			return true // damaged, or a straggler from before a restart
		}
		switch {
		case sf.Reset:
			fs.keepThrough(sf.Keep)
		case sf.Gen > gen:
			fs.keepThrough(0) // the marker that opened this generation is gone
		}
		gen = sf.Gen
		if !sf.Reset {
			fs.put(sf.LSN, sf.Frame)
		}
		return true
	})
	return fs, gen
}

// shippedCopy is node f's durable copy of origin's stream as far as it is
// still true in origin's current generation: streamCopy through f's flushed
// boundary, cut at the lowest boundary of the origin restarts f has not been
// resynced past. No frame above it may be used for anything — it is a record
// the origin lost, at an LSN the origin has since given to another. The
// origin's own copy is of the current generation and is never cut.
func (c *Cluster) shippedCopy(f, origin *DataNode) frameSet {
	fs, gen := streamCopy(f, origin.ID, f.Log.FlushedLSN())
	fs.keepThrough(origin.ship.keepFrom(gen))
	return fs
}

// RotEligible returns a predicate over origin n's acked frames marking those
// a chaos bit-rot fault may damage without exceeding the redundancy budget:
// only frames with a durable, still-true copy on a follower whose disk medium
// is intact qualify — the copy scrubNode repairs from. The one in-memory
// repair source, the origin's ship queue, is deliberately excluded — a crash
// schedule can erase it before the scrubber runs, and rotting a frame whose
// last durable copy is the origin's own models unrecoverable media loss, not
// repairable decay. Each follower's copy is read once, in place.
func (c *Cluster) RotEligible(n *DataNode) func(lsn uint64) bool {
	var copies []frameSet
	if c.drep != nil {
		for _, l := range n.ship.links {
			if !l.follower.diskLost {
				copies = append(copies, c.shippedCopy(l.follower, n))
			}
		}
	}
	return func(lsn uint64) bool {
		for i := range copies {
			if copies[i].get(lsn) != nil {
				return true
			}
		}
		return false
	}
}

// rebuildFromReplicas reconstructs a node's log after total loss of its
// durable state (a wiped disk, or bit rot that ate into acked history): the
// node's own salvaged frames and its followers' durable copies of the shipped
// stream together supply the frames, which are re-appended — renumbered — to
// the freshly wiped log. Replicated coordinator records are part of the stream,
// so a node that ever led gets them back here too, their master sequence
// (Record.Part) untouched by the renumbering — the election below RestartNode
// reads them. Runs inside RestartNode, right after Log.Restart and before any
// recovery pass; sv is the pre-Restart salvage (empty after a wiped disk).
func (c *Cluster) rebuildFromReplicas(p *sim.Proc, n *DataNode, sv frameSet) {
	// Every copy on offer — the salvage and every follower disk still
	// readable — holds the stream as of some generation. As far as a copy is
	// still true in the current generation (keepFrom) it is history,
	// byte-identical in every copy that has it, and all of it is wanted: a
	// frame a forced commit was acked against is in that part of the copy of
	// whichever follower was in sync at the time — not necessarily the newest
	// copy, which may be a resync cut short. The salvage is in the log's
	// current numbering and covers everything this node acked locally,
	// including slices whose only follower copy died with a destroyed disk;
	// the followers' copies fill its rot holes.
	//
	// Beyond that a copy ends in a suffix the origin lost at a restart, and one
	// copy is taken whole. A non-empty salvage is that copy: the node's own log
	// says what came after, and no follower's suffix is wanted. After a wiped
	// disk it is the follower copy of the newest generation on offer, and among
	// those the longest. Newest first, because an older copy's suffix — however
	// long — is exactly what a resynced sibling's marker sealed as lost for the
	// waiters (forceShip); when no sibling was resynced since, nobody has been
	// told anything about the suffix yet, and it comes back.
	sh := n.ship
	type held struct {
		f   *DataNode
		fs  frameSet
		gen uint64
	}
	var copies []held
	whole := -1 // the copy taken whole
	if sv.len() > 0 {
		copies, whole = append(copies, held{n, sv, sh.gen}), 0
	}
	for _, l := range sh.links {
		f := l.follower
		if f.diskLost {
			continue // wiped too: no stable storage to read
		}
		fs, gen := streamCopy(f, n.ID, f.Log.FlushedLSN())
		if whole < 0 || copies[whole].f != n && (gen > copies[whole].gen || gen == copies[whole].gen && fs.max() > copies[whole].fs.max()) {
			whole = len(copies)
		}
		copies = append(copies, held{f, fs, gen})
	}
	from := sh.gen
	if whole >= 0 {
		from = copies[whole].gen
		copies[0], copies[whole] = copies[whole], copies[0] // merged first
	}
	size := 0 // at most every frame of every copy
	for _, cp := range copies {
		size += cp.fs.len()
	}
	frames := frameSet{lsns: make([]uint64, 0, size), frames: make([][]byte, 0, size)}
	contributed := make([]int64, len(copies))
	for i, cp := range copies {
		if i > 0 {
			cp.fs.keepThrough(sh.keepFrom(cp.gen))
		}
		for j, lsn := range cp.fs.lsns {
			if frames.get(lsn) == nil {
				frames.put(lsn, cp.fs.frames[j])
				contributed[i] += int64(len(cp.fs.frames[j])) + shipWireOverhead
			}
		}
	}
	n.Log.WipeDisk() // renumber from LSN 1: the shipped stream has gaps
	// A new generation, in a new numbering: frames of generation from at or
	// below the end of the merged copy are in it, everything else is gone once
	// the resyncs reset the followers. Parked commit waiters resolve against
	// exactly that (shipState.follow).
	sh.openGen(from, frames.max(), true)
	// The recovery bases are re-derived from the rebuilt log alone: the wiped
	// log IS the new base truth, and stale in-memory pairs would re-append as
	// phantom tail bases on the next repairBaseLog pass.
	n.bases = make(map[table.PartID][]basePair)
	n.baseIdx = nil
	for i, bytes := range contributed {
		if bytes > 0 && copies[i].f != n {
			// Read the follower's contribution from its disk, ship it over.
			copies[i].f.HW.LogDisk().ReadSeq(p, bytes)
			c.Net.Transfer(p, copies[i].f.ID, n.ID, bytes)
		}
	}
	var rec wal.Record
	for _, frame := range frames.frames {
		if wal.DecodeFrame(frame, &rec) != nil {
			continue
		}
		nl := n.Log.Append(rec) // Append renumbers
		if rec.Type == wal.RecBase {
			// A wiped disk also lost the recovery bases; the shipped
			// base images restore them. The pair keeps a copy, for memory:
			// the decoded slices alias frame, which lies in a segment the
			// wipe discarded (the salvage aliases the old log) or in a
			// follower's wrapper segment (every copy is read in place), and
			// an alias would keep that whole segment alive. It carries its
			// renumbered append LSN, so repairBaseLog sees it covered.
			id := table.PartID(rec.Part)
			n.bases[id] = append(n.bases[id], basePair{key: bytes.Clone(rec.Key), val: bytes.Clone(rec.After), lsn: nl})
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
// node: pull fresh replicas of live origins this node follows, and push
// resyncs to live followers that went stale.
func (c *Cluster) restartResync(p *sim.Proc, n *DataNode) {
	for _, l := range n.inbound {
		if !l.origin.crashed && l.stale {
			c.resyncFollower(p, l)
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
	// Followers may hold a shipped suffix the origin just lost with its
	// volatile tail — or miss frames whose queue just evaporated. Either way
	// their replicas diverge from the restarted origin's durable log: resync.
	for _, l := range sh.links {
		l.stale = true
	}
	for _, l := range n.inbound {
		l.store = nil
		l.stale = true
	}
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
	n.baseIdx = nil
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
// Repair sources, in order: the node's own ship queue (the append-time alias
// is pristine and covers flushed-but-unshipped frames), then any follower's
// durable wrapper log — readable even while that follower is down or stale,
// since its disk is stable storage. RotEligible rots only frames such a copy
// holds. Each follower's copy is read at most once a pass, in place, through
// shippedCopy: above the boundary of an origin restart a stale follower holds
// a different record at the same LSN, one that decodes (PatchFrame checks CRC
// and LSN, not identity).
func (c *Cluster) scrubNode(p *sim.Proc, n *DataNode) int {
	repaired := 0
	var copies []*frameSet // per link, read on first need
	for _, lsn := range n.Log.CheckFlushed() {
		var frame []byte
		for _, it := range n.ship.queue {
			if it.lsn == lsn {
				frame = it.frame
				break
			}
		}
		if frame == nil {
			if copies == nil {
				copies = make([]*frameSet, len(n.ship.links))
			}
			for i, l := range n.ship.links {
				f := l.follower
				if f.diskLost {
					continue
				}
				if copies[i] == nil {
					fs := c.shippedCopy(f, n)
					copies[i] = &fs
				}
				if frame = copies[i].get(lsn); frame != nil {
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
