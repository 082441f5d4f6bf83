// Package cluster assembles WattDB: data nodes (buffer pool, segment
// store, WAL, lock manager) on simulated hardware, a master node holding
// the catalog and global partition table with dual old/new pointers during
// migration (Sect. 4.3 Housekeeping), utilisation monitoring with
// threshold-driven scale-out/scale-in (Sect. 3.4), and the three
// repartitioning protocols of Sect. 4.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/buffer"
	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Config tunes a cluster.
type Config struct {
	Nodes       int
	Cal         hw.Calibration
	LockTimeout time.Duration
	// MasterReplicas, when positive, makes the coordinator a replicated
	// state machine (see replication.go) whose records ship on the seated
	// leader's log stream — so it implies log shipping with at least that
	// many followers per node. Zero keeps the legacy stable-metadata master.
	MasterReplicas int
	// DataReplicas, when positive, ships every node's WAL frames to that
	// many follower nodes (see datarep.go): forced commits need one durable
	// follower, a wiped disk rebuilds from the replica set, and read-only
	// snapshot reads can be served by followers. With both zero the legacy
	// stable-flushed-bytes durability model stays.
	DataReplicas int
}

// DefaultConfig returns the paper's 10-node cluster with test-scale
// segments.
func DefaultConfig() Config {
	return Config{
		Nodes:       10,
		Cal:         hw.TestCalibration(),
		LockTimeout: 2 * time.Second,
	}
}

// segHome records where a segment's durable bytes live.
type segHome struct {
	seg    *storage.Segment
	node   *DataNode
	disk   *hw.Disk
	moving bool // physical relocation in progress: flushes must wait
	moved  *sim.Signal
}

// Cluster owns the hardware, the nodes, and the segment location map.
type Cluster struct {
	Env    *sim.Env
	Cal    hw.Calibration
	Net    *hw.Network
	Nodes  []*DataNode
	Master *Master
	Meter  *hw.PowerMeter

	homes     map[storage.SegID]*segHome
	nextSegID storage.SegID

	// drep is non-nil when data replication is enabled (datarep.go).
	drep *dataRep

	// DepWaits counts the dependencies committing sessions had to wait for
	// (Session.settleDeps), DepLost those of them that a power failure had
	// rolled back, failing the dependent.
	DepWaits, DepLost int

	// Point, when set, is called at every named crash point the engine passes
	// (see point) with the node the point concerns, and may power-fail that
	// node before returning. Fault injection aims crashes with it; nil costs
	// the engine one check per point.
	Point func(n *DataNode, name string)

	cfg Config
}

// point passes the crash point name on n and reports whether n is still up.
// Each point sits where a power failure of n is already a state the caller
// handles; the names are "ckpt.*" (CheckpointNode's protocol steps),
// "ship.ahead" (confirmShipped: a follower durably holds frames n has not
// flushed), "ship.resync" (resyncFollower: n's follower flushed a resync n
// has not yet recorded — inside RestartNode's epilogue when n is restarting),
// "commit.depwait" (settleDeps: a committing session is about to wait for an
// unsettled commit whose fate n seals), "commit.decided" (commitBranch: a
// distributed commit is acknowledged, and n's branch not yet installed) and
// "clock.publish" (the publisher: n, the seated leader, is about to send the
// oracle's view while acknowledgments may wait for it).
func (c *Cluster) point(n *DataNode, name string) bool {
	if c.Point != nil && !n.crashed {
		c.Point(n, name)
	}
	return !n.crashed
}

// New builds a cluster of cfg.Nodes data nodes. Node 0 hosts the master.
// All nodes start in standby except node 0; activate more with PowerOn or
// the scale-out policy.
func New(env *sim.Env, cfg Config) *Cluster {
	c := &Cluster{
		Env:   env,
		Cal:   cfg.Cal,
		Net:   hw.NewNetwork(env, cfg.Cal),
		homes: make(map[storage.SegID]*segHome),
		cfg:   cfg,
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.Nodes = append(c.Nodes, newDataNode(c, i))
	}
	c.Nodes[0].HW.ForceActive()
	c.Master = newMaster(c)
	// Shipping first: the coordinator's bootstrap records need the append hook.
	if replicas := max(cfg.DataReplicas, cfg.MasterReplicas); replicas > 0 {
		c.enableDataReplication(replicas)
	}
	if cfg.MasterReplicas > 0 {
		c.enableMasterReplication()
	}
	c.Master.startPublisher()
	var hwNodes []*hw.Node
	for _, n := range c.Nodes {
		hwNodes = append(hwNodes, n.HW)
	}
	c.Meter = hw.NewPowerMeter(env, cfg.Cal, hwNodes, time.Second)
	return c
}

// NextSegID issues a cluster-unique segment ID.
func (c *Cluster) NextSegID() storage.SegID {
	c.nextSegID++
	return c.nextSegID
}

func (c *Cluster) home(id storage.SegID) (*segHome, error) {
	h, ok := c.homes[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown segment %d", id)
	}
	return h, nil
}

// registerSegment homes seg on node's given disk.
func (c *Cluster) registerSegment(seg *storage.Segment, node *DataNode, disk *hw.Disk) {
	c.homes[seg.ID] = &segHome{seg: seg, node: node, disk: disk, moved: sim.NewSignal(c.Env)}
}

// dropSegment forgets a segment's storage.
func (c *Cluster) dropSegment(id storage.SegID) { delete(c.homes, id) }

// DataNode is one cluster machine running the WattDB engine: page buffer,
// WAL, lock manager, and the partitions it owns.
type DataNode struct {
	ID      int
	HW      *hw.Node
	Pool    *buffer.Pool
	Log     *wal.Log
	Locks   *cc.LockManager
	cluster *Cluster

	diskRR int // nextDataDisk's round-robin position

	// Commits registers every commit with a branch on this node from its
	// commit point until that branch is forced, with or without replication:
	// readers take their dependencies from it, follower reads of this node's
	// partitions are gated on it.
	Commits *cc.CommitTable
	// Intents tallies the intent waits of every partition this node has
	// hosted, crashed and dropped ones included.
	Intents cc.IntentStats

	// Owned partitions by ID (server-side registry).
	Parts map[table.PartID]*table.Partition

	// helper wiring (Fig. 8): non-nil while log shipping is active.
	shippedFrom wal.Device

	// Crash/restart bookkeeping (see crash.go).
	crashed   bool                        // power-failed, not yet restarted
	reviving  bool                        // inside RestartNode, durable log already recovered or rebuilt
	lostParts []*table.Partition          // partitions to rebuild on restart, in ID order
	bases     map[table.PartID][]basePair // recovery bases (bulk-load and adopted images)
	// baseIdx indexes a partition's recovery base by key: the position of
	// the key's last pair, the one a restart applies last. A partition's
	// index is built by the first checkpoint that refreshes its base and
	// kept from then on by every change to it (baseIndex).
	baseIdx map[table.PartID]map[string]int

	// Fuzzy-checkpoint bookkeeping (see checkpoint.go).
	deadBelow    uint64        // restart tail fence: unresolved txns below never resolve
	fold         *logFold      // the log's reading kept between checkpoints (readLog)
	Checkpoints  int           // completed fuzzy checkpoints (chaos report)
	LastRecovery RecoveryStats // last RestartNode's RTO breakdown

	// Data replication (see datarep.go); nil unless enabled.
	ship     *shipState  // origin role: the ship queue and the outbound links, in ring order
	inbound  []*shipLink // follower role: the links shipping to this node (replica stores), ascending origin ID
	diskLost bool        // DestroyDisk wiped the durable state; rebuild pending
}

func newDataNode(c *Cluster, id int) *DataNode {
	n := &DataNode{
		ID:      id,
		HW:      hw.NewNode(c.Env, id, c.Cal, c.Net),
		Locks:   cc.NewLockManager(c.Env),
		Commits: cc.NewCommitTable(),
		cluster: c,
		Parts:   make(map[table.PartID]*table.Partition),
		bases:   make(map[table.PartID][]basePair),
	}
	n.Pool = buffer.NewPool(c.Env, (*nodeBackend)(n), c.Cal.PageSize, c.Cal.BufferFrames)
	n.Log = wal.NewLog(c.Env, wal.DiskDevice{Disk: n.HW.LogDisk()})
	n.Pool.SetWALFlush(func(p *sim.Proc, lsn uint64) { n.Log.Flush(p, lsn) })
	return n
}

// Deps builds the table.Deps for partitions owned by this node.
func (n *DataNode) Deps() table.Deps {
	return table.Deps{
		Env:         n.cluster.Env,
		Oracle:      n.cluster.Master.Oracle,
		Locks:       n.Locks,
		Commits:     n.Commits,
		Intents:     &n.Intents,
		Log:         n.Log,
		Factory:     n,
		Compute:     n.HW.Compute,
		CPUPerOp:    n.cluster.Cal.CPUBTreeOp,
		CPUPerTuple: n.cluster.Cal.CPUTupleScan,
		LockTimeout: n.cluster.cfg.LockTimeout,
		PageSize:    n.cluster.Cal.PageSize,
	}
}

// NewSegment implements table.PagerFactory: allocate a segment on one of
// this node's data disks.
func (n *DataNode) NewSegment(p *sim.Proc) (*storage.Segment, error) {
	seg := storage.NewSegment(n.cluster.NextSegID(), n.cluster.Cal.PageSize, n.cluster.Cal.SegmentPages)
	n.cluster.registerSegment(seg, n, n.nextDataDisk())
	return seg, nil
}

// nextDataDisk picks the data disk for a segment arriving on this node —
// allocated, adopted or moved here — round-robin over the node's data disks.
func (n *DataNode) nextDataDisk() *hw.Disk {
	disks := n.HW.DataDisks()
	disk := disks[n.diskRR%len(disks)]
	n.diskRR++
	return disk
}

// Pager implements table.PagerFactory: buffered access through this node's
// pool.
func (n *DataNode) Pager(seg *storage.Segment) btree.Pager {
	return buffer.SegPager{Pool: n.Pool, Allocator: (*nodeBackend)(n), Seg: seg.ID}
}

// DropSegment implements table.PagerFactory.
func (n *DataNode) DropSegment(p *sim.Proc, id storage.SegID) {
	n.Pool.DropSegment(id)
	n.cluster.dropSegment(id)
}

// AdoptShippedSegment homes an arriving segment locally (physiological
// migration target side).
func (n *DataNode) AdoptShippedSegment(seg *storage.Segment) {
	n.cluster.registerSegment(seg, n, n.nextDataDisk())
}

// nodeBackend implements buffer.Backend and buffer.Allocator with full disk
// and network timing. Reading a page whose segment is homed on another node
// (physical partitioning) costs a request/response round trip plus the
// remote disk access — the latency penalty Sect. 4.1 describes.
type nodeBackend DataNode

func (b *nodeBackend) self() *DataNode { return (*DataNode)(b) }

// ReadPage copies the durable page into dst with timing.
func (b *nodeBackend) ReadPage(p *sim.Proc, id storage.PageID, dst []byte) error {
	h, err := b.cluster.home(id.Seg)
	if err != nil {
		return err
	}
	if h.node != b.self() {
		b.cluster.Net.Transfer(p, b.ID, h.node.ID, 32)
		h.disk.Read(p, int64(len(dst)))
		b.cluster.Net.Transfer(p, h.node.ID, b.ID, int64(len(dst)))
	} else {
		h.disk.Read(p, int64(len(dst)))
	}
	copy(dst, h.seg.Page(id.Page))
	return nil
}

// WritePage persists src with timing; during a physical relocation of the
// segment the flush waits for the move to finish.
func (b *nodeBackend) WritePage(p *sim.Proc, id storage.PageID, src []byte) error {
	h, err := b.cluster.home(id.Seg)
	if err != nil {
		return err
	}
	for h.moving {
		stop := p.Meter(sim.CatLatching)
		h.moved.Wait(p)
		stop()
	}
	if h.node != b.self() {
		b.cluster.Net.Transfer(p, b.ID, h.node.ID, int64(len(src))+32)
		h.disk.Write(p, int64(len(src)))
	} else {
		h.disk.Write(p, int64(len(src)))
	}
	copy(h.seg.Page(id.Page), src)
	return nil
}

// AllocPage allocates a durable page (metadata operation; remote homes pay
// a round trip).
func (b *nodeBackend) AllocPage(p *sim.Proc, segID storage.SegID) (storage.PageNo, error) {
	h, err := b.cluster.home(segID)
	if err != nil {
		return 0, err
	}
	if h.node != b.self() {
		b.cluster.Net.Transfer(p, b.ID, h.node.ID, 32)
		b.cluster.Net.Transfer(p, h.node.ID, b.ID, 32)
	}
	no, ok := h.seg.AllocPage()
	if !ok {
		return 0, btree.ErrSegmentFull
	}
	return no, nil
}

// FreePage returns a durable page.
func (b *nodeBackend) FreePage(p *sim.Proc, segID storage.SegID, no storage.PageNo) error {
	h, err := b.cluster.home(segID)
	if err != nil {
		return err
	}
	h.seg.FreePage(no)
	return nil
}

// StartVacuum spawns a background process that periodically removes
// tombstones and garbage-collects version chains on every partition the
// node owns (a system-transaction housekeeping duty, Sect. 3.5).
func (n *DataNode) StartVacuum(interval time.Duration) {
	n.cluster.Env.Spawn(fmt.Sprintf("vacuum-%d", n.ID), func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			ids := make([]table.PartID, 0, len(n.Parts))
			for id := range n.Parts {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			wm := n.cluster.Master.Oracle.Watermark()
			for _, id := range ids {
				if pt, ok := n.Parts[id]; ok {
					pt.Vacuum(p, wm)
				}
			}
		}
	})
}

// PowerOn boots the node (blocking p for the boot time).
func (n *DataNode) PowerOn(p *sim.Proc) { n.HW.PowerOn(p) }

// PowerOff quiesces and powers the node down. The caller must have moved
// all partitions away first; nodes "still having data on disk must not shut
// down" (Sect. 4). Under replication a node that is an in-sync follower of
// some origin's log, or holds replicated coordinator history, must not shut
// down either: its log would keep taking that origin's stream in standby.
func (n *DataNode) PowerOff(p *sim.Proc) error {
	if m := n.cluster.Master; slices.ContainsFunc(n.inbound, func(l *shipLink) bool { return !l.stale }) ||
		m.rep != nil && slices.Contains(m.electorate(), n) {
		return fmt.Errorf("cluster: node %d follows a live origin's log or holds coordinator history", n.ID)
	}
	// Shed read-only replicas and partitions fully migrated away.
	for id, pt := range n.Parts {
		if pt.Empty() || pt.Replica {
			for _, h := range pt.Segments() {
				n.DropSegment(p, h.Seg.ID)
			}
			delete(n.Parts, id)
		}
	}
	if len(n.Parts) > 0 {
		return fmt.Errorf("cluster: node %d still owns %d partitions", n.ID, len(n.Parts))
	}
	for id, h := range n.cluster.homes {
		if h.node == n {
			return fmt.Errorf("cluster: node %d still stores segment %d", n.ID, id)
		}
	}
	n.HW.PowerOff(p)
	return nil
}
