package table

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/wal"
)

// Scheme selects the partitioning technique (Sect. 4).
type Scheme int

const (
	// Physical: spanning tree, segments relocatable to remote disks,
	// ownership fixed (Sect. 4.1).
	Physical Scheme = iota
	// Logical: spanning tree, rebalancing moves records transactionally
	// (Sect. 4.2).
	Logical
	// Physiological: per-segment trees plus top index, rebalancing ships
	// segments and transfers ownership (Sect. 4.3).
	Physiological
)

// String returns the scheme's display name.
func (s Scheme) String() string {
	return [...]string{"physical", "logical", "physiological"}[s]
}

// PartID identifies a partition cluster-wide.
type PartID uint64

// PagerFactory supplies a partition with segments and buffered page access;
// implemented by the owning data node (and by plain in-memory fakes in
// tests).
type PagerFactory interface {
	// NewSegment allocates a fresh segment on one of the node's disks.
	NewSegment(p *sim.Proc) (*storage.Segment, error)
	// Pager returns buffered page access to seg.
	Pager(seg *storage.Segment) btree.Pager
	// DropSegment releases seg's storage.
	DropSegment(p *sim.Proc, id storage.SegID)
}

// Deps bundles the node services a partition operates with.
type Deps struct {
	Env    *sim.Env
	Oracle *cc.Oracle
	Locks  *cc.LockManager
	// Commits is the node's table of commits not yet forced (nil: none
	// tracked); the partition's version store resolves read dependencies
	// against it.
	Commits *cc.CommitTable
	// Intents is the node's tally the partition's version store counts its
	// intent waits into (nil: the store keeps its own).
	Intents *cc.IntentStats
	Log     *wal.Log
	Factory PagerFactory
	// Compute charges CPU time on the owning node (nil: free).
	Compute func(p *sim.Proc, d time.Duration)
	// CPUPerOp is the CPU cost charged per index operation.
	CPUPerOp time.Duration
	// CPUPerTuple is the CPU cost charged per scanned record.
	CPUPerTuple time.Duration
	// LockTimeout bounds lock and write-intent waits (deadlock defence).
	LockTimeout time.Duration
	// PageSize is the page size segments will use (needed before the
	// first segment exists).
	PageSize int
}

func (d *Deps) compute(p *sim.Proc, t time.Duration) {
	if d.Compute != nil && t > 0 {
		d.Compute(p, t)
	}
}

// SegHandle is one segment serving a partition. Under physiological
// partitioning it is a mini-partition: Tree indexes exactly the records in
// [Low, High). Under the spanning schemes Tree is nil and the key bounds are
// unused.
type SegHandle struct {
	Seg   *storage.Segment
	Pager btree.Pager
	Tree  *btree.Tree
	Low   []byte
	High  []byte // exclusive; nil = unbounded
}

// Contains reports whether key falls in the handle's range.
func (h *SegHandle) Contains(key []byte) bool {
	if bytes.Compare(key, h.Low) < 0 {
		return false
	}
	return h.High == nil || bytes.Compare(key, h.High) < 0
}

type ghost struct {
	handle *SegHandle
	moveTS cc.Timestamp
}

// Stats counts partition activity (the per-partition monitoring data of
// Sect. 3.4).
type Stats struct {
	Reads, Writes, ScannedTuples int64
	Commits, Aborts              int64
}

// ErrNotOwned is returned when a key is outside the partition's current
// responsibility (e.g. its segment moved away); the router must retry at the
// new owner.
type ErrNotOwned struct {
	Part PartID
	Key  []byte
}

func (e ErrNotOwned) Error() string {
	return fmt.Sprintf("table: partition %d does not own key %x", e.Part, e.Key)
}

// ErrPartitionDown is returned when the partition's node has power-failed:
// every access fails until the node restarts and the partition is rebuilt
// from its recovery base and the write-ahead log.
type ErrPartitionDown struct {
	Part PartID
}

func (e ErrPartitionDown) Error() string {
	return fmt.Sprintf("table: partition %d is down (node power-failed)", e.Part)
}

// ErrSnapshotTooOld is returned for snapshot reads below the partition's
// recovery horizon. Version chains are volatile — they die with the node's
// DRAM — so a recovered partition holds only the newest committed image of
// each key as of recovery; a snapshot older than that could need a superseded
// version that no longer exists, and answering "absent" would be a silent
// consistency violation. Callers treat this like any transient fault: abort
// and retry with a fresh snapshot.
type ErrSnapshotTooOld struct {
	Part  PartID
	Snap  cc.Timestamp
	Floor cc.Timestamp
}

func (e ErrSnapshotTooOld) Error() string {
	return fmt.Sprintf("table: partition %d snapshot %d below recovery horizon %d", e.Part, e.Snap, e.Floor)
}

// Partition is one horizontal slice of a table, living on a single node.
type Partition struct {
	ID     PartID
	Schema *Schema
	Scheme Scheme
	// Low/High bound the partition's key responsibility (High exclusive,
	// nil = unbounded).
	Low, High []byte

	deps  Deps
	Store *cc.VersionStore

	segs   []*SegHandle // physiological: sorted by Low
	ghosts []ghost
	span   *btree.Tree // spanning schemes

	pending map[cc.TxnID][]string
	tombs   map[string]struct{}
	stats   Stats

	// Replica marks a read-only replicated copy (e.g. TPC-C ITEM): it can
	// be dropped when its node quiesces and rebuilt on wake-up.
	Replica bool

	// AdoptOnly marks a physiological partition that acquires segments
	// exclusively via AdoptSegment (a migration target): writes to ranges
	// not yet adopted return ErrNotOwned instead of creating a fresh
	// mini-partition, so they retry at the old location until the shipped
	// segment arrives.
	AdoptOnly bool

	// failed marks the partition's volatile state lost to a node power
	// failure: all operations return ErrPartitionDown until the node
	// restarts and swaps in a recovered replacement partition.
	failed bool

	// histFloor is the snapshot-serving horizon: recovery installs only the
	// newest committed image per key, so snapshot reads below the floor get
	// ErrSnapshotTooOld instead of a potentially wrong "absent".
	histFloor cc.Timestamp

	lockID string // lockName
}

// NewPartition creates an empty partition.
func NewPartition(id PartID, schema *Schema, scheme Scheme, low, high []byte, deps Deps) *Partition {
	pt := &Partition{
		ID:      id,
		Schema:  schema,
		Scheme:  scheme,
		Low:     low,
		High:    high,
		deps:    deps,
		Store:   cc.NewVersionStore(deps.Env),
		pending: make(map[cc.TxnID][]string),
		tombs:   make(map[string]struct{}),
		lockID:  fmt.Sprintf("P%d", id),
	}
	pt.Store.Commits = deps.Commits
	if deps.Intents != nil {
		pt.Store.Intents = deps.Intents
	}
	if scheme != Physiological {
		pt.span = btree.New(&spanningPager{pt: pt}, 0, nil)
		pt.span.Serialize(deps.Env)
	}
	return pt
}

// Deps returns the partition's dependency bundle.
func (pt *Partition) Deps() *Deps { return &pt.deps }

// Fail marks the partition dead after its node power-failed, wiping the
// volatile transaction state (staged writes; version chains and the buffer
// contents die with the node's DRAM). The partition object stays routable so
// in-flight work gets a clean ErrPartitionDown instead of corrupt reads —
// writers parked on its intents too, at once (VersionStore.Fail).
func (pt *Partition) Fail() {
	pt.failed = true
	pt.pending = make(map[cc.TxnID][]string)
	pt.Store.Fail()
}

// Failed reports whether the partition was lost to a node power failure.
func (pt *Partition) Failed() bool { return pt.failed }

// down returns the failure error if the partition is dead.
func (pt *Partition) down() error {
	if pt.failed {
		return ErrPartitionDown{pt.ID}
	}
	return nil
}

// orDown returns err, or the partition's failure once its node lost power: a
// cc wait the failure ended returns cc.ErrFailed, which callers see as this.
func (pt *Partition) orDown(err error) error {
	if pt.failed {
		return ErrPartitionDown{pt.ID}
	}
	return err
}

// lock takes mode on name for txn in the node's lock table, waiting up to the
// lock timeout.
func (pt *Partition) lock(p *sim.Proc, txn *cc.Txn, name string, mode cc.LockMode) error {
	if err := pt.deps.Locks.Lock(p, txn, name, mode, pt.deps.LockTimeout); err != nil {
		return pt.orDown(err)
	}
	return nil
}

// RaiseHistoryFloor lifts the snapshot-serving horizon to ts (never lowers
// it). Every recovery install raises it to the image's timestamp, and a
// restart may raise it further once the partition is rebuilt from its base
// and the log: everything at or above the floor reads the newest image of
// every key and resolves correctly; anything below might need pre-crash
// history that died with the DRAM.
func (pt *Partition) RaiseHistoryFloor(ts cc.Timestamp) {
	if ts > pt.histFloor {
		pt.histFloor = ts
	}
}

// tooOld rejects snapshot reads below the recovery horizon. Locking-mode
// readers are exempt: they read the current committed state straight from the
// leaf, which recovery reconstructs exactly.
func (pt *Partition) tooOld(txn *cc.Txn) error {
	if txn.Mode == cc.SnapshotIsolation && txn.Begin < pt.histFloor {
		return ErrSnapshotTooOld{Part: pt.ID, Snap: txn.Begin, Floor: pt.histFloor}
	}
	return nil
}

// Stats returns a snapshot of activity counters.
func (pt *Partition) Stats() Stats { return pt.stats }

// Segments returns the live segment handles (physiological: mini-partitions
// in key order).
func (pt *Partition) Segments() []*SegHandle { return pt.segs }

// lock names for the MGL hierarchy. Every write takes the partition's, so it
// is built once (NewPartition): a fmt.Sprintf per write allocates, and a
// varying amount under the race detector, which drops a quarter of fmt's
// pooled printers.
func (pt *Partition) lockName() string { return pt.lockID }
func (pt *Partition) segLockName(seg storage.SegID) string {
	return fmt.Sprintf("P%d/S%d", pt.ID, seg)
}
func (pt *Partition) keyLockName(key []byte) string {
	return fmt.Sprintf("P%d/K%s", pt.ID, key)
}

// addSegmentSorted inserts h keeping segs ordered by Low.
func (pt *Partition) addSegmentSorted(h *SegHandle) {
	i := sort.Search(len(pt.segs), func(i int) bool {
		return bytes.Compare(pt.segs[i].Low, h.Low) > 0
	})
	pt.segs = append(pt.segs, nil)
	copy(pt.segs[i+1:], pt.segs[i:])
	pt.segs[i] = h
}

// routeWrite returns the live segment responsible for key, creating the
// first segment lazily. Physiological only.
func (pt *Partition) routeWrite(p *sim.Proc, key []byte) (*SegHandle, error) {
	if len(pt.segs) == 0 && pt.AdoptOnly {
		return nil, ErrNotOwned{pt.ID, bytes.Clone(key)}
	}
	if len(pt.segs) == 0 {
		seg, err := pt.deps.Factory.NewSegment(p)
		if err != nil {
			return nil, err
		}
		h := &SegHandle{
			Seg:   seg,
			Pager: pt.deps.Factory.Pager(seg),
			Low:   bytes.Clone(pt.Low),
			High:  bytes.Clone(pt.High),
		}
		h.Tree = btree.New(h.Pager, 0, func(no storage.PageNo) { seg.TreeRoot = no })
		h.Tree.Serialize(pt.deps.Env)
		seg.LowKey, seg.HighKey = h.Low, h.High
		pt.segs = append(pt.segs, h)
	}
	for _, h := range pt.segs {
		if h.Contains(key) {
			return h, nil
		}
	}
	return nil, ErrNotOwned{pt.ID, bytes.Clone(key)}
}

// routeRead returns a tree that can serve reads of key for txn: a live
// segment, or a ghost (recently moved-away segment) if the transaction's
// snapshot predates the move.
func (pt *Partition) routeRead(txn *cc.Txn, key []byte) (*btree.Tree, error) {
	for _, h := range pt.segs {
		if h.Contains(key) {
			return h.Tree, nil
		}
	}
	for _, g := range pt.ghosts {
		if g.handle.Contains(key) && txn.Begin <= g.moveTS {
			return g.handle.Tree, nil
		}
	}
	return nil, ErrNotOwned{pt.ID, bytes.Clone(key)}
}

// tree returns the tree responsible for key on the read path.
func (pt *Partition) readTree(txn *cc.Txn, key []byte) (*btree.Tree, error) {
	if pt.Scheme != Physiological {
		return pt.span, nil
	}
	return pt.routeRead(txn, key)
}

// writeTree returns the tree responsible for key on the write path.
func (pt *Partition) writeTree(p *sim.Proc, key []byte) (*btree.Tree, storage.SegID, error) {
	if pt.Scheme != Physiological {
		return pt.span, 0, nil
	}
	h, err := pt.routeWrite(p, key)
	if err != nil {
		return nil, 0, err
	}
	return h.Tree, h.Seg.ID, nil
}

// readLeaf fetches the current committed tree version of key (nil if the
// key is absent).
func readLeaf(p *sim.Proc, tr *btree.Tree, key []byte) (*cc.Version, error) {
	raw, ok, err := tr.Get(p, key)
	if err != nil || !ok {
		return nil, err
	}
	v, err := DecodeValue(raw)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// StorageBytes reports the partition's physical footprint: live pages plus
// retained versions and log (the Fig. 3 storage metric numerator).
func (pt *Partition) StorageBytes() int64 {
	var total int64
	for _, h := range pt.segs {
		total += h.Seg.Bytes()
	}
	for _, g := range pt.ghosts {
		total += g.handle.Seg.Bytes()
	}
	total += pt.Store.VersionBytes()
	return total
}

// RecordCount counts records visible to a fresh snapshot (test/diagnostic
// helper).
func (pt *Partition) RecordCount(p *sim.Proc) (int, error) {
	txn := pt.deps.Oracle.Begin(cc.SnapshotIsolation)
	defer pt.deps.Oracle.Abort(txn)
	n := 0
	err := pt.Scan(p, txn, nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// spanningPager exposes all of a spanning partition's segments as one page
// space: virtual page number = segIndex*capacity + local page number. The
// cross-segment references this creates are exactly why physical and
// logical partitions cannot ship individual segments with their indexes —
// the contrast the paper draws with physiological partitioning.
type spanningPager struct {
	pt *Partition
	// direct reaches every segment through btree.MemPager — its bytes, at no
	// simulated cost — instead of the segment's buffered pager: the bulk
	// loader's access path. The page numbering is the same, so a tree built
	// this way is readable through the buffered pager afterwards.
	direct bool
}

func (sp *spanningPager) pager(h *SegHandle) btree.Pager {
	if sp.direct {
		return btree.MemPager{Seg: h.Seg}
	}
	return h.Pager
}

func (sp *spanningPager) capacity() int {
	if len(sp.pt.segs) > 0 {
		return sp.pt.segs[0].Seg.Capacity()
	}
	return 0
}

func (sp *spanningPager) resolve(no storage.PageNo) (*SegHandle, storage.PageNo, error) {
	cap := sp.capacity()
	if cap == 0 {
		return nil, 0, fmt.Errorf("table: spanning pager has no segments")
	}
	idx := int(no) / cap
	if idx >= len(sp.pt.segs) {
		return nil, 0, fmt.Errorf("table: virtual page %d beyond %d segments", no, len(sp.pt.segs))
	}
	return sp.pt.segs[idx], storage.PageNo(int(no) % cap), nil
}

// Read pins a page for reading.
func (sp *spanningPager) Read(p *sim.Proc, no storage.PageNo) (storage.Page, btree.Release, error) {
	h, local, err := sp.resolve(no)
	if err != nil {
		return nil, nil, err
	}
	return sp.pager(h).Read(p, local)
}

// Write pins a page for modification.
func (sp *spanningPager) Write(p *sim.Proc, no storage.PageNo) (storage.Page, btree.Release, error) {
	h, local, err := sp.resolve(no)
	if err != nil {
		return nil, nil, err
	}
	return sp.pager(h).Write(p, local)
}

// Alloc allocates from the newest segment, growing the partition with a
// fresh segment when full.
func (sp *spanningPager) Alloc(p *sim.Proc) (storage.PageNo, storage.Page, btree.Release, error) {
	pt := sp.pt
	if len(pt.segs) == 0 {
		if err := sp.grow(p); err != nil {
			return 0, nil, nil, err
		}
	}
	last := len(pt.segs) - 1
	no, pg, rel, err := sp.pager(pt.segs[last]).Alloc(p)
	if err == btree.ErrSegmentFull {
		if err := sp.grow(p); err != nil {
			return 0, nil, nil, err
		}
		last = len(pt.segs) - 1
		no, pg, rel, err = sp.pager(pt.segs[last]).Alloc(p)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return storage.PageNo(last*sp.capacity()) + no, pg, rel, nil
}

func (sp *spanningPager) grow(p *sim.Proc) error {
	seg, err := sp.pt.deps.Factory.NewSegment(p)
	if err != nil {
		return err
	}
	sp.pt.segs = append(sp.pt.segs, &SegHandle{
		Seg:   seg,
		Pager: sp.pt.deps.Factory.Pager(seg),
	})
	return nil
}

// Free returns a page to its segment.
func (sp *spanningPager) Free(p *sim.Proc, no storage.PageNo) error {
	h, local, err := sp.resolve(no)
	if err != nil {
		return err
	}
	return sp.pager(h).Free(p, local)
}

// PageSize returns the underlying page size.
func (sp *spanningPager) PageSize() int {
	if len(sp.pt.segs) > 0 {
		return sp.pager(sp.pt.segs[0]).PageSize()
	}
	if sp.pt.deps.PageSize > 0 {
		return sp.pt.deps.PageSize
	}
	return 8192
}
