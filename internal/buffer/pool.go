// Package buffer implements each node's page buffer: pin/unpin with clock
// eviction, write-back of dirty frames under the WAL rule, latch waits when
// two transactions race on a page being fetched, and an optional remote
// (rDMA) extension used by helper nodes during rebalancing (Sect. 5.2).
package buffer

import (
	"fmt"
	"sort"

	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// Backend supplies durable page bytes. The cluster layer implements it with
// full disk and network timing; tests can use a trivial in-memory version.
type Backend interface {
	// ReadPage copies the durable bytes of id into dst, charging I/O time
	// to p.
	ReadPage(p *sim.Proc, id storage.PageID, dst []byte) error
	// WritePage persists src as the durable bytes of id.
	WritePage(p *sim.Proc, id storage.PageID, src []byte) error
}

type frameState int

const (
	frameIdle frameState = iota
	frameLoading
	frameFlushing
)

// Frame is one buffered page. Frames (and their page buffers) are recycled
// through the pool's free list: eviction pushes the frame there, the next
// miss pops it, so a steady-state miss allocates nothing.
type Frame struct {
	ID    storage.PageID
	Data  storage.Page
	pins  int
	dirty bool
	state frameState
	cond  *sim.Signal
	ref   bool // clock reference bit
	dead  bool

	// recLSN is the page LSN captured when the frame last went clean→dirty:
	// the oldest log record whose effect the durable page image may lack.
	// The fuzzy checkpointer folds the minimum over still-dirty frames into
	// its redo low-water mark; 0 means no logged modification is pending
	// (fresh PinNew pages and structural writes leave it unset, which only
	// makes the checkpoint more conservative).
	recLSN uint64

	// gen increments every time the frame is recycled for a new page, so
	// holders that block (FlushSegment) can detect that the
	// *Frame they remembered now buffers someone else's page.
	gen uint64
	// clockPos is the frame's slot in the clock ring, -1 when unlinked.
	clockPos int
	// release / releaseMod are cached unpin closures handed out by pagers,
	// so a buffer hit costs no closure allocation (see SegPager.Read).
	release    func()
	releaseMod func()
	nextFree   *Frame
	pool       *Pool
}

// Stats aggregates buffer pool counters.
type Stats struct {
	Hits, Misses, Evictions, Flushes int64
	LatchWaits                       int64
	RemoteHits                       int64
	// FrameAllocs counts frames newly allocated; FrameReuses counts frames
	// (and their page buffers) served from the free list.
	FrameAllocs, FrameReuses int64
}

// Pool is a single node's buffer pool.
type Pool struct {
	env      *sim.Env
	backend  Backend
	pageSize int
	capacity int
	frames   map[storage.PageID]*Frame
	clock    []*Frame // ring with nil holes left by dropped frames
	hand     int
	holes    int
	// ckptHand/ckptSteps drive the fuzzy checkpointer's flush walk: a
	// second clock cursor (independent of the eviction hand) plus the
	// number of ring slots left in the current lap (see FlushDirtyBatch).
	ckptHand  int
	ckptSteps int
	free      *Frame // recycled frames, linked by nextFree
	stats     Stats

	// walFlush, when set, is invoked before a dirty frame is written back
	// so the log is durable up to the page LSN (the WAL rule).
	walFlush func(p *sim.Proc, lsn uint64)

	remote *Remote
}

// NewPool creates a pool of capacity frames of pageSize bytes over backend.
func NewPool(env *sim.Env, backend Backend, pageSize, capacity int) *Pool {
	if capacity < 8 {
		panic("buffer: pool too small")
	}
	return &Pool{
		env:      env,
		backend:  backend,
		pageSize: pageSize,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
	}
}

// SetWALFlush installs the WAL-rule hook.
func (bp *Pool) SetWALFlush(fn func(p *sim.Proc, lsn uint64)) { bp.walFlush = fn }

// AttachRemote connects an rDMA page cache (on a helper node). Pass nil to
// detach.
func (bp *Pool) AttachRemote(r *Remote) { bp.remote = r }

// Stats returns a snapshot of the pool's counters.
func (bp *Pool) Stats() Stats { return bp.stats }

// InUse returns the number of resident frames.
func (bp *Pool) InUse() int { return len(bp.frames) }

// getFrame returns a frame for id, zeroed and linked into the frame map and
// clock ring — from the free list when possible, freshly allocated otherwise.
func (bp *Pool) getFrame(id storage.PageID) *Frame {
	f := bp.free
	if f != nil {
		bp.free = f.nextFree
		f.nextFree = nil
		f.ID = id
		f.pins = 0
		f.dirty = false
		f.state = frameIdle
		f.ref = false
		f.dead = false
		f.recLSN = 0
		f.gen++
		clear(f.Data)
		bp.stats.FrameReuses++
	} else {
		f = &Frame{
			ID:   id,
			Data: make([]byte, bp.pageSize),
			cond: sim.NewSignal(bp.env),
			pool: bp,
		}
		f.release = func() { f.pool.Unpin(f, false) }
		f.releaseMod = func() { f.pool.Unpin(f, true) }
		bp.stats.FrameAllocs++
	}
	bp.frames[id] = f
	f.clockPos = len(bp.clock)
	bp.clock = append(bp.clock, f)
	return f
}

// Release returns the cached unpin-clean closure for the frame (no per-pin
// closure allocation). ReleaseMod is the unpin-dirty variant.
func (f *Frame) Release() func()    { return f.release }
func (f *Frame) ReleaseMod() func() { return f.releaseMod }

// Pin fetches page id into the pool and pins it. New pages (not yet durable)
// are pinned with pinNew instead.
func (bp *Pool) Pin(p *sim.Proc, id storage.PageID) (*Frame, error) {
	for {
		f, ok := bp.frames[id]
		if !ok {
			break
		}
		if f.state == frameIdle {
			f.pins++
			f.ref = true
			bp.stats.Hits++
			return f, nil
		}
		// Another transaction is moving this page between buffer and
		// disk: wait on its latch.
		bp.stats.LatchWaits++
		stop := p.Meter(sim.CatLatching)
		f.cond.Wait(p)
		stop()
	}
	f := bp.getFrame(id)
	f.pins = 1
	f.state = frameLoading
	f.ref = true
	if err := bp.makeRoom(p); err != nil {
		f.pins--
		bp.drop(f)
		f.cond.Fire()
		return nil, err
	}
	bp.stats.Misses++
	var err error
	if bp.remote != nil && bp.remote.Fetch(p, id, f.Data) {
		bp.stats.RemoteHits++
	} else {
		err = bp.backend.ReadPage(p, id, f.Data)
	}
	f.state = frameIdle
	f.cond.Fire()
	if err != nil {
		f.pins--
		bp.drop(f)
		return nil, err
	}
	return f, nil
}

// PinNew installs a freshly allocated (zeroed, dirty) page without a backend
// read. The caller must have allocated id in its segment already.
//
// A clean, unpinned frame already resident under id is a copy from before the
// page was last freed: a reader parked in Pin while its tree freed the page
// reloads it on waking, sees the tree changed and walks away, leaving the copy
// behind. It is dropped (after any load still in flight). A pinned or dirty
// one has a live user, which is a double allocation.
func (bp *Pool) PinNew(p *sim.Proc, id storage.PageID) (*Frame, error) {
	for {
		stale, ok := bp.frames[id]
		if !ok {
			break
		}
		if stale.state != frameIdle {
			bp.stats.LatchWaits++
			stop := p.Meter(sim.CatLatching)
			stale.cond.Wait(p)
			stop()
			continue
		}
		if stale.pins > 0 || stale.dirty {
			return nil, fmt.Errorf("buffer: PinNew of resident page %v", id)
		}
		bp.drop(stale)
		stale.cond.Fire()
	}
	f := bp.getFrame(id)
	f.pins = 1
	f.dirty = true
	f.ref = true
	if err := bp.makeRoom(p); err != nil {
		// Decrement rather than zero: a concurrent Pin may have taken a
		// hit on this idle frame while makeRoom blocked; drop leaves such
		// a still-pinned frame out of the free list.
		f.pins--
		bp.drop(f)
		f.cond.Fire()
		return nil, err
	}
	return f, nil
}

// Unpin releases one pin; dirty marks the frame modified. Dirtied pages are
// invalidated in the remote cache (its copies are stale).
func (bp *Pool) Unpin(f *Frame, dirty bool) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned frame %v", f.ID))
	}
	f.pins--
	if dirty {
		f.dirty = true
		if f.recLSN == 0 {
			f.recLSN = f.Data.LSN()
		}
		if bp.remote != nil {
			bp.remote.Invalidate(f.ID)
		}
	}
}

// Discard drops a frame without flushing, regardless of dirtiness. Used when
// the underlying page is being freed.
func (bp *Pool) Discard(id storage.PageID) {
	if f, ok := bp.frames[id]; ok {
		if f.pins > 0 {
			panic(fmt.Sprintf("buffer: discard of pinned frame %v", id))
		}
		bp.drop(f)
		f.cond.Fire()
	}
	if bp.remote != nil {
		bp.remote.Invalidate(id)
	}
}

// makeRoom evicts frames until the pool is within capacity.
func (bp *Pool) makeRoom(p *sim.Proc) error {
	for len(bp.frames) > bp.capacity {
		victim := bp.pickVictim()
		if victim == nil {
			return fmt.Errorf("buffer: pool exhausted (%d frames, all pinned)", len(bp.frames))
		}
		if err := bp.evict(p, victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim runs the clock algorithm over unpinned idle frames.
func (bp *Pool) pickVictim() *Frame {
	bp.compactClock()
	n := len(bp.clock)
	for sweep := 0; sweep < 2*n; sweep++ {
		if n == 0 {
			return nil
		}
		f := bp.clock[bp.hand%n]
		bp.hand++
		if f == nil || f.pins > 0 || f.state != frameIdle {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f
	}
	return nil
}

// compactClock squeezes the holes left by dropped frames out of the ring
// once they outnumber the live entries.
func (bp *Pool) compactClock() {
	if bp.holes <= len(bp.clock)/2 || bp.holes == 0 {
		return
	}
	live := bp.clock[:0]
	for _, f := range bp.clock {
		if f != nil {
			f.clockPos = len(live)
			live = append(live, f)
		}
	}
	bp.clock = live
	bp.holes = 0
	bp.hand = 0
}

// evict flushes f if dirty (WAL rule first) and removes it from the pool.
// If a remote cache is attached, the page bytes are offloaded there so a
// later miss can be served over the network instead of from disk.
func (bp *Pool) evict(p *sim.Proc, f *Frame) error {
	bp.stats.Evictions++
	if f.dirty {
		f.state = frameFlushing
		if bp.walFlush != nil {
			bp.walFlush(p, f.Data.LSN())
		}
		if err := bp.backend.WritePage(p, f.ID, f.Data); err != nil {
			f.state = frameIdle
			f.cond.Fire()
			return err
		}
		bp.stats.Flushes++
		f.dirty = false
		f.recLSN = 0
		f.state = frameIdle
	}
	if bp.remote != nil {
		bp.remote.Store(f.ID, f.Data)
	}
	bp.drop(f)
	f.cond.Fire()
	return nil
}

// drop removes f from the frame map and clock ring and recycles it. The
// frame's Signal stays valid, so latch waiters woken by a subsequent Fire
// simply re-check the frame map. A frame that still carries pins (a
// concurrent process pinned it before this drop, e.g. during PinNew's
// makeRoom) is unlinked but NOT recycled: the holder's later Unpin on the
// dead frame is harmless, whereas reusing the frame would corrupt another
// page's pin count.
func (bp *Pool) drop(f *Frame) {
	f.dead = true
	delete(bp.frames, f.ID)
	if f.clockPos >= 0 {
		bp.clock[f.clockPos] = nil
		bp.holes++
		f.clockPos = -1
	}
	if f.pins == 0 {
		f.nextFree = bp.free
		bp.free = f
	}
}

// FlushSegment writes back every dirty frame of seg and drops all of the
// segment's frames from the pool. Called before a segment is shipped so the
// durable bytes are complete ("flushed to disk", Sect. 4.3 Logging).
func (bp *Pool) FlushSegment(p *sim.Proc, seg storage.SegID) error {
	type target struct {
		f   *Frame
		gen uint64
	}
	var targets []target
	for id, f := range bp.frames {
		if id.Seg == seg {
			targets = append(targets, target{f, f.gen})
		}
	}
	// Write back in page order: each flush performs simulated disk I/O, so
	// the map-iteration order the targets were collected in would otherwise
	// leak into the virtual clock.
	sort.Slice(targets, func(i, j int) bool { return targets[i].f.ID.Page < targets[j].f.ID.Page })
	for _, t := range targets {
		f := t.f
		if f.dead || f.gen != t.gen {
			continue // evicted (and possibly recycled) while we worked
		}
		for f.state != frameIdle {
			f.cond.Wait(p)
			if f.dead || f.gen != t.gen {
				break
			}
		}
		if f.dead || f.gen != t.gen {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("buffer: FlushSegment %d: page %v still pinned", seg, f.ID)
		}
		if err := bp.evict(p, f); err != nil {
			return err
		}
	}
	return nil
}

// FlushDirtyBatch is the fuzzy checkpointer's flush walk: it advances a
// persistent cursor around the clock ring — independent of the eviction
// hand — writing back up to max dirty, unpinned, idle frames in place
// (frames stay resident; only their dirt is shed, under the WAL rule).
// done reports that the cursor completed a full lap of the ring, i.e.
// every frame present when the lap started has been visited once; the
// checkpointer sleeps between batches so foreground traffic runs ahead of
// the walk, and stops at the lap boundary rather than chasing pages the
// workload re-dirties behind it.
func (bp *Pool) FlushDirtyBatch(p *sim.Proc, max int) (flushed int, done bool, err error) {
	bp.compactClock()
	if bp.ckptSteps <= 0 || bp.ckptSteps > len(bp.clock) {
		bp.ckptSteps = len(bp.clock) // start a new lap over the current ring
	}
	for bp.ckptSteps > 0 {
		if len(bp.clock) == 0 {
			bp.ckptSteps = 0
			break
		}
		if flushed >= max {
			return flushed, false, nil
		}
		f := bp.clock[bp.ckptHand%len(bp.clock)]
		bp.ckptHand++
		bp.ckptSteps--
		if f == nil || !f.dirty || f.pins > 0 || f.state != frameIdle {
			continue
		}
		f.state = frameFlushing
		if bp.walFlush != nil {
			bp.walFlush(p, f.Data.LSN())
		}
		werr := bp.backend.WritePage(p, f.ID, f.Data)
		f.state = frameIdle
		f.cond.Fire()
		if werr != nil {
			return flushed, false, werr
		}
		bp.stats.Flushes++
		f.dirty = false
		f.recLSN = 0
		flushed++
	}
	return flushed, true, nil
}

// DirtyRecLSNs returns, per segment, the minimum nonzero recLSN over the
// still-dirty frames: the redo low-water mark contribution of each
// segment's unflushed pages. A pure memory scan — no simulated time is
// charged, and the map-order iteration is safe because min is
// order-independent.
func (bp *Pool) DirtyRecLSNs() map[storage.SegID]uint64 {
	var mins map[storage.SegID]uint64
	for _, f := range bp.frames {
		if !f.dirty || f.recLSN == 0 {
			continue
		}
		if mins == nil {
			mins = make(map[storage.SegID]uint64)
		}
		if cur, ok := mins[f.ID.Seg]; !ok || f.recLSN < cur {
			mins[f.ID.Seg] = f.recLSN
		}
	}
	return mins
}

// DropSegment discards all frames of seg without flushing (used after a
// segment's ownership moved away and old readers drained).
func (bp *Pool) DropSegment(seg storage.SegID) {
	var targets []*Frame
	for id, f := range bp.frames {
		if id.Seg == seg && f.pins == 0 && f.state == frameIdle {
			targets = append(targets, f)
		}
	}
	for _, f := range targets {
		bp.drop(f)
	}
}
