package buffer

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// memBackend serves pages from in-memory segments, optionally charging a
// fixed latency per I/O, and counts operations.
type memBackend struct {
	segs    map[storage.SegID]*storage.Segment
	latency time.Duration
	reads   int
	writes  int
}

func newMemBackend() *memBackend {
	return &memBackend{segs: map[storage.SegID]*storage.Segment{}}
}

func (m *memBackend) addSegment(id storage.SegID, pageSize, pages int) *storage.Segment {
	s := storage.NewSegment(id, pageSize, pages)
	m.segs[id] = s
	return s
}

func (m *memBackend) ReadPage(p *sim.Proc, id storage.PageID, dst []byte) error {
	seg, ok := m.segs[id.Seg]
	if !ok {
		return fmt.Errorf("no segment %d", id.Seg)
	}
	if m.latency > 0 {
		p.Sleep(m.latency)
	}
	m.reads++
	copy(dst, seg.Page(id.Page))
	return nil
}

func (m *memBackend) WritePage(p *sim.Proc, id storage.PageID, src []byte) error {
	seg, ok := m.segs[id.Seg]
	if !ok {
		return fmt.Errorf("no segment %d", id.Seg)
	}
	if m.latency > 0 {
		p.Sleep(m.latency)
	}
	m.writes++
	copy(seg.Page(id.Page), src)
	return nil
}

func (m *memBackend) AllocPage(p *sim.Proc, seg storage.SegID) (storage.PageNo, error) {
	no, ok := m.segs[seg].AllocPage()
	if !ok {
		return 0, btree.ErrSegmentFull
	}
	return no, nil
}

func (m *memBackend) FreePage(p *sim.Proc, seg storage.SegID, no storage.PageNo) error {
	m.segs[seg].FreePage(no)
	return nil
}

func runSim(t *testing.T, fn func(env *sim.Env, p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	defer env.Close()
	env.Spawn("test", func(p *sim.Proc) { fn(env, p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func preparePage(t *testing.T, be *memBackend, seg storage.SegID, content string) storage.PageNo {
	t.Helper()
	no, ok := be.segs[seg].AllocPage()
	if !ok {
		t.Fatal("alloc failed")
	}
	pg := be.segs[seg].Page(no)
	pg.Init(storage.PageLeaf)
	pg.InsertCellAt(0, []byte(content))
	return no
}

func TestPinHitAvoidsSecondRead(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	no := preparePage(t, be, 1, "hello")
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		id := storage.PageID{Seg: 1, Page: no}
		f1, err := pool.Pin(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if string(f1.Data.Cell(0)) != "hello" {
			t.Fatalf("cell = %q", f1.Data.Cell(0))
		}
		pool.Unpin(f1, false)
		f2, err := pool.Pin(p, id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f2, false)
		if be.reads != 1 {
			t.Fatalf("reads = %d, want 1", be.reads)
		}
		st := pool.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestEvictionWritesBackDirty(t *testing.T) {
	be := newMemBackend()
	seg := be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 20; i++ {
		nos = append(nos, preparePage(t, be, 1, fmt.Sprintf("page-%02d", i)))
	}
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		// Dirty page 0.
		f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: nos[0]})
		if err != nil {
			t.Fatal(err)
		}
		f.Data.ReplaceCellAt(0, []byte("DIRTY!!!"))
		pool.Unpin(f, true)
		// Touch enough pages to force page 0 out.
		for _, no := range nos[1:] {
			g, err := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(g, false)
		}
		if string(seg.Page(nos[0]).Cell(0)) != "DIRTY!!!" {
			t.Fatal("dirty page not written back on eviction")
		}
		if be.writes == 0 {
			t.Fatal("no write-backs recorded")
		}
	})
}

func TestWALRuleInvokedBeforeFlush(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 12; i++ {
		nos = append(nos, preparePage(t, be, 1, "x"))
	}
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		var flushedTo uint64
		pool.SetWALFlush(func(_ *sim.Proc, lsn uint64) { flushedTo = lsn })
		f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: nos[0]})
		if err != nil {
			t.Fatal(err)
		}
		f.Data.SetLSN(777)
		pool.Unpin(f, true)
		for _, no := range nos[1:] {
			g, _ := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			pool.Unpin(g, false)
		}
		if flushedTo != 777 {
			t.Fatalf("WAL flushed to %d, want 777", flushedTo)
		}
	})
}

func TestLatchWaitOnConcurrentFetch(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	no := preparePage(t, be, 1, "slow")
	be.latency = 10 * time.Millisecond
	env := sim.NewEnv(1)
	defer env.Close()
	pool := NewPool(env, be, 256, 8)
	id := storage.PageID{Seg: 1, Page: no}
	done := 0
	for i := 0; i < 3; i++ {
		env.Spawn("reader", func(p *sim.Proc) {
			f, err := pool.Pin(p, id)
			if err != nil {
				t.Error(err)
				return
			}
			pool.Unpin(f, false)
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if be.reads != 1 {
		t.Fatalf("reads = %d, want 1 (latch waiters should reuse the fetch)", be.reads)
	}
	if pool.Stats().LatchWaits != 2 {
		t.Fatalf("latch waits = %d, want 2", pool.Stats().LatchWaits)
	}
}

func TestFlushSegmentMakesDurable(t *testing.T) {
	be := newMemBackend()
	seg := be.addSegment(1, 256, 16)
	no := preparePage(t, be, 1, "before")
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		f, _ := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
		f.Data.ReplaceCellAt(0, []byte("after!"))
		pool.Unpin(f, true)
		if string(seg.Page(no).Cell(0)) != "before" {
			t.Fatal("write-through happened before flush")
		}
		if err := pool.FlushSegment(p, 1); err != nil {
			t.Fatal(err)
		}
		if string(seg.Page(no).Cell(0)) != "after!" {
			t.Fatal("flush did not persist")
		}
		if pool.InUse() != 0 {
			t.Fatalf("frames remain after FlushSegment: %d", pool.InUse())
		}
	})
}

func TestPoolExhaustionErrors(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 12; i++ {
		nos = append(nos, preparePage(t, be, 1, "x"))
	}
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		var frames []*Frame
		var err error
		for _, no := range nos {
			var f *Frame
			f, err = pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			if err != nil {
				break
			}
			frames = append(frames, f)
		}
		if err == nil {
			t.Fatal("pinning beyond capacity should fail")
		}
		for _, f := range frames {
			pool.Unpin(f, false)
		}
	})
}

func TestBTreeOverBufferPool(t *testing.T) {
	be := newMemBackend()
	be.addSegment(5, 512, 256)
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 512, 32)
		pager := SegPager{Pool: pool, Allocator: be, Seg: 5}
		tr := btree.New(pager, 0, nil)
		const n = 500
		for i := 0; i < n; i++ {
			if _, err := tr.Put(p, keycodec.Int64Key(int64(i)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Validate(p); err != nil {
			t.Fatal(err)
		}
		if c, _ := tr.Count(p); c != n {
			t.Fatalf("count = %d", c)
		}
		// Everything must survive a full write-back lap + reload through the
		// pool: the checkpointer's flush walk, driven until it reports done.
		for done := false; !done; {
			var err error
			if _, done, err = pool.FlushDirtyBatch(p, 8); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 37 {
			v, ok, err := tr.Get(p, keycodec.Int64Key(int64(i)))
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("get %d after flush = %q %v %v", i, v, ok, err)
			}
		}
	})
}

func TestRemoteCacheServesEvictedPages(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	net.AddNode(1)
	net.AddNode(2)
	be := newMemBackend()
	be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 20; i++ {
		nos = append(nos, preparePage(t, be, 1, fmt.Sprintf("pg%d", i)))
	}
	pool := NewPool(env, be, 256, 8)
	remote := NewRemote(net, 1, 2, 64)
	pool.AttachRemote(remote)
	env.Spawn("reader", func(p *sim.Proc) {
		// First pass: fill and overflow the pool, pushing evictees remote.
		for _, no := range nos {
			f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			if err != nil {
				t.Error(err)
				return
			}
			pool.Unpin(f, false)
		}
		missesBefore := pool.Stats().Misses
		readsBefore := be.reads
		// Second pass over early pages: should hit the remote cache, not disk.
		for _, no := range nos[:6] {
			f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			if err != nil {
				t.Error(err)
				return
			}
			if string(f.Data.Cell(0)) == "" {
				t.Error("empty page from remote cache")
			}
			pool.Unpin(f, false)
		}
		if pool.Stats().RemoteHits == 0 {
			t.Error("no remote hits")
		}
		if be.reads != readsBefore {
			t.Errorf("disk reads grew by %d despite remote cache", be.reads-readsBefore)
		}
		_ = missesBefore
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteInvalidationOnDirty(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	net.AddNode(1)
	net.AddNode(2)
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	no := preparePage(t, be, 1, "v1")
	pool := NewPool(env, be, 256, 8)
	remote := NewRemote(net, 1, 2, 16)
	pool.AttachRemote(remote)
	env.Spawn("writer", func(p *sim.Proc) {
		id := storage.PageID{Seg: 1, Page: no}
		remote.Store(id, be.segs[1].Page(no)) // simulate an earlier offload
		f, err := pool.Pin(p, id)
		if err != nil {
			t.Error(err)
			return
		}
		f.Data.ReplaceCellAt(0, []byte("v2"))
		pool.Unpin(f, true)
		if remote.Size() != 0 {
			t.Error("stale page left in remote cache after dirtying")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// clockLive counts non-hole entries in the clock ring.
func clockLive(bp *Pool) int {
	n := 0
	for _, f := range bp.clock {
		if f != nil {
			n++
		}
	}
	return n
}

func TestPinFailureUnlinksFrameFromClock(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		// Backend read failure: segment 99 does not exist.
		if _, err := pool.Pin(p, storage.PageID{Seg: 99, Page: 0}); err == nil {
			t.Fatal("pin of missing segment should fail")
		}
		if pool.InUse() != 0 {
			t.Fatalf("frame map holds %d frames after failed pin", pool.InUse())
		}
		if n := clockLive(pool); n != 0 {
			t.Fatalf("clock ring holds %d frames after failed pin", n)
		}
	})
}

func TestEvictionUnderPinFailureLeavesCleanClock(t *testing.T) {
	// Regression: a frame whose makeRoom fails (pool exhausted) used to stay
	// in the clock ring as a dead entry until the hand happened to pass it.
	be := newMemBackend()
	be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 12; i++ {
		nos = append(nos, preparePage(t, be, 1, "x"))
	}
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		var held []*Frame
		for _, no := range nos[:8] {
			f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, f)
		}
		// Every extra pin must fail (all frames pinned) without leaving a
		// dead frame behind in the map or the ring.
		for i := 8; i < 11; i++ {
			if _, err := pool.Pin(p, storage.PageID{Seg: 1, Page: nos[i]}); err == nil {
				t.Fatal("pin beyond capacity should fail")
			}
			if pool.InUse() != 8 {
				t.Fatalf("frame map holds %d frames, want 8", pool.InUse())
			}
			if n := clockLive(pool); n != 8 {
				t.Fatalf("clock ring holds %d live frames, want 8", n)
			}
		}
		// After releasing a pin the pool must recover.
		pool.Unpin(held[0], false)
		f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: nos[11]})
		if err != nil {
			t.Fatalf("pin after unpin: %v", err)
		}
		pool.Unpin(f, false)
		for _, g := range held[1:] {
			pool.Unpin(g, false)
		}
	})
}

func TestEvictedFramesAreRecycled(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 64)
	var nos []storage.PageNo
	for i := 0; i < 40; i++ {
		nos = append(nos, preparePage(t, be, 1, "x"))
	}
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		for pass := 0; pass < 3; pass++ {
			for _, no := range nos {
				f, err := pool.Pin(p, storage.PageID{Seg: 1, Page: no})
				if err != nil {
					t.Fatal(err)
				}
				pool.Unpin(f, false)
			}
		}
		st := pool.Stats()
		if st.FrameAllocs > 9 {
			t.Fatalf("allocated %d frames for a capacity-8 pool", st.FrameAllocs)
		}
		if st.FrameReuses == 0 {
			t.Fatal("no frame reuses despite heavy eviction")
		}
	})
}

func TestPinHitZeroAlloc(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	no := preparePage(t, be, 1, "hot")
	runSim(t, func(env *sim.Env, p *sim.Proc) {
		pool := NewPool(env, be, 256, 8)
		id := storage.PageID{Seg: 1, Page: no}
		f, err := pool.Pin(p, id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, false)
		// A buffer hit of a resident idle frame never blocks, so it is safe
		// to measure inside the simulation process.
		allocs := testing.AllocsPerRun(100, func() {
			g, err := pool.Pin(p, id)
			if err != nil {
				t.Error(err)
				return
			}
			pool.Unpin(g, false)
		})
		if allocs != 0 {
			t.Fatalf("buffer-hit Pin/Unpin allocates %v objects/op, want 0", allocs)
		}
	})
}

// TestPinNewOverStaleCopyOfFreedPage: a reader parked in Pin on a page whose
// tree frees it meanwhile reloads the page when it wakes, notices the tree
// changed and walks away — leaving a clean, unpinned copy of a freed page in
// the pool. When the segment hands that page number out again, PinNew must
// take it over (waiting out a reload still in flight), not fail the
// allocation; a copy somebody still pins or has dirtied is a double
// allocation and still fails.
func TestPinNewOverStaleCopyOfFreedPage(t *testing.T) {
	be := newMemBackend()
	be.addSegment(1, 256, 8)
	no := preparePage(t, be, 1, "stale")
	be.latency = 10 * time.Millisecond
	env := sim.NewEnv(1)
	defer env.Close()
	pool := NewPool(env, be, 256, 8)
	sp := SegPager{Pool: pool, Seg: 1, Allocator: be}
	id := storage.PageID{Seg: 1, Page: no}
	env.Spawn("reader", func(p *sim.Proc) { // the stale reader: loads, looks, leaves
		f, err := pool.Pin(p, id)
		if err != nil {
			t.Error(err)
			return
		}
		pool.Unpin(f, false)
	})
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // the reader's load is in flight
		be.segs[1].FreePage(no)
		got, pg, rel, err := sp.Alloc(p)
		if err != nil {
			t.Errorf("alloc over a stale copy: %v", err)
			return
		}
		if got != no || pg.NumSlots() != 0 {
			t.Errorf("alloc returned page %d with %d slots, want the freed page %d, zeroed", got, pg.NumSlots(), no)
		}
		if p.Now() < 10*time.Millisecond {
			t.Errorf("alloc returned at %v, before the stale load finished", p.Now())
		}
		// The fresh frame is pinned and dirty: a second allocation of the
		// same page is refused.
		if _, err := pool.PinNew(p, id); err == nil {
			t.Error("PinNew over a pinned, dirty frame succeeded")
		}
		rel()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
