package table

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/wal"
)

// gatedFactory wraps memFactory so tests can park a tree install mid-flight:
// while blocked, every pager Write waits on the gate, freezing a commit
// inside its treePut exactly like a slow disk would.
type gatedFactory struct {
	inner   memFactory
	env     *sim.Env
	blocked bool
	gate    *sim.Signal
}

func newGatedFactory(env *sim.Env, segPages int) *gatedFactory {
	return &gatedFactory{
		inner: memFactory{pageSize: 512, segPages: segPages},
		env:   env,
		gate:  sim.NewSignal(env),
	}
}

func (f *gatedFactory) open() {
	f.blocked = false
	f.gate.Fire()
}

func (f *gatedFactory) NewSegment(p *sim.Proc) (*storage.Segment, error) {
	return f.inner.NewSegment(p)
}
func (f *gatedFactory) DropSegment(p *sim.Proc, id storage.SegID) { f.inner.DropSegment(p, id) }
func (f *gatedFactory) Pager(seg *storage.Segment) btree.Pager {
	return &gatedPager{Pager: f.inner.Pager(seg), f: f}
}

type gatedPager struct {
	btree.Pager
	f *gatedFactory
}

func (g *gatedPager) Write(p *sim.Proc, no storage.PageNo) (storage.Page, btree.Release, error) {
	for g.f.blocked {
		g.f.gate.Wait(p)
	}
	return g.Pager.Write(p, no)
}

// TestLockingScanSeesCommittedInstallingWrite parks an MVCC commit inside
// its tree install (committed timestamp assigned, no leaf yet) and runs a
// locking-mode scan over the range: the scan must deliver the committed
// write via the version store's committed-pending merge, exactly as
// snapshot-isolation scans do. Before the parity fix the record was
// invisible — the tree walk found no leaf and the locking path never
// consulted the store.
func TestLockingScanSeesCommittedInstallingWrite(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	oracle := cc.NewOracle()
	gf := newGatedFactory(env, 64)
	deps := Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, nullDevice{}),
		Factory:     gf,
		LockTimeout: time.Second,
		PageSize:    512,
	}
	pt := NewPartition(1, simpleSchema(), Logical, nil, nil, deps)

	var sawKeys []int64
	var sawVals []string
	env.Spawn("test", func(p *sim.Proc) {
		// Keys 1 and 3 are committed and installed normally.
		w := oracle.Begin(cc.SnapshotIsolation)
		for _, k := range []int64{1, 3} {
			if err := pt.Put(p, w, intKey(k), []byte(fmt.Sprintf("base-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Fatal(err)
		}
		// Key 2's writer commits, but its install parks on the gate.
		w2 := oracle.Begin(cc.SnapshotIsolation)
		if err := pt.Put(p, w2, intKey(2), []byte("installing")); err != nil {
			t.Fatal(err)
		}
		gf.blocked = true
		env.Spawn("committer", func(cp *sim.Proc) {
			if err := CommitTxn(cp, w2, pt); err != nil {
				t.Errorf("gated commit: %v", err)
			}
		})
		p.Sleep(time.Millisecond) // let the committer reach the gate
		if w2.State != cc.TxnCommitted {
			t.Fatal("writer not committed yet; the gate did not park the install")
		}
		// Model the decided-then-installing window of a distributed commit:
		// the fate is sealed (decision record durable) while the tree install
		// is still in flight. Without the settle the reader's snapshot would
		// be capped below the not-yet-durable commit and correctly miss it —
		// the parity property under test only applies to settled commits.
		oracle.SettleCommit(w2)

		r := oracle.Begin(cc.Locking)
		err := pt.Scan(p, r, nil, nil, func(k, v []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			sawKeys = append(sawKeys, d)
			sawVals = append(sawVals, string(v))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		deps.Locks.ReleaseAll(r)
		oracle.Abort(r)
		gf.open() // release the parked install and drain
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sawKeys) != 3 || sawKeys[0] != 1 || sawKeys[1] != 2 || sawKeys[2] != 3 {
		t.Fatalf("locking scan keys = %v, want [1 2 3] (committed-but-installing write missed)", sawKeys)
	}
	if sawVals[1] != "installing" {
		t.Fatalf("key 2 = %q, want %q", sawVals[1], "installing")
	}
}

// TestInstallParkedBehindSplitIsReHomed reproduces a bug the TPC-C chaos
// oracle found: a tree install that waits for a concurrent segment split's
// writer lock resumes against a mini-partition the split has narrowed below
// the key, stranding the record in a tree no read routes to. The install
// must detect the narrowed range and re-home the record.
func TestInstallParkedBehindSplitIsReHomed(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	oracle := cc.NewOracle()
	gf := newGatedFactory(env, 64)
	deps := Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, nullDevice{}),
		Factory:     gf,
		LockTimeout: time.Minute,
		PageSize:    512,
	}
	pt := NewPartition(1, simpleSchema(), Physiological, nil, nil, deps)

	const n = 40
	probe := intKey(n - 2) // upper half: the split moves its range away
	env.Spawn("load", func(p *sim.Proc) {
		w := oracle.Begin(cc.SnapshotIsolation)
		for i := int64(0); i < n; i++ {
			if i == n-2 {
				continue // the probe key arrives later, mid-split
			}
			if err := pt.Put(p, w, intKey(i), []byte("base")); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Fatal(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pt.Segments()) != 1 {
		t.Fatalf("want a single segment before the staged split, have %d", len(pt.Segments()))
	}

	// Stage the probe key, then park a split mid-surgery on the write gate;
	// the commit's install queues behind the split's writer lock and — when
	// the gate opens — resumes against the narrowed mini-partition.
	w := oracle.Begin(cc.SnapshotIsolation)
	env.Spawn("race", func(p *sim.Proc) {
		if err := pt.Put(p, w, probe, []byte("landed")); err != nil {
			t.Fatal(err)
		}
		gf.blocked = true
		seg0 := pt.Segments()[0]
		env.Spawn("splitter", func(sp *sim.Proc) {
			if err := pt.SplitSegment(sp, seg0); err != nil {
				t.Errorf("split: %v", err)
			}
		})
		env.Spawn("committer", func(cp *sim.Proc) {
			if err := CommitTxn(cp, w, pt); err != nil {
				t.Errorf("commit: %v", err)
			}
		})
		p.Sleep(time.Millisecond) // both parked: splitter on the gate, install on the lock
		gf.open()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pt.Segments()) < 2 {
		t.Fatalf("split did not happen: %d segments", len(pt.Segments()))
	}
	env.Spawn("check", func(p *sim.Proc) {
		r := oracle.Begin(cc.SnapshotIsolation)
		v, ok, err := pt.Get(p, r, probe)
		if err != nil || !ok || string(v) != "landed" {
			t.Errorf("probe key after racing split: %q ok=%v err=%v (stranded in a narrowed tree)", v, ok, err)
		}
		seen := 0
		if err := pt.Scan(p, r, nil, nil, func(k, _ []byte) bool {
			if string(k) == string(probe) {
				seen++
			}
			return true
		}); err != nil {
			t.Error(err)
		}
		if seen != 1 {
			t.Errorf("probe key seen %d times in scan, want 1", seen)
		}
		oracle.Abort(r)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLockingScanRefreshesStaleLeaf commits an update underneath a running
// locking-mode scan, after the scan's batched cursor copied the leaf but
// before it emitted the record: the scan must detect the stale copy via the
// version store and re-read the current committed leaf. Before the parity
// fix it served the pre-update value from the copy.
func TestLockingScanRefreshesStaleLeaf(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	oracle := cc.NewOracle()
	deps := Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, nullDevice{}),
		Factory:     &memFactory{pageSize: 512, segPages: 64},
		LockTimeout: time.Second,
		PageSize:    512,
		// Per-tuple CPU makes each emit a blocking point, so the writer can
		// land between the cursor's leaf copy and the emit of key 5.
		Compute:     func(p *sim.Proc, d time.Duration) { p.Sleep(d) },
		CPUPerTuple: time.Millisecond,
	}
	pt := NewPartition(1, simpleSchema(), Logical, nil, nil, deps)

	got := map[int64]string{}
	env.Spawn("load", func(p *sim.Proc) {
		w := oracle.Begin(cc.SnapshotIsolation)
		for i := int64(0); i < 10; i++ {
			if err := pt.Put(p, w, intKey(i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Fatal(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("scanner", func(p *sim.Proc) {
		r := oracle.Begin(cc.Locking)
		err := pt.Scan(p, r, nil, nil, func(k, v []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			got[d] = string(v)
			return true
		})
		if err != nil {
			t.Error(err)
		}
		deps.Locks.ReleaseAll(r)
		oracle.Abort(r)
	})
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // scan is past key 1, far from key 5
		w := oracle.Begin(cc.SnapshotIsolation)
		if err := pt.Put(p, w, intKey(5), []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("scan saw %d keys, want 10", len(got))
	}
	if got[5] != "v1" {
		t.Fatalf("key 5 = %q, want %q (stale batched leaf served to a locking scan)", got[5], "v1")
	}
}

// hookFactory wraps memFactory with a callback on every page access, so a
// test can park a chosen process at a chosen read or write, the way a slow
// disk under a small pool parks it.
type hookFactory struct {
	memFactory
	hook func(p *sim.Proc, seg storage.SegID, write bool)
}

func (f *hookFactory) Pager(seg *storage.Segment) btree.Pager {
	return &hookPager{Pager: f.memFactory.Pager(seg), f: f, seg: seg.ID}
}

type hookPager struct {
	btree.Pager
	f   *hookFactory
	seg storage.SegID
}

func (h *hookPager) Read(p *sim.Proc, no storage.PageNo) (storage.Page, btree.Release, error) {
	if h.f.hook != nil {
		h.f.hook(p, h.seg, false)
	}
	return h.Pager.Read(p, no)
}

func (h *hookPager) Write(p *sim.Proc, no storage.PageNo) (storage.Page, btree.Release, error) {
	if h.f.hook != nil {
		h.f.hook(p, h.seg, true)
	}
	return h.Pager.Write(p, no)
}

// TestReadersRacingASplitSeeEveryRowOnce reproduces a TPC-C rebalance failure
// ("order 4/2/154 missing"): a segment split removed the moved records from
// the old tree before it published the new mini-partition, and a Lookup routed
// once and then blocked in its leaf read. The split here parks in its delete
// loop after three deletes. Meanwhile a reader gets a moved key and scans the
// range, and must see every row exactly once; so must a Lookup and a scan that
// entered the old tree before the split and parked in their first read until
// then.
func TestReadersRacingASplitSeeEveryRowOnce(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	oracle := cc.NewOracle()
	hf := &hookFactory{memFactory: memFactory{pageSize: 512, segPages: 64}}
	deps := Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, nullDevice{}),
		Factory:     hf,
		LockTimeout: time.Second,
		PageSize:    512,
	}
	pt := NewPartition(1, simpleSchema(), Physiological, nil, nil, deps)
	const n = 40
	env.Spawn("load", func(p *sim.Proc) {
		w := oracle.Begin(cc.SnapshotIsolation)
		for i := int64(0); i < n; i++ {
			if err := pt.Put(p, w, intKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Fatal(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	seg0 := pt.Segments()[0]
	moved := intKey(n / 2) // the median: the first record the split moves

	scanOnce := func(p *sim.Proc, r *cc.Txn, when string) {
		seen := map[int64]int{}
		if err := pt.Scan(p, r, nil, nil, func(k, _ []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			seen[d]++
			return true
		}); err != nil {
			t.Errorf("%s: scan: %v", when, err)
		}
		for i := int64(0); i < n; i++ {
			if seen[i] != 1 {
				t.Errorf("%s: key %d seen %d times, want 1", when, i, seen[i])
			}
		}
	}
	lookup := func(p *sim.Proc, r *cc.Txn, when string) {
		if v, ok, err := pt.Get(p, r, moved); err != nil || !ok || string(v) != fmt.Sprintf("v%d", n/2) {
			t.Errorf("%s: moved key = %q ok=%v err=%v, want v%d", when, v, ok, err, n/2)
		}
	}

	parkEarly, parkSplit := sim.NewSignal(env), sim.NewSignal(env)
	early := map[*sim.Proc]bool{}
	var splitter *sim.Proc
	oldWrites := 0
	hf.hook = func(p *sim.Proc, seg storage.SegID, write bool) {
		switch {
		case early[p] && !write:
			delete(early, p) // park an early reader's first read only
			parkEarly.Wait(p)
		case p == splitter && write && seg == seg0.Seg.ID:
			if oldWrites++; oldWrites == 4 {
				parkSplit.Wait(p)
			}
		}
	}
	env.Spawn("early-lookup", func(p *sim.Proc) {
		early[p] = true
		lookup(p, oracle.Begin(cc.SnapshotIsolation), "lookup routed before the split")
	})
	env.Spawn("early-scan", func(p *sim.Proc) {
		early[p] = true
		scanOnce(p, oracle.Begin(cc.SnapshotIsolation), "scan begun before the split")
	})
	env.Spawn("splitter", func(p *sim.Proc) {
		splitter = p
		if err := pt.SplitSegment(p, seg0); err != nil {
			t.Errorf("split: %v", err)
		}
	})
	env.Spawn("mid-split", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // the early readers and the split are parked
		if oldWrites != 4 {
			t.Fatalf("split made %d writes to the old tree, want to be parked at the 4th", oldWrites)
		}
		r := oracle.Begin(cc.SnapshotIsolation)
		lookup(p, r, "mid-split")
		scanOnce(p, r, "mid-split")
		parkEarly.Fire() // they finish with the split still parked
		p.Sleep(time.Millisecond)
		parkSplit.Fire()
		p.Sleep(time.Millisecond)
		if len(pt.Segments()) != 2 {
			t.Errorf("after the split: %d segments, want 2", len(pt.Segments()))
		}
		scanOnce(p, oracle.Begin(cc.SnapshotIsolation), "after the split")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
