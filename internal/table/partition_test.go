package table

import (
	"bytes"
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

// memFactory is a zero-cost in-memory PagerFactory for table-layer tests.
type memFactory struct {
	nextID   storage.SegID
	pageSize int
	segPages int
	dropped  []storage.SegID
}

func (f *memFactory) NewSegment(*sim.Proc) (*storage.Segment, error) {
	f.nextID++
	return storage.NewSegment(f.nextID, f.pageSize, f.segPages), nil
}

func (f *memFactory) Pager(seg *storage.Segment) btree.Pager { return btree.MemPager{Seg: seg} }

func (f *memFactory) DropSegment(_ *sim.Proc, id storage.SegID) { f.dropped = append(f.dropped, id) }

type nullDevice struct{}

func (nullDevice) Append(*sim.Proc, int64) {}

type fixture struct {
	env    *sim.Env
	oracle *cc.Oracle
	deps   Deps
}

func newFixture(segPages int) *fixture {
	env := sim.NewEnv(1)
	oracle := cc.NewOracle()
	deps := Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, nullDevice{}),
		Factory:     &memFactory{pageSize: 512, segPages: segPages},
		LockTimeout: time.Second,
		PageSize:    512,
	}
	return &fixture{env: env, oracle: oracle, deps: deps}
}

func (fx *fixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	fx.env.Spawn("test", fn)
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func intKey(v int64) []byte { return keycodec.Int64Key(v) }

func simpleSchema() *Schema {
	return &Schema{ID: 1, Name: "t", Columns: []Column{{"k", ColInt64}, {"v", ColString}}, KeyCols: 1}
}

func newPart(fx *fixture, scheme Scheme) *Partition {
	return NewPartition(1, simpleSchema(), scheme, nil, nil, fx.deps)
}

func TestMVCCPutGetCommit(t *testing.T) {
	for _, scheme := range []Scheme{Physical, Logical, Physiological} {
		t.Run(scheme.String(), func(t *testing.T) {
			fx := newFixture(64)
			defer fx.env.Close()
			pt := newPart(fx, scheme)
			fx.run(t, func(p *sim.Proc) {
				w := fx.oracle.Begin(cc.SnapshotIsolation)
				if err := pt.Put(p, w, intKey(1), []byte("hello")); err != nil {
					t.Fatal(err)
				}
				// Own uncommitted write visible to self.
				if v, ok, _ := pt.Get(p, w, intKey(1)); !ok || string(v) != "hello" {
					t.Fatalf("self-read = %q %v", v, ok)
				}
				// Invisible to others.
				r := fx.oracle.Begin(cc.SnapshotIsolation)
				if _, ok, _ := pt.Get(p, r, intKey(1)); ok {
					t.Fatal("uncommitted write visible")
				}
				if err := CommitTxn(p, w, pt); err != nil {
					t.Fatal(err)
				}
				// Still invisible to the old snapshot.
				if _, ok, _ := pt.Get(p, r, intKey(1)); ok {
					t.Fatal("commit leaked into older snapshot")
				}
				// Visible to a new one.
				r2 := fx.oracle.Begin(cc.SnapshotIsolation)
				if v, ok, _ := pt.Get(p, r2, intKey(1)); !ok || string(v) != "hello" {
					t.Fatalf("post-commit read = %q %v", v, ok)
				}
			})
		})
	}
}

func TestMVCCUpdatePreservesOldVersionForReader(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(7), []byte("v1"))
		CommitTxn(p, w, pt)

		reader := fx.oracle.Begin(cc.SnapshotIsolation)
		w2 := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w2, intKey(7), []byte("v2"))
		CommitTxn(p, w2, pt)

		if v, ok, _ := pt.Get(p, reader, intKey(7)); !ok || string(v) != "v1" {
			t.Fatalf("reader = %q %v, want v1", v, ok)
		}
		late := fx.oracle.Begin(cc.SnapshotIsolation)
		if v, ok, _ := pt.Get(p, late, intKey(7)); !ok || string(v) != "v2" {
			t.Fatalf("late = %q %v, want v2", v, ok)
		}
	})
}

func TestMVCCAbortDiscards(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(1), []byte("x"))
		AbortTxn(p, w, pt)
		r := fx.oracle.Begin(cc.SnapshotIsolation)
		if _, ok, _ := pt.Get(p, r, intKey(1)); ok {
			t.Fatal("aborted write visible")
		}
		if n, _ := pt.RecordCount(p); n != 0 {
			t.Fatalf("count = %d", n)
		}
	})
}

func TestMVCCDeleteAndVacuum(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(1), []byte("x"))
		CommitTxn(p, w, pt)

		oldReader := fx.oracle.Begin(cc.SnapshotIsolation)
		d := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Delete(p, d, intKey(1))
		CommitTxn(p, d, pt)

		// Old reader still sees the record; new one does not.
		if v, ok, _ := pt.Get(p, oldReader, intKey(1)); !ok || string(v) != "x" {
			t.Fatalf("old reader = %q %v", v, ok)
		}
		late := fx.oracle.Begin(cc.SnapshotIsolation)
		if _, ok, _ := pt.Get(p, late, intKey(1)); ok {
			t.Fatal("deleted record visible to new txn")
		}
		// Vacuum with the old reader active keeps the tombstone.
		if n, _ := pt.Vacuum(p, fx.oracle.Watermark()); n != 0 {
			t.Fatal("vacuum removed a tombstone an active snapshot may need")
		}
		fx.oracle.Abort(oldReader)
		fx.oracle.Abort(late)
		if n, _ := pt.Vacuum(p, fx.oracle.Watermark()); n != 1 {
			t.Fatalf("vacuum removed %d tombstones, want 1", n)
		}
	})
}

func TestMVCCWriteConflict(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(1), []byte("v0"))
		CommitTxn(p, w, pt)

		t1 := fx.oracle.Begin(cc.SnapshotIsolation)
		t2 := fx.oracle.Begin(cc.SnapshotIsolation)
		if err := pt.Put(p, t1, intKey(1), []byte("t1")); err != nil {
			t.Fatal(err)
		}
		if err := CommitTxn(p, t1, pt); err != nil {
			t.Fatal(err)
		}
		err := pt.Put(p, t2, intKey(1), []byte("t2"))
		if err != cc.ErrWriteConflict {
			t.Fatalf("err = %v, want write conflict", err)
		}
		AbortTxn(p, t2, pt)
	})
}

func TestScanVisibilityAndOrder(t *testing.T) {
	for _, scheme := range []Scheme{Logical, Physiological} {
		t.Run(scheme.String(), func(t *testing.T) {
			fx := newFixture(64)
			defer fx.env.Close()
			pt := newPart(fx, scheme)
			fx.run(t, func(p *sim.Proc) {
				w := fx.oracle.Begin(cc.SnapshotIsolation)
				for i := 0; i < 50; i++ {
					pt.Put(p, w, intKey(int64(i)), []byte(fmt.Sprintf("v%d", i)))
				}
				CommitTxn(p, w, pt)
				// Delete evens; update some odds; leave both uncommitted.
				u := fx.oracle.Begin(cc.SnapshotIsolation)
				pt.Delete(p, u, intKey(4))
				pt.Put(p, u, intKey(5), []byte("changed"))

				r := fx.oracle.Begin(cc.SnapshotIsolation)
				var keys []int64
				err := pt.Scan(p, r, intKey(0), intKey(10), func(k, v []byte) bool {
					d, _, _ := keycodec.DecodeInt64(k)
					keys = append(keys, d)
					if d == 5 && string(v) != "v5" {
						t.Errorf("key 5 = %q, want v5 (uncommitted change leaked)", v)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != 10 {
					t.Fatalf("scan saw %d keys, want 10: %v", len(keys), keys)
				}
				for i, k := range keys {
					if k != int64(i) {
						t.Fatalf("scan order wrong: %v", keys)
					}
				}
				AbortTxn(p, u, pt)
			})
		})
	}
}

func TestLockingModeBlocksConflictingWrite(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Logical)
	var secondDone time.Duration
	fx.env.Spawn("t1", func(p *sim.Proc) {
		txn := fx.oracle.Begin(cc.Locking)
		if err := pt.Put(p, txn, intKey(1), []byte("a")); err != nil {
			t.Error(err)
		}
		p.Sleep(3 * time.Second)
		if err := CommitTxn(p, txn, pt); err != nil {
			t.Error(err)
		}
	})
	fx.env.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		txn := fx.oracle.Begin(cc.Locking)
		fx.deps.LockTimeout = time.Minute
		txn2deps := pt.deps
		txn2deps.LockTimeout = time.Minute
		pt.deps = txn2deps
		if err := pt.Put(p, txn, intKey(1), []byte("b")); err != nil {
			t.Error(err)
		}
		secondDone = p.Now()
		CommitTxn(p, txn, pt)
	})
	if err := fx.env.Run(); err != nil {
		t.Fatal(err)
	}
	if secondDone < 3*time.Second {
		t.Fatalf("conflicting write finished at %v, want >= 3s", secondDone)
	}
	// Final value is t2's.
	fx.env.Spawn("check", func(p *sim.Proc) {
		r := fx.oracle.Begin(cc.Locking)
		if v, ok, _ := pt.Get(p, r, intKey(1)); !ok || string(v) != "b" {
			t.Errorf("final = %q %v", v, ok)
		}
		fx.deps.Locks.ReleaseAll(r)
		fx.oracle.Abort(r)
	})
	fx.env.Run()
}

func TestLockingAbortRestoresOldValue(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Logical)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.Locking)
		pt.Put(p, w, intKey(1), []byte("orig"))
		CommitTxn(p, w, pt)

		bad := fx.oracle.Begin(cc.Locking)
		pt.Put(p, bad, intKey(1), []byte("scribble"))
		pt.Delete(p, bad, intKey(1))
		AbortTxn(p, bad, pt)

		r := fx.oracle.Begin(cc.Locking)
		if v, ok, _ := pt.Get(p, r, intKey(1)); !ok || string(v) != "orig" {
			t.Fatalf("after abort = %q %v, want orig", v, ok)
		}
		fx.deps.Locks.ReleaseAll(r)
	})
}

func TestPhysiologicalSegmentSplitOnOverflow(t *testing.T) {
	fx := newFixture(16) // tiny segments: 16 pages of 512 B
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		const n = 300
		for i := 0; i < n; i++ {
			w := fx.oracle.Begin(cc.SnapshotIsolation)
			if err := pt.Put(p, w, intKey(int64(i)), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
				t.Fatal(err)
			}
			if err := CommitTxn(p, w, pt); err != nil {
				t.Fatal(err)
			}
		}
		if len(pt.Segments()) < 2 {
			t.Fatalf("expected splits, have %d segments", len(pt.Segments()))
		}
		// Ranges must tile the key space without overlap.
		segs := pt.Segments()
		for i := 1; i < len(segs); i++ {
			if !bytes.Equal(segs[i-1].High, segs[i].Low) {
				t.Fatalf("segment ranges not contiguous at %d", i)
			}
		}
		if got, _ := pt.RecordCount(p); got != n {
			t.Fatalf("count = %d, want %d", got, n)
		}
		// Every record still readable.
		r := fx.oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < n; i += 17 {
			if _, ok, err := pt.Get(p, r, intKey(int64(i))); !ok || err != nil {
				t.Fatalf("get %d after splits: %v %v", i, ok, err)
			}
		}
	})
}

func TestSpanningPartitionGrowsSegments(t *testing.T) {
	fx := newFixture(16)
	defer fx.env.Close()
	pt := newPart(fx, Logical)
	fx.run(t, func(p *sim.Proc) {
		const n = 400
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < n; i++ {
			if err := pt.Put(p, w, intKey(int64(i)), bytes.Repeat([]byte{1}, 40)); err != nil {
				t.Fatal(err)
			}
		}
		if err := CommitTxn(p, w, pt); err != nil {
			t.Fatal(err)
		}
		if len(pt.Segments()) < 2 {
			t.Fatalf("spanning partition did not grow: %d segments", len(pt.Segments()))
		}
		if got, _ := pt.RecordCount(p); got != n {
			t.Fatalf("count = %d", got)
		}
	})
}

func TestDetachAdoptMovesMiniPartition(t *testing.T) {
	fx := newFixture(16)
	defer fx.env.Close()
	schema := simpleSchema()
	src := NewPartition(1, schema, Physiological, nil, intKey(100), fx.deps)
	dst := NewPartition(2, schema, Physiological, intKey(100), nil, fx.deps)
	fx.run(t, func(p *sim.Proc) {
		// Load keys 0..99 into src (it will split into multiple segments).
		for i := 0; i < 100; i++ {
			w := fx.oracle.Begin(cc.SnapshotIsolation)
			pt := src
			if err := pt.Put(p, w, intKey(int64(i)), bytes.Repeat([]byte{2}, 120)); err != nil {
				t.Fatal(err)
			}
			CommitTxn(p, w, pt)
		}
		if len(src.Segments()) < 2 {
			t.Fatalf("need >= 2 segments, have %d", len(src.Segments()))
		}
		oldReader := fx.oracle.Begin(cc.SnapshotIsolation)

		// Move the last mini-partition to dst (clone = shipped copy).
		h := src.Segments()[len(src.Segments())-1]
		movedLow := h.Low
		moveTS := fx.oracle.Watermark() // any ts >= oldReader.Begin works
		clone := h.Seg.Clone(h.Seg.ID + 1000)
		if err := src.DetachSegment(h, fx.deps.Oracle.Begin(cc.SnapshotIsolation).Begin); err != nil {
			t.Fatal(err)
		}
		_ = moveTS
		if _, err := dst.AdoptSegment(p, clone, nil); err != nil {
			t.Fatal(err)
		}

		// New transactions read the moved keys at dst.
		probe, _, _ := keycodec.DecodeInt64(movedLow)
		r := fx.oracle.Begin(cc.SnapshotIsolation)
		if _, ok, err := dst.Get(p, r, intKey(probe)); !ok || err != nil {
			t.Fatalf("dst get = %v %v", ok, err)
		}
		// ...and writes at dst succeed.
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		if err := dst.Put(p, w, intKey(probe), []byte("updated-at-dst")); err != nil {
			t.Fatal(err)
		}
		CommitTxn(p, w, dst)

		// Writes of moved keys at src are refused.
		w2 := fx.oracle.Begin(cc.SnapshotIsolation)
		err := src.Put(p, w2, intKey(probe), []byte("stale"))
		if _, ok := err.(ErrNotOwned); !ok {
			t.Fatalf("src write err = %v, want ErrNotOwned", err)
		}
		AbortTxn(p, w2, src)

		// The pre-move reader still reads the key at src (ghost).
		if v, ok, err := src.Get(p, oldReader, intKey(probe)); !ok || err != nil || string(v) == "updated-at-dst" {
			t.Fatalf("ghost read = %q %v %v", v, ok, err)
		}
		// Full scan at src for the old reader still sees all 100 records.
		n := 0
		if err := src.Scan(p, oldReader, nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 100 {
			t.Fatalf("old reader scan saw %d records, want 100", n)
		}

		// Drop the ghost once the old reader is done.
		fx.oracle.Abort(oldReader)
		if err := src.DropGhost(p, h.Seg.ID); err != nil {
			t.Fatal(err)
		}
		if src.Ghosts() != 0 {
			t.Fatal("ghost not dropped")
		}
	})
}

func TestRecoveryRoundTripThroughPartition(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(1), []byte("v1"))
		pt.Put(p, w, intKey(2), []byte("v2"))
		CommitTxn(p, w, pt)
		d := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Delete(p, d, intKey(2))
		CommitTxn(p, d, pt)

		// Rebuild a fresh partition from the log.
		fresh := NewPartition(1, simpleSchema(), Physiological, nil, nil, fx.deps)
		_, _, err := wal.Recover(p, fx.deps.Log.Iter(), map[uint64]wal.Target{1: fresh})
		if err != nil {
			t.Fatal(err)
		}
		r := fx.oracle.Begin(cc.SnapshotIsolation)
		if v, ok, _ := fresh.Get(p, r, intKey(1)); !ok || string(v) != "v1" {
			t.Fatalf("recovered k1 = %q %v", v, ok)
		}
		if _, ok, _ := fresh.Get(p, r, intKey(2)); ok {
			t.Fatal("recovered partition resurrected deleted key")
		}
	})
}

func TestStorageBytesGrowWithVersions(t *testing.T) {
	fx := newFixture(64)
	defer fx.env.Close()
	pt := newPart(fx, Physiological)
	fx.run(t, func(p *sim.Proc) {
		w := fx.oracle.Begin(cc.SnapshotIsolation)
		pt.Put(p, w, intKey(1), bytes.Repeat([]byte{1}, 100))
		CommitTxn(p, w, pt)
		base := pt.StorageBytes()
		// Hold a reader so versions are retained, then update repeatedly.
		reader := fx.oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < 10; i++ {
			u := fx.oracle.Begin(cc.SnapshotIsolation)
			pt.Put(p, u, intKey(1), bytes.Repeat([]byte{byte(i)}, 100))
			CommitTxn(p, u, pt)
		}
		if pt.StorageBytes() <= base {
			t.Fatalf("storage did not grow with retained versions: %d <= %d", pt.StorageBytes(), base)
		}
		fx.oracle.Abort(reader)
		pt.Vacuum(p, fx.oracle.Watermark())
		if pt.Store.VersionBytes() != 0 {
			t.Fatalf("version bytes after vacuum = %d", pt.Store.VersionBytes())
		}
	})
}
