package cluster

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// TestCrashTornTailRecovered power-fails a node while its log tail holds
// unflushed bytes, leaving medium damage behind — a torn final frame, and a
// byte-complete frame with a flipped bit. RestartNode must CRC-detect the
// damage, truncate at the last valid record boundary, and recover every
// acknowledged commit; the surviving log must decode cleanly end to end.
func TestCrashTornTailRecovered(t *testing.T) {
	for _, tcase := range []struct {
		name string
		tear int
		flip int
	}{
		{"torn", 13, -1},
		{"bit-flip", 1 << 20, 7}, // tear beyond the frame: keeps it whole, flip corrupts it
	} {
		t.Run(tcase.name, func(t *testing.T) {
			tc := newTestCluster(t, table.Physiological, 2, 400)
			defer tc.env.Close()
			node := tc.c.Nodes[0]
			master := tc.c.Master

			expected := map[int64]string{}
			tc.run(t, func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					k := int64(i * 3 % 200) // keys on node 0's half
					s := master.Begin(p, cc.SnapshotIsolation, node)
					val := fmt.Sprintf("committed-%d", i)
					payload, _ := kvSchema().EncodeRow(table.Row{k, val})
					if err := s.Put(p, "kv", ik(k), payload); err != nil {
						t.Fatal(err)
					}
					if err := s.Commit(p); err != nil {
						t.Fatal(err)
					}
					expected[k] = val
				}
				// Leave an unflushed record on the log tail (an abort record
				// is appended without a force), then cut power with medium
				// damage in that region.
				s := master.Begin(p, cc.SnapshotIsolation, node)
				payload, _ := kvSchema().EncodeRow(table.Row{int64(7), "UNACKED"})
				if err := s.Put(p, "kv", ik(7), payload); err != nil {
					t.Fatal(err)
				}
				s.Abort(p)
				torn := tc.c.CrashNodeTorn(node, tcase.tear, tcase.flip)
				if torn == 0 {
					t.Fatal("crash left no torn bytes (no unflushed tail?)")
				}

				before := node.Log.TornDiscards
				if _, _, err := tc.c.RestartNode(p, node); err != nil {
					t.Fatalf("restart over damaged log tail: %v", err)
				}
				if node.Log.TornDiscards-before != int64(torn) {
					t.Fatalf("restart discarded %d tail bytes, want %d",
						node.Log.TornDiscards-before, torn)
				}
				if _, _, err := wholeLog(node.Log); err != nil {
					t.Fatalf("log not cleanly truncated: %v", err)
				}

				r := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
				for k, want := range expected {
					v, ok, err := r.Get(p, "kv", ik(k))
					if err != nil || !ok {
						t.Fatalf("key %d after torn-tail restart: ok=%v err=%v", k, ok, err)
					}
					row, _ := kvSchema().DecodeRow(v)
					if row[1].(string) != want {
						t.Fatalf("key %d = %q after restart, want %q", k, row[1], want)
					}
				}
				r.Abort(p)
			})
		})
	}
}

// TestSessionSetupAllocs pins the transaction-setup hot path: Begin must
// not allocate the session bookkeeping maps (they are lazy, built on first
// write or lock), so a read-only begin/abort cycle costs exactly the Txn
// and Session objects. A read-write session's read set must not allocate per
// read either.
func TestSessionSetupAllocs(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 100)
	defer tc.env.Close()
	master := tc.c.Master
	tc.run(t, func(p *sim.Proc) {
		// Warm up oracle map buckets and kernel pools.
		for i := 0; i < 16; i++ {
			master.Begin(p, cc.SnapshotIsolation, master.Node).Abort(p)
		}
		allocs := testing.AllocsPerRun(100, func() {
			s := master.Begin(p, cc.SnapshotIsolation, master.Node)
			s.Abort(p)
		})
		// One *cc.Txn + one *Session; the touched/lockNodes maps and the
		// lock-release bookkeeping must contribute nothing.
		if allocs > 2 {
			t.Fatalf("read-only begin/abort allocates %.1f objects, want <= 2", allocs)
		}
		// The commit path of a read-only transaction must be equally lean:
		// no participant map, no sort boxing.
		allocs = testing.AllocsPerRun(100, func() {
			s := master.Begin(p, cc.SnapshotIsolation, master.Node)
			if err := s.Commit(p); err != nil {
				t.Error(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("read-only begin/commit allocates %.1f objects, want <= 2", allocs)
		}
		// A read-write session — three gets, a locking read, a put, commit —
		// records its reads in a read set the master pools across sessions:
		// once warm, recording them allocates nothing.
		payload, _ := kvSchema().EncodeRow(table.Row{int64(0), "updated"})
		rw := func(record bool) {
			s := master.Begin(p, cc.SnapshotIsolation, master.Node)
			s.unrefreshable = !record
			for k := int64(10); k < 13; k++ {
				if _, _, err := s.Get(p, "kv", ik(k)); err != nil {
					t.Error(err)
				}
			}
			if _, _, err := s.GetForUpdate(p, "kv", ik(1)); err != nil {
				t.Error(err)
			}
			if err := s.Put(p, "kv", ik(1), payload); err != nil {
				t.Error(err)
			}
			if err := s.Commit(p); err != nil {
				t.Error(err)
			}
		}
		rw(true)
		allocs = testing.AllocsPerRun(100, func() { rw(true) })
		if unrecorded := testing.AllocsPerRun(100, func() { rw(false) }); allocs > unrecorded {
			t.Fatalf("read-write session allocates %.1f objects, %.1f without its read set: recording reads allocates", allocs, unrecorded)
		}
		// 46 measured, under the race detector too.
		if allocs > 50 {
			t.Fatalf("read-write session allocates %.1f objects, want <= 50", allocs)
		}
	})
}

// TestRemigrateWithLiveDualPointersSkipped pins the single-OldPart-generation
// constraint of replaceEntry: while an entry still carries dual pointers
// from an earlier move (old snapshots keep the old location readable), a new
// migration of the same range must be skipped — replacing the entry would
// drop the old-location fallback. Once the old pointer drains, the range
// moves normally.
func TestRemigrateWithLiveDualPointersSkipped(t *testing.T) {
	tc := newTestCluster(t, table.Logical, 4, 200)
	defer tc.env.Close()
	master := tc.c.Master
	tc.run(t, func(p *sim.Proc) {
		// Pin the watermark so the old-pointer cleanup cannot fire.
		oldReader := master.Oracle.Begin(cc.SnapshotIsolation)

		if err := master.MigrateRange(p, "kv", ik(0), ik(50), tc.c.Nodes[2]); err != nil {
			t.Fatalf("first migration: %v", err)
		}
		e, err := tc.tm.Route(ik(10))
		if err != nil {
			t.Fatal(err)
		}
		if e.Owner != tc.c.Nodes[2] || e.OldPart == nil {
			t.Fatalf("after move: owner=node %d, OldPart=%v — want node 2 with live dual pointers",
				e.Owner.ID, e.OldPart != nil)
		}
		firstPart, oldPart := e.Part, e.OldPart

		// Re-migrating the range while the dual pointers live must leave the
		// entry untouched (the fallback survives), not silently drop it.
		if err := master.MigrateRange(p, "kv", ik(0), ik(50), tc.c.Nodes[3]); err != nil {
			t.Fatalf("re-migration: %v", err)
		}
		if e.Part != firstPart || e.OldPart != oldPart || e.Owner != tc.c.Nodes[2] {
			t.Fatal("re-migration with live dual pointers replaced the entry")
		}
		// Both generations stay readable: a fresh snapshot reads the moved
		// copy, the pinned old snapshot still reads through the fallback.
		s := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		v, ok, err := s.Get(p, "kv", ik(10))
		if err != nil || !ok {
			t.Fatalf("moved key unreadable: ok=%v err=%v", ok, err)
		}
		if row, _ := kvSchema().DecodeRow(v); row[1].(string) != "val-000010" {
			t.Fatalf("moved key = %q", row[1])
		}
		s.Abort(p)

		// Drain the old snapshot; the cleanup retires the old pointer and
		// the range becomes movable again.
		master.Oracle.Abort(oldReader)
		for i := 0; i < 10 && e.OldPart != nil; i++ {
			p.Sleep(2 * time.Second)
		}
		if e.OldPart != nil {
			t.Fatal("old pointer never drained")
		}
		if err := master.MigrateRange(p, "kv", ik(0), ik(50), tc.c.Nodes[3]); err != nil {
			t.Fatalf("migration after drain: %v", err)
		}
		if e2, _ := tc.tm.Route(ik(10)); e2.Owner != tc.c.Nodes[3] {
			t.Fatalf("range did not move after the old pointer drained (owner=node %d)", e2.Owner.ID)
		}
	})
}
