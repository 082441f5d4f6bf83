package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// TestNodeCrashRecovery simulates a node failure after a burst of committed
// (and one uncommitted) transactions: the node's volatile state is discarded
// and its partitions are rebuilt from the write-ahead log. Every committed
// write must reappear; the in-flight transaction must not.
func TestNodeCrashRecovery(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 400)
	defer tc.env.Close()
	node := tc.c.Nodes[0]
	master := tc.c.Master

	expected := map[int64]string{}
	tc.run(t, func(p *sim.Proc) {
		// Committed updates.
		for i := 0; i < 60; i++ {
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
		// One transaction that never commits (its effects must be lost or
		// rolled back by recovery).
		loser := master.Begin(p, cc.SnapshotIsolation, node)
		payload, _ := kvSchema().EncodeRow(table.Row{int64(7), "UNCOMMITTED"})
		if err := loser.Put(p, "kv", ik(7), payload); err != nil {
			t.Fatal(err)
		}
		// Crash: the node loses everything volatile. Rebuild each
		// partition from scratch and replay the log.
		recovered := map[uint64]wal.Target{}
		fresh := map[table.PartID]*table.Partition{}
		for id, pt := range node.Parts {
			np := table.NewPartition(id, pt.Schema, pt.Scheme, pt.Low, pt.High, node.Deps())
			recovered[uint64(id)] = np
			fresh[id] = np
		}
		redone, undone, err := wal.Recover(p, node.Log.Iter(), recovered)
		if err != nil {
			t.Fatal(err)
		}
		if redone == 0 {
			t.Fatal("recovery redid nothing")
		}
		t.Logf("recovery: %d redone, %d undone", redone, undone)

		// Verify the recovered partitions against the committed state.
		r := master.Oracle.Begin(cc.SnapshotIsolation)
		defer master.Oracle.Abort(r)
		for k, want := range expected {
			var got string
			found := false
			for _, np := range fresh {
				raw, ok, err := np.Get(p, r, ik(k))
				if err != nil {
					if _, no := err.(table.ErrNotOwned); no {
						continue
					}
					t.Fatal(err)
				}
				if ok {
					row, _ := kvSchema().DecodeRow(raw)
					got = row[1].(string)
					found = true
					break
				}
			}
			if !found || got != want {
				t.Fatalf("key %d after recovery = %q (found=%v), want %q", k, got, found, want)
			}
		}
		// The loser's write must not have survived.
		for _, np := range fresh {
			raw, ok, err := np.Get(p, r, ik(7))
			if err != nil {
				continue
			}
			if ok {
				row, _ := kvSchema().DecodeRow(raw)
				if row[1].(string) == "UNCOMMITTED" {
					t.Fatal("uncommitted write survived recovery")
				}
			}
		}
	})
}

// TestCrashRestartNode exercises the first-class power-fail APIs: after
// CrashNode, the node's partitions reject access; after RestartNode, every
// bulk-loaded record and every acknowledged commit is readable again and
// the in-flight transaction's write is gone.
func TestCrashRestartNode(t *testing.T) {
	const n = 400
	tc := newTestCluster(t, table.Physiological, 2, n)
	defer tc.env.Close()
	node := tc.c.Nodes[0]
	master := tc.c.Master

	expected := map[int64]string{}
	for i := 0; i < n; i++ {
		expected[int64(i)] = fmt.Sprintf("val-%06d", i)
	}
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
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
		// An in-flight transaction whose staged write must not survive.
		loser := master.Begin(p, cc.SnapshotIsolation, node)
		payload, _ := kvSchema().EncodeRow(table.Row{int64(7), "UNCOMMITTED"})
		if err := loser.Put(p, "kv", ik(7), payload); err != nil {
			t.Fatal(err)
		}

		tc.c.CrashNode(node)
		if !node.Down() {
			t.Fatal("node not down after CrashNode")
		}
		// The crashed half is unavailable; the surviving half still serves.
		probe := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		if _, _, err := probe.Get(p, "kv", ik(10)); err == nil {
			t.Fatal("read of crashed node's range succeeded")
		}
		if _, ok, err := probe.Get(p, "kv", ik(300)); err != nil || !ok {
			t.Fatalf("read of surviving node's range failed: %v %v", ok, err)
		}
		probe.Abort(p)

		redone, _, err := tc.c.RestartNode(p, node)
		if err != nil {
			t.Fatal(err)
		}
		if redone == 0 {
			t.Fatal("recovery redid nothing")
		}

		r := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		for k, want := range expected {
			v, ok, err := r.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Fatalf("key %d after restart: ok=%v err=%v", k, ok, err)
			}
			row, _ := kvSchema().DecodeRow(v)
			if row[1].(string) != want {
				t.Fatalf("key %d after restart = %q, want %q", k, row[1], want)
			}
		}
		count := 0
		if err := r.Scan(p, "kv", nil, nil, func(_, _ []byte) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("scan after restart saw %d records, want %d", count, n)
		}
		r.Abort(p)
	})
}

// TestRecoveredPartitionFencesOldSnapshots pins the history-floor contract
// the KV chaos oracle enforced the hard way: recovery rebuilds only the
// newest committed image of every key (version chains die with DRAM), so a
// snapshot taken before a crash must NOT read a recovered partition — it
// could silently miss the superseded version it is entitled to. It gets a
// retryable ErrSnapshotTooOld instead, and a fresh snapshot reads normally.
func TestRecoveredPartitionFencesOldSnapshots(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 400)
	defer tc.env.Close()
	node := tc.c.Nodes[0]
	master := tc.c.Master

	tc.run(t, func(p *sim.Proc) {
		write := func(k int64, val string) {
			s := master.Begin(p, cc.SnapshotIsolation, node)
			payload, _ := kvSchema().EncodeRow(table.Row{k, val})
			if err := s.Put(p, "kv", ik(k), payload); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		write(10, "v1")
		// The old reader's snapshot covers v1 but not the overwrite below.
		old := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		write(10, "v2")

		tc.c.CrashNode(node)
		if _, _, err := tc.c.RestartNode(p, node); err != nil {
			t.Fatal(err)
		}
		// Recovery installed only v2; the version holding v1 is gone. The
		// old snapshot must be refused — returning v2 would be a wrong
		// read, returning "absent" a phantom delete.
		_, _, err := old.Get(p, "kv", ik(10))
		var tooOld table.ErrSnapshotTooOld
		if !errors.As(err, &tooOld) {
			t.Fatalf("pre-crash snapshot read of recovered partition: err=%v, want ErrSnapshotTooOld", err)
		}
		if serr := old.Scan(p, "kv", ik(0), ik(20), func(_, _ []byte) bool { return true }); !errors.As(serr, &tooOld) {
			t.Fatalf("pre-crash snapshot scan of recovered partition: err=%v, want ErrSnapshotTooOld", serr)
		}
		old.Abort(p)

		// A fresh snapshot is above the floor and reads the recovered state.
		fresh := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		v, ok, err := fresh.Get(p, "kv", ik(10))
		if err != nil || !ok {
			t.Fatalf("fresh read after restart: ok=%v err=%v", ok, err)
		}
		row, _ := kvSchema().DecodeRow(v)
		if row[1].(string) != "v2" {
			t.Fatalf("fresh read = %q, want %q", row[1], "v2")
		}
		fresh.Abort(p)
	})
}

var _ = keycodec.Int64Key

// TestCommitRecordOnDeadLogIsNotDurable pins appendCommitRecord's verdict
// for a node that power-failed before the record was issued (the install
// before it can return cleanly across a crash landing in its read I/O): the
// dead log drops the append and returns its flushed boundary, which must not
// be mistaken for a covered commit record — the session would park in the
// replication wait, see the restart re-anchor the watermarks, and acknowledge
// a transaction no log ever held.
func TestCommitRecordOnDeadLogIsNotDurable(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 20)
	defer tc.env.Close()
	n := tc.c.Nodes[1]
	tc.run(t, func(p *sim.Proc) {
		n.Log.Flush(p, n.Log.Append(wal.Record{Type: wal.RecCkptBegin}))
		txn := tc.c.Master.Oracle.Begin(cc.SnapshotIsolation)
		tc.c.CrashNode(n)
		if _, durable := appendCommitRecord(p, n, txn); durable {
			t.Error("commit record issued against a power-failed log reported durable")
		}
		tc.c.Master.Oracle.Abort(txn)
	})
}

// vacuumAbove vacuums every partition n hosts, in ID order, at a watermark
// above the oracle's clock, and returns the tombstones removed.
func vacuumAbove(t *testing.T, p *sim.Proc, c *Cluster, n *DataNode) int {
	t.Helper()
	wm := c.Master.Oracle.Clock() + 1
	removed := 0
	for _, id := range slices.Sorted(maps.Keys(n.Parts)) {
		r, err := n.Parts[id].Vacuum(p, wm)
		if err != nil {
			t.Errorf("vacuum of partition %d: %v", id, err)
		}
		removed += r
	}
	return removed
}

// TestAdoptedTombstoneIsVacuumed: a physiological move carries a committed
// delete's tombstone to the destination, which registers it for vacuum on
// adoption; the source drops its own entry for the moved range. So a vacuum
// above the clock removes it at the destination, and the key then reads
// absent there rather than deleted.
func TestAdoptedTombstoneIsVacuumed(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 3, 200)
	defer tc.env.Close()
	src, dst := tc.c.Nodes[0], tc.c.Nodes[2]
	srcRemoved, dstRemoved := -1, -1
	state := table.LookupLive
	tc.env.Spawn("test", func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, src)
		if err := s.Delete(p, "kv", ik(10)); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if err := s.Commit(p); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		if err := tc.c.Master.MigrateRange(p, "kv", nil, ik(100), dst); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		srcRemoved = vacuumAbove(t, p, tc.c, src)
		dstRemoved = vacuumAbove(t, p, tc.c, dst)
		txn := tc.c.Master.Oracle.Begin(cc.SnapshotIsolation)
		defer tc.c.Master.Oracle.Abort(txn)
		var err error
		if _, state, err = tc.tm.entries[0].Part.Lookup(p, txn, ik(10)); err != nil {
			t.Errorf("lookup: %v", err)
		}
	})
	// The ghost-drop process polls while old snapshots may read the ghost.
	if err := tc.env.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	if tc.tm.entries[0].Owner != dst {
		t.Fatalf("moved range owned by node %d, want %d", tc.tm.entries[0].Owner.ID, dst.ID)
	}
	if srcRemoved != 0 || dstRemoved != 1 {
		t.Errorf("vacuum removed %d tombstones at the source and %d at the destination, want 0 and 1", srcRemoved, dstRemoved)
	}
	if state != table.LookupAbsent {
		t.Errorf("key 10 reads lookup state %d at the destination after the vacuum, want LookupAbsent (%d)", state, table.LookupAbsent)
	}
}

// TestReplayedTombstoneIsVacuumed: a committed delete leaves a tombstone
// that a vacuum above the clock removes, whether the node kept running or
// crashed and restarted in between — the restart registers the tombstone it
// reinstalls, from the replayed delete record or, once a checkpoint folded
// the delete into the recovery base, from the base image.
func TestReplayedTombstoneIsVacuumed(t *testing.T) {
	for _, tc := range []struct {
		name              string
		crash, checkpoint bool
	}{
		{"no-crash", false, false},
		{"replayed", true, false},
		{"from-base", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newIndoubtWorld(t)
			defer w.env.Close()
			var delLSN uint64
			w.env.Spawn("delete", func(p *sim.Proc) {
				s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
				if err := s.Delete(p, "kv", ik(idLeft)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				if err := s.Commit(p); err != nil {
					t.Errorf("commit: %v", err)
				}
				delLSN = w.n1.Log.FlushedLSN()
			})
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
			removed := -1
			w.env.Spawn("crash-vacuum", func(p *sim.Proc) {
				if tc.checkpoint {
					if _, err := w.c.CheckpointNode(p, w.n1, 0); err != nil {
						t.Errorf("checkpoint: %v", err)
						return
					}
				}
				if tc.crash {
					w.c.CrashNode(w.n1)
					if _, _, err := w.c.RestartNode(p, w.n1); err != nil {
						t.Errorf("restart: %v", err)
						return
					}
					if rec := w.n1.LastRecovery; tc.checkpoint && (!rec.Checkpointed || rec.Redo <= delLSN) {
						t.Errorf("restart replayed from %d (checkpointed=%v), want a redo point above the delete at %d",
							rec.Redo, rec.Checkpointed, delLSN)
					}
				}
				removed = vacuumAbove(t, p, w.c, w.n1)
			})
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
			if removed != 1 {
				t.Fatalf("vacuum removed %d tombstones, want 1", removed)
			}
		})
	}
}
