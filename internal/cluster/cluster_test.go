package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

func kvSchema() *table.Schema {
	return &table.Schema{
		ID: 1, Name: "kv", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
}

func ik(v int64) []byte { return keycodec.Int64Key(v) }

type testCluster struct {
	env *sim.Env
	c   *Cluster
	tm  *TableMeta
}

// newTestCluster builds a cluster with `nodes` active nodes and a kv table
// of n rows split across the first two nodes at key n/2.
func newTestCluster(t *testing.T, scheme table.Scheme, nodes, n int) *testCluster {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	mid := ik(int64(n / 2))
	tm, err := c.Master.CreateTable(kvSchema(), scheme, []RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= n {
				return nil, nil, false
			}
			row := table.Row{int64(i), fmt.Sprintf("val-%06d", i)}
			key, _ := kvSchema().Key(row)
			payload, _ := kvSchema().EncodeRow(row)
			i++
			return key, payload, true
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return &testCluster{env: env, c: c, tm: tm}
}

func (tc *testCluster) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	tc.env.Spawn("test", fn)
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionReadsRoutedAcrossNodes(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 1000)
	defer tc.env.Close()
	tc.run(t, func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		for _, k := range []int64{0, 250, 499, 500, 750, 999} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Errorf("get %d: %v %v", k, ok, err)
				continue
			}
			row, _ := kvSchema().DecodeRow(v)
			if row[0].(int64) != k {
				t.Errorf("get %d returned row %v", k, row)
			}
		}
		if _, ok, _ := s.Get(p, "kv", ik(12345)); ok {
			t.Error("absent key found")
		}
		s.Abort(p)
	})
}

func TestSessionWriteAndTwoPhaseCommit(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 1000)
	defer tc.env.Close()
	tc.run(t, func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		// Touch partitions on both nodes: forces 2PC.
		row1, _ := kvSchema().EncodeRow(table.Row{int64(10), "updated-10"})
		row2, _ := kvSchema().EncodeRow(table.Row{int64(900), "updated-900"})
		if err := s.Put(p, "kv", ik(10), row1); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(p, "kv", ik(900), row2); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
		// Both nodes must have prepare/commit durable.
		r := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		for _, k := range []int64{10, 900} {
			v, ok, _ := r.Get(p, "kv", ik(k))
			row, _ := kvSchema().DecodeRow(v)
			if !ok || row[1].(string) != fmt.Sprintf("updated-%d", k) {
				t.Errorf("k=%d not committed: %v %v", k, ok, row)
			}
		}
		r.Abort(p)
	})
}

func TestSessionAbortLeavesNoTrace(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 100)
	defer tc.env.Close()
	tc.run(t, func(p *sim.Proc) {
		before, _ := tc.c.Master.RecordCount(p, "kv")
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		payload, _ := kvSchema().EncodeRow(table.Row{int64(5000), "ghost"})
		s.Put(p, "kv", ik(5000), payload)
		s.Delete(p, "kv", ik(10))
		s.Abort(p)
		after, _ := tc.c.Master.RecordCount(p, "kv")
		if before != after {
			t.Fatalf("record count changed by aborted txn: %d -> %d", before, after)
		}
	})
}

// migrationInvariants checks that after migrating [lo, hi) to dst: all n
// records remain readable exactly once, writes to moved keys succeed at the
// new owner, and (for ownership-transferring schemes) dst owns the range.
func migrationInvariants(t *testing.T, scheme table.Scheme) {
	const n = 2000
	tc := newTestCluster(t, scheme, 4, n)
	defer tc.env.Close()
	dst := tc.c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		// Move the top half of node 0's range (keys n/4..n/2) to node 2.
		lo, hi := ik(int64(n/4)), ik(int64(n/2))
		if err := tc.c.Master.MigrateRange(p, "kv", lo, hi, dst); err != nil {
			t.Fatal(err)
		}
		// Every record still present exactly once.
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		seen := map[int64]int{}
		err := s.Scan(p, "kv", nil, nil, func(k, v []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			seen[d]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Abort(p)
		if len(seen) != n {
			t.Fatalf("scan saw %d distinct keys, want %d", len(seen), n)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("key %d seen %d times", k, c)
			}
		}
		// Point reads and writes of moved keys work.
		w := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
		probe := int64(n / 3)
		payload, _ := kvSchema().EncodeRow(table.Row{probe, "post-move"})
		if err := w.Put(p, "kv", ik(probe), payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(p); err != nil {
			t.Fatal(err)
		}
		r := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		v, ok, err := r.Get(p, "kv", ik(probe))
		if err != nil || !ok {
			t.Fatalf("moved key unreadable: %v %v", ok, err)
		}
		row, _ := kvSchema().DecodeRow(v)
		if row[1].(string) != "post-move" {
			t.Fatalf("moved key value = %v", row[1])
		}
		r.Abort(p)

		if scheme != table.Physical {
			e, err := tc.tm.route(ik(probe))
			if err != nil {
				t.Fatal(err)
			}
			if e.Owner != dst {
				t.Fatalf("range owner after %v migration = node %d, want node %d", scheme, e.Owner.ID, dst.ID)
			}
		}
	})
}

func TestPhysiologicalMigrationInvariants(t *testing.T) { migrationInvariants(t, table.Physiological) }
func TestLogicalMigrationInvariants(t *testing.T)       { migrationInvariants(t, table.Logical) }
func TestPhysicalMigrationInvariants(t *testing.T)      { migrationInvariants(t, table.Physical) }

func TestPhysicalMigrationRelocatesBytesNotOwnership(t *testing.T) {
	const n = 1000
	tc := newTestCluster(t, table.Physical, 3, n)
	defer tc.env.Close()
	dst := tc.c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		owner0 := tc.tm.entries[0].Owner
		if err := tc.c.Master.MigrateRange(p, "kv", nil, ik(int64(n/2)), dst); err != nil {
			t.Fatal(err)
		}
		// Ownership unchanged; all first-range segments now homed on dst.
		if tc.tm.entries[0].Owner != owner0 {
			t.Fatal("physical migration changed ownership")
		}
		for _, h := range tc.tm.entries[0].Part.Segments() {
			home, err := tc.c.home(h.Seg.ID)
			if err != nil {
				t.Fatal(err)
			}
			if home.node != dst {
				t.Fatalf("segment %d homed on node %d, want %d", h.Seg.ID, home.node.ID, dst.ID)
			}
		}
		// Reads now pay remote access but still work.
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, owner0)
		if _, ok, err := s.Get(p, "kv", ik(7)); !ok || err != nil {
			t.Fatalf("read after relocation: %v %v", ok, err)
		}
		s.Abort(p)
	})
}

// TestMigrationUnderLoad runs continuous read/write traffic while 50% of
// the data migrates, for each scheme, and checks nothing is lost, duplicated
// or incorrectly versioned.
func TestMigrationUnderLoad(t *testing.T) {
	for _, scheme := range []table.Scheme{table.Physical, table.Logical, table.Physiological} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			const n = 1500
			tc := newTestCluster(t, scheme, 4, n)
			defer tc.env.Close()
			dst := tc.c.Nodes[2]
			master := tc.c.Master

			stop := false
			writes := map[int64]int{} // committed update counters
			commits, aborts := 0, 0
			for w := 0; w < 4; w++ {
				w := w
				tc.env.Spawn(fmt.Sprintf("writer-%d", w), func(p *sim.Proc) {
					rng := tc.env.Rand
					for !stop {
						k := int64(rng.Intn(n))
						s := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[w%2])
						cnt := writes[k] + 1
						payload, _ := kvSchema().EncodeRow(table.Row{k, fmt.Sprintf("gen-%d", cnt)})
						if err := s.Put(p, "kv", ik(k), payload); err != nil {
							s.Abort(p)
							aborts++
							p.Sleep(2 * time.Millisecond)
							continue
						}
						if err := s.Commit(p); err != nil {
							s.Abort(p)
							aborts++
							continue
						}
						writes[k] = cnt
						commits++
						p.Sleep(time.Millisecond)
					}
				})
			}
			tc.env.Spawn("reader", func(p *sim.Proc) {
				rng := tc.env.Rand
				for !stop {
					k := int64(rng.Intn(n))
					s := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
					_, ok, err := s.Get(p, "kv", ik(k))
					if err != nil {
						t.Errorf("read %d: %v", k, err)
					}
					if !ok {
						t.Errorf("read %d: record lost", k)
					}
					s.Abort(p)
					p.Sleep(time.Millisecond)
				}
			})
			tc.env.Spawn("migrate", func(p *sim.Proc) {
				p.Sleep(50 * time.Millisecond)
				if err := master.MigrateRange(p, "kv", ik(int64(n/4)), ik(int64(n/2)), dst); err != nil {
					t.Errorf("migrate: %v", err)
				}
				p.Sleep(200 * time.Millisecond)
				stop = true
			})
			if err := tc.env.RunUntil(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			stop = true
			if commits == 0 {
				t.Fatal("no transactions committed during migration")
			}

			// Final verification: every key present exactly once with its
			// last committed value.
			tc.run(t, func(p *sim.Proc) {
				s := master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
				count := 0
				err := s.Scan(p, "kv", nil, nil, func(k, v []byte) bool {
					d, _, _ := keycodec.DecodeInt64(k)
					row, err := kvSchema().DecodeRow(v)
					if err != nil {
						t.Errorf("decode %d: %v", d, err)
						return false
					}
					want := "val-" + fmt.Sprintf("%06d", d)
					if c := writes[d]; c > 0 {
						want = fmt.Sprintf("gen-%d", c)
					}
					if row[1].(string) != want {
						t.Errorf("key %d = %q, want %q", d, row[1], want)
					}
					count++
					return true
				})
				if err != nil {
					t.Error(err)
				}
				if count != n {
					t.Errorf("final scan: %d records, want %d (commits=%d aborts=%d)", count, n, commits, aborts)
				}
				s.Abort(p)
			})
		})
	}
}

func TestMonitorPolicyScalesOut(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := New(env, cfg)
	defer env.Close()
	policy := DefaultPolicy()
	scaledTo := -1
	policy.OnScaleOut = func(p *sim.Proc, n *DataNode) { scaledTo = n.ID }
	c.Master.StartMonitor(2*time.Second, policy)
	// Saturate node 0's CPU.
	for i := 0; i < 4; i++ {
		env.Spawn("burn", func(p *sim.Proc) {
			for p.Now() < 30*time.Second {
				c.Nodes[0].HW.Compute(p, 100*time.Millisecond)
			}
		})
	}
	if err := env.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if scaledTo < 0 {
		t.Fatal("policy did not scale out under load")
	}
	if c.Nodes[scaledTo].HW.State() != hw.PowerActive {
		t.Fatal("scaled-out node not active")
	}
	// After the load stops (t=30s) the cluster idles, so the policy must
	// scale the empty node back in (it holds no data).
	if err := env.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[scaledTo].HW.State() != hw.PowerOff {
		t.Fatalf("idle node not scaled in: state %v", c.Nodes[scaledTo].HW.State())
	}
}

func TestHelperAttachShipsLog(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 3, 200)
	defer tc.env.Close()
	busy, helper := tc.c.Nodes[0], tc.c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		_, helperWritesBefore := helper.HW.LogDisk().Ops()
		tc.c.Master.AttachHelper(p, busy, helper)
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, busy)
		payload, _ := kvSchema().EncodeRow(table.Row{int64(3), "shipped"})
		if err := s.Put(p, "kv", ik(3), payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
		if _, w := helper.HW.LogDisk().Ops(); w <= helperWritesBefore {
			t.Fatal("commit did not ship log to helper")
		}
		tc.c.Master.DetachHelper(p, busy)
		_, localBefore := busy.HW.LogDisk().Ops()
		s2 := tc.c.Master.Begin(p, cc.SnapshotIsolation, busy)
		payload2, _ := kvSchema().EncodeRow(table.Row{int64(4), "local"})
		s2.Put(p, "kv", ik(4), payload2)
		if err := s2.Commit(p); err != nil {
			t.Fatal(err)
		}
		if _, w := busy.HW.LogDisk().Ops(); w <= localBefore {
			t.Fatal("detach did not restore local logging")
		}
	})
}

func TestPowerOffRefusesWithData(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 100)
	defer tc.env.Close()
	tc.run(t, func(p *sim.Proc) {
		if err := tc.c.Nodes[1].PowerOff(p); err == nil {
			t.Fatal("node with partitions powered off")
		}
	})
}

// TestPowerOffRefusesFollower: a node that owns no data but follows live
// origins' logs must not power off — in standby it would go on taking their
// streams onto its log.
func TestPowerOffRefusesFollower(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	tc.c.SetupReplicationDrain()
	n := tc.c.Nodes[3] // owns nothing, follows nodes 1 and 2
	tc.run(t, func(p *sim.Proc) {
		if err := n.PowerOff(p); err == nil {
			t.Error("a follower of live origins powered off")
		}
	})
	if n.HW.State() != hw.PowerActive {
		t.Fatalf("node 3 is %v after the refused power-off, want active", n.HW.State())
	}
}

func TestScanRangeSpansPartitions(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 1000)
	defer tc.env.Close()
	tc.run(t, func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		var keys []int64
		err := s.Scan(p, "kv", ik(450), ik(550), func(k, _ []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			keys = append(keys, d)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 100 {
			t.Fatalf("scan across boundary returned %d keys", len(keys))
		}
		for i, k := range keys {
			if k != int64(450+i) {
				t.Fatalf("keys out of order at %d: %d", i, k)
			}
		}
		s.Abort(p)
	})
}

func TestDeterministicClusterRuns(t *testing.T) {
	run := func() (int, time.Duration) {
		tc := newTestCluster(t, table.Physiological, 3, 500)
		defer tc.env.Close()
		commits := 0
		stop := false
		tc.env.Spawn("writer", func(p *sim.Proc) {
			for !stop {
				k := int64(tc.env.Rand.Intn(500))
				s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
				payload, _ := kvSchema().EncodeRow(table.Row{k, "x"})
				if s.Put(p, "kv", ik(k), payload) == nil && s.Commit(p) == nil {
					commits++
				} else {
					s.Abort(p)
				}
				p.Sleep(3 * time.Millisecond)
			}
		})
		tc.env.Spawn("migrate", func(p *sim.Proc) {
			p.Sleep(20 * time.Millisecond)
			tc.c.Master.MigrateRange(p, "kv", ik(100), ik(250), tc.c.Nodes[2])
			stop = true
		})
		if err := tc.env.RunUntil(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return commits, tc.env.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("non-deterministic: run1=(%d,%v) run2=(%d,%v)", c1, t1, c2, t2)
	}
}

var _ = bytes.Compare // silence unused import if assertions change

// TestMovedRangeServesCappedSnapshots pins the dual-pointer lifetime against
// safe snapshots: while a commit is unsettled (parked across its node's
// outage, say), every new PreferFollower session reads just below it —
// possibly far below the clock. A range moved during that time must keep its
// old location reachable even when no transaction is active at the instant the
// move ends, because the destination holds only the newest version of each
// key.
// TestInsertRacingLogicalBatch: a write routes by a logical move's boundary
// and then travels to the partition it chose. Here an insert of a fresh key
// in the move's first batch routes to the source while the batch runs, and
// its request waits behind a transfer that holds its home's uplink. The batch
// checks its window, finds no write, advances the boundary and commits; the
// insert reaches the source after that, behind the boundary, in a copy no
// reader looks at once the move is done. Acknowledged there, the row would be
// lost with the old copy: the write must fail instead, and its retry, routed
// to the destination, must survive the move.
func TestInsertRacingLogicalBatch(t *testing.T) {
	const n = 1000
	tc := newTestCluster(t, table.Logical, 4, n)
	defer tc.env.Close()
	m := tc.c.Master
	home := tc.c.Nodes[3]
	key := nextKey(ik(101)) // between two loaded keys of the first batch
	payload, _ := kvSchema().EncodeRow(table.Row{int64(101), "fresh"})
	tc.env.Spawn("migrate", func(p *sim.Proc) {
		if err := m.MigrateRange(p, "kv", ik(100), ik(n/2), tc.c.Nodes[2]); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	var firstErr, retryErr error
	tc.env.Spawn("insert", func(p *sim.Proc) {
		for moving := false; !moving; {
			p.Sleep(100 * time.Microsecond)
			e, _ := tc.tm.route(key)
			moving = e.OldPart != nil && bytes.Equal(e.MovedBelow, ik(100))
		}
		tc.env.Spawn("uplink-hog", func(p *sim.Proc) {
			tc.c.Net.Transfer(p, home.ID, tc.c.Nodes[1].ID, int64(tc.c.Cal.NetBandwidth/5)) // 200 ms on the wire
		})
		p.Sleep(time.Microsecond)
		insert := func() error {
			s := m.Begin(p, cc.SnapshotIsolation, home)
			err := s.Put(p, "kv", key, payload)
			if err == nil {
				err = s.Commit(p)
			}
			if err != nil {
				s.Abort(p)
			}
			return err
		}
		if firstErr = insert(); firstErr != nil {
			retryErr = insert()
		}
	})
	if err := tc.env.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if e, _ := tc.tm.route(key); e.OldPart != nil || e.Owner != tc.c.Nodes[2] {
		t.Fatalf("move not finished and retired (owner %d, old copy %v)", e.Owner.ID, e.OldPart != nil)
	}
	tc.run(t, func(p *sim.Proc) {
		s := m.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		if _, ok, err := s.Get(p, "kv", key); (firstErr == nil || retryErr == nil) && (err != nil || !ok) {
			t.Errorf("acknowledged insert lost by the move (ok=%v err=%v)", ok, err)
		}
		s.Abort(p)
	})
	if firstErr != cc.ErrWriteConflict || retryErr != nil {
		t.Fatalf("insert behind the boundary: %v, its retry: %v; want a write conflict, then a commit", firstErr, retryErr)
	}
}

func TestMovedRangeServesCappedSnapshots(t *testing.T) {
	const n = 200
	tc := newTestCluster(t, table.Physiological, 3, n)
	defer tc.env.Close()
	m := tc.c.Master
	put := func(p *sim.Proc, val string) {
		s := m.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		payload, _ := kvSchema().EncodeRow(table.Row{int64(10), val})
		if err := s.Put(p, "kv", ik(10), payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	tc.run(t, func(p *sim.Proc) {
		put(p, "below-the-cap")
		parked := m.Oracle.Begin(cc.SnapshotIsolation)
		m.Oracle.CommitTS(parked) // unsettled from here: safe snapshots stay below it
		put(p, "above-the-cap")
		if err := m.MigrateRange(p, "kv", ik(0), ik(n/2), tc.c.Nodes[2]); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		p.Sleep(3 * time.Second) // the cleanup processes had their chance
		s := m.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		s.PreferFollower = true
		v, ok, err := s.Get(p, "kv", ik(10))
		if err != nil || !ok {
			t.Fatalf("safe snapshot %d lost key 10 after the move: ok=%v err=%v", s.Txn.Begin, ok, err)
		}
		if row, _ := kvSchema().DecodeRow(v); row[1].(string) != "below-the-cap" {
			t.Errorf("safe snapshot read %q, want %q", row[1], "below-the-cap")
		}
		s.Abort(p)
		m.Oracle.Abort(parked) // release the cap so the cleanup can finish
	})
}

// TestPreferFollowerReadsAtSafeSnapshot: with a commit in its force and its
// commit point published, a session carrying the analytics hint reads exactly
// what the capped snapshot of old read — the version below the unsettled
// commit, at the timestamp just below it — takes no dependency and needs no
// settling; a plain session beside it reads the unsettled value and depends
// on it.
func TestPreferFollowerReadsAtSafeSnapshot(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	c.Nodes[0].HW.LogDisk().SetStall(50 * time.Millisecond) // T1's force outlasts the three readers
	f := w.commitInForce("t1", 10)
	w.run(t, func(p *sim.Proc) {
		t1 := unsettledWithRecord(p, f, true)
		landed(p, c, t1)
		for _, home := range []*DataNode{c.Nodes[0], c.Nodes[1], c.Nodes[3]} { // owner, follower, neither
			plain := c.Master.Begin(p, cc.SnapshotIsolation, home)
			hinted := c.Master.Begin(p, cc.SnapshotIsolation, home)
			hinted.PreferFollower = true
			if hinted.Txn.Begin < t1.Commit || hinted.Txn.Safe != t1.Commit-1 {
				t.Errorf("home %d: began at %d with safe snapshot %d over unsettled commit %d", home.ID, hinted.Txn.Begin, hinted.Txn.Safe, t1.Commit)
			}
			if got, want := w.read(p, hinted, 10), fmt.Sprintf(idOldVal, 10); got != want || hinted.Txn.Begin != t1.Commit-1 || hinted.Txn.Deps != nil {
				t.Errorf("home %d: hinted session read %q at %d with dependencies %v; want %q at %d and none",
					home.ID, got, hinted.Txn.Begin, hinted.Txn.Deps, want, t1.Commit-1)
			}
			rows := 0
			err := hinted.Scan(p, "kv", ik(0), ik(100), func(k, v []byte) bool {
				row, _ := kvSchema().DecodeRow(v)
				if want := fmt.Sprintf(idOldVal, row[0].(int64)); row[1].(string) != want {
					t.Errorf("home %d: hinted scan returned %q for key %d, want %q", home.ID, row[1], row[0], want)
				}
				rows++
				return true
			})
			if err != nil || rows != 100 || hinted.Txn.Deps != nil {
				t.Errorf("home %d: hinted scan: %d rows, err %v, dependencies %v", home.ID, rows, err, hinted.Txn.Deps)
			}
			if got := w.read(p, plain, 10); got != "t1" || len(plain.Txn.Deps) != 1 {
				t.Errorf("home %d: plain session read %q with dependencies %v, want the unsettled value and T1", home.ID, got, plain.Txn.Deps)
			}
			at := p.Now()
			if err := hinted.Commit(p); err != nil || p.Now() != at || !t1.Unsettled() {
				t.Errorf("home %d: hinted commit: %v, took %v, T1 unsettled=%v; want nil, at once, over a still unsettled T1", home.ID, err, p.Now()-at, t1.Unsettled())
			}
			plain.Abort(p)
		}
	})
	if f.err != nil || c.DepWaits != 0 {
		t.Errorf("T1: %v; %d dependency waits, want none", f.err, c.DepWaits)
	}
}

// TestMonitorCountsRefusedScaleIn: every node is below the scale-in bound, and
// the idlest one off the master's node owns nothing but follows the live
// origin's log. PowerOff refuses it; the monitor counts the refusal, and the
// node stays active.
func TestMonitorCountsRefusedScaleIn(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.DataReplicas = 4, 2
	c := New(env, cfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}
	if _, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{{Owner: c.Nodes[0]}}); err != nil {
		t.Fatal(err)
	}
	var victim *DataNode
	policy := &Policy{HighCPU: 2, LowCPU: 1, OnScaleIn: func(_ *sim.Proc, n *DataNode) { victim = n }}
	mon := c.Master.StartMonitor(time.Second, policy)
	if err := env.RunUntil(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if victim == nil {
		t.Fatal("setup: no scale-in")
	}
	if l := c.Nodes[0].ship.link(victim); len(victim.Parts) != 0 || l == nil || l.stale {
		t.Fatalf("setup: the scale-in victim, node %d, is not an empty in-sync follower of node 0", victim.ID)
	}
	if mon.RefusedScaleIns != 1 || victim.HW.State() != hw.PowerActive {
		t.Fatalf("%d refused scale-ins, node %d %v; want 1 and active", mon.RefusedScaleIns, victim.ID, victim.HW.State())
	}
}

// TestMonitorDecisionsIgnoreMapOrder: the scale policy's two reads of a sample
// — the mean it compares with the thresholds and the scale-in victim — must
// not depend on map iteration order. An all-equal sample (every node ties, as
// at idle) always names the same victim; a sample whose float sum depends on
// the order of addition always sums to the same bits.
func TestMonitorDecisionsIgnoreMapOrder(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 8, 100)
	defer tc.env.Close()
	idle, uneven := map[int]float64{}, map[int]float64{}
	for id, u := range []float64{0.1, 0.2, 0.3, 0.7, 1e-9, 0.13, 0.31, 0.0003} {
		idle[id], uneven[id] = 0.02, u
	}
	var victim *DataNode
	var mean float64
	for i := 0; i < 100; i++ {
		for _, mon := range []*Monitor{{master: tc.c.Master}, {master: tc.c.Master}} {
			v, m := mon.idlestNode(idle), mon.meanUtil(uneven) // each call ranges afresh
			if victim == nil {
				victim, mean = v, m
			}
			if v == nil || v != victim || v.ID != 1 {
				t.Fatalf("round %d: victim is not node 1, the lowest ID off the master's node, every time", i)
			}
			if m != mean {
				t.Fatalf("round %d: mean %v, first round's %v", i, m, mean)
			}
		}
	}
}
