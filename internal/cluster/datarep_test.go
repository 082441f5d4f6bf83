package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// newRepCluster is newTestCluster with per-node WAL shipping enabled: every
// node's data frames replicate to its two cyclic followers.
func newRepCluster(t *testing.T, scheme table.Scheme, nodes, n int) *testCluster {
	t.Helper()
	return newRepClusterWith(t, scheme, nodes, n, func(*Config) {})
}

// newRepClusterWith is newRepCluster with the configuration adjusted by tune
// first.
func newRepClusterWith(t *testing.T, scheme table.Scheme, nodes, n int, tune func(*Config)) *testCluster {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.DataReplicas = 2
	tune(&cfg)
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

func (tc *testCluster) put(t *testing.T, p *sim.Proc, home *DataNode, k int64, val string) {
	t.Helper()
	s := tc.c.Master.Begin(p, cc.SnapshotIsolation, home)
	payload, _ := kvSchema().EncodeRow(table.Row{k, val})
	if err := s.Put(p, "kv", ik(k), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(p); err != nil {
		t.Fatal(err)
	}
}

func (tc *testCluster) verifyOracle(t *testing.T, oracle map[int64]string) {
	t.Helper()
	tc.run(t, func(p *sim.Proc) {
		s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[0])
		seen := map[int64]int{}
		err := s.Scan(p, "kv", nil, nil, func(k, v []byte) bool {
			d, _, _ := keycodec.DecodeInt64(k)
			seen[d]++
			row, derr := kvSchema().DecodeRow(v)
			if derr != nil {
				t.Errorf("key %d: undecodable: %v", d, derr)
				return false
			}
			if row[1].(string) != oracle[d] {
				t.Errorf("key %d = %q, want %q", d, row[1], oracle[d])
			}
			return true
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(seen) != len(oracle) {
			t.Fatalf("scan saw %d distinct keys, want %d", len(seen), len(oracle))
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("key %d seen %d times", k, c)
			}
		}
		s.Abort(p) // release the snapshot: ghost-drop waits on the watermark
	})
}

// TestRebuildAfterDiskLoss is the full-disk-loss regression: a node loses
// its log medium AND its recovery bases, so restart has nothing local to
// recover from — every hosted partition must come back from the replica
// set's base images plus shipped log, with every acked commit intact.
func TestRebuildAfterDiskLoss(t *testing.T) {
	const n = 1000
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	victim := tc.c.Nodes[1]

	oracle := map[int64]string{}
	for i := int64(0); i < n; i++ {
		oracle[i] = fmt.Sprintf("val-%06d", i)
	}
	tc.run(t, func(p *sim.Proc) {
		// Updates on both halves: the victim's partition gets history the
		// bulk-loaded base image does not contain.
		for i := 0; i < 100; i++ {
			k := int64((i*37 + n/2) % n)
			val := fmt.Sprintf("post-%d", i)
			tc.put(t, p, tc.c.Nodes[i%2], k, val)
			oracle[k] = val
		}
	})

	tc.c.DestroyDisk(victim)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, victim); err != nil {
			t.Fatalf("restart after disk loss: %v", err)
		}
	})

	rebuilds, _, _, diskLosses := tc.c.ReplicationStats()
	if diskLosses != 1 || rebuilds != 1 {
		t.Fatalf("diskLosses=%d rebuilds=%d, want 1/1", diskLosses, rebuilds)
	}
	tc.verifyOracle(t, oracle)

	// The rebuilt node must be writable again — and the new history must
	// itself replicate (a second loss of the same disk is survivable).
	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[0], int64(n/2+3), "after-rebuild")
		oracle[int64(n/2+3)] = "after-rebuild"
	})
	tc.c.DestroyDisk(victim)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, victim); err != nil {
			t.Fatalf("second restart after disk loss: %v", err)
		}
	})
	tc.verifyOracle(t, oracle)
}

// TestFollowerReadStalenessBound pins the safety gates of follower snapshot
// reads: a replica serves a read only when its applied history provably
// covers the snapshot — any commit at or below the snapshot that is not yet
// replica-durable forces the read back to the owner, and either path returns
// the same committed value.
func TestFollowerReadStalenessBound(t *testing.T) {
	const n = 100
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()

	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[1], 10, "fresh")

		readKey := func() string {
			s := tc.c.Master.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
			v, ok, err := s.Get(p, "kv", ik(10))
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			row, _ := kvSchema().DecodeRow(v)
			s.Abort(p)
			return row[1].(string)
		}

		_, _, before, _ := tc.c.ReplicationStats()
		if got := readKey(); got != "fresh" {
			t.Fatalf("read %q, want %q", got, "fresh")
		}
		_, _, after, _ := tc.c.ReplicationStats()
		if after != before+1 {
			t.Fatalf("followerReads %d -> %d: first session read did not hit a replica", before, after)
		}

		// An acked-but-not-yet-replicated commit at the owner makes every
		// snapshot covering it unservable from a follower: the read must
		// fall back to the owner (and still see the committed value).
		tc.c.Nodes[0].Commits.Add(1, &cc.Txn{})
		if got := readKey(); got != "fresh" {
			t.Fatalf("owner fallback read %q, want %q", got, "fresh")
		}
		_, _, blocked, _ := tc.c.ReplicationStats()
		if blocked != after {
			t.Fatalf("followerReads advanced to %d during an inflight commit below the snapshot", blocked)
		}

		// The commit replicates; followers are safe again.
		tc.c.Nodes[0].Commits.Del(1)
		if got := readKey(); got != "fresh" {
			t.Fatalf("read %q, want %q", got, "fresh")
		}
		_, _, again, _ := tc.c.ReplicationStats()
		if again != blocked+1 {
			t.Fatalf("followerReads %d -> %d: replica did not resume serving", blocked, again)
		}
	})
}

// TestForcedCommitHealsStaleFollowers pins the forceShip retry loop's heal
// path: a crash schedule can interrupt a restart-epilogue resync (the
// counterpart dies mid-transfer) and leave EVERY follower of an origin live
// but stale once all nodes are finally up — with no restart pending, nothing
// retries the resync. A forced commit on that origin must then heal the
// replica set itself (healStaleFollowers) rather than spin forever waiting
// for a durable follower that can never appear: stale followers are skipped
// by queue delivery, so without the heal the retry loop is a livelock.
func TestForcedCommitHealsStaleFollowers(t *testing.T) {
	const n = 200
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	origin := tc.c.Nodes[0]

	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, origin, 1, "before")
	})

	// Reproduce the interrupted-resync end state directly (the schedule that
	// creates it needs a crash landing inside each resync's network transfer;
	// the state is what matters): every follower live but stale, its replica
	// store gone, and no restart left to trigger a resync.
	for _, l := range origin.ship.links {
		l.stale = true
		l.store = newRepStore()
	}

	committed := false
	tc.env.Spawn("commit", func(p *sim.Proc) {
		tc.put(t, p, origin, 2, "after")
		committed = true
	})
	// Bounded run: if the heal path regresses, the commit spins in forceShip
	// forever — fail loudly at the deadline instead of hanging the test.
	if err := tc.env.RunUntil(tc.env.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("forced commit still spinning after 1h of sim time: stale followers were never healed")
	}

	for _, l := range origin.ship.links {
		f := l.follower
		if l.stale {
			t.Errorf("follower %d still stale after the forced commit", f.ID)
		}
		if fl := origin.Log.FlushedLSN(); l.durable < fl {
			t.Errorf("follower %d durable=%d, below the origin's flushed boundary %d", f.ID, l.durable, fl)
		}
		if st := l.store; st == nil || st.applied == 0 {
			t.Errorf("follower %d replica store not re-seeded by the heal", f.ID)
		}
	}
}

// TestDiskLossDuringMigration is the migration half of the disk-loss
// regression: the destination of an in-flight range move loses its entire
// disk mid-transfer, restarts, and every key must still be reachable exactly
// once with its last committed value. A second loss AFTER a completed move
// then proves the moved history itself got replicated at the destination —
// the dual pointer must not drop the source until the destination's replica
// set covers the moved frames.
func TestDiskLossDuringMigration(t *testing.T) {
	const n = 2000
	tc := newRepCluster(t, table.Physiological, 4, n)
	defer tc.env.Close()
	dst := tc.c.Nodes[2]
	master := tc.c.Master

	oracle := map[int64]string{}
	for i := int64(0); i < n; i++ {
		oracle[i] = fmt.Sprintf("val-%06d", i)
	}
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			k := int64(i * 17 % n)
			val := fmt.Sprintf("pre-%d", i)
			tc.put(t, p, tc.c.Nodes[i%2], k, val)
			oracle[k] = val
		}
	})

	migDone := false
	var migErr error
	tc.env.Spawn("migrate", func(p *sim.Proc) {
		migErr = master.MigrateRange(p, "kv", ik(int64(n/4)), ik(int64(3*n/4)), dst)
		migDone = true
	})
	crashedMidFlight := false
	tc.env.Spawn("destroy", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		crashedMidFlight = !migDone
		tc.c.DestroyDisk(dst)
		p.Sleep(15 * time.Second)
		if _, _, err := tc.c.RestartNode(p, dst); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !crashedMidFlight {
		t.Fatalf("disk loss landed after the migration completed; widen the window")
	}
	if migErr != nil {
		t.Logf("migration aborted by the disk loss (expected): %v", migErr)
	}
	tc.verifyOracle(t, oracle)

	// Run the move to completion, then destroy the destination again: the
	// moved range now lives ONLY at the destination, so surviving this loss
	// requires its history to be on the destination's replica set.
	tc.run(t, func(p *sim.Proc) {
		if err := master.MigrateRange(p, "kv", ik(int64(n/4)), ik(int64(3*n/4)), dst); err != nil {
			t.Fatalf("second migration: %v", err)
		}
	})
	tc.c.DestroyDisk(dst)
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if _, _, err := tc.c.RestartNode(p, dst); err != nil {
			t.Fatalf("restart after post-move disk loss: %v", err)
		}
	})
	tc.verifyOracle(t, oracle)

	// Post-rebuild writes to the moved range land at the destination.
	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, tc.c.Nodes[0], int64(n/2), "moved-then-rebuilt")
		oracle[int64(n/2)] = "moved-then-rebuilt"
	})
	tc.verifyOracle(t, oracle)
}

// TestScrubRepairsCoordinatorFrame bit-rots a replicated master record on the
// leader's log. The record is an ordinary frame of the leader's shipped
// stream, so a follower holds a durable copy (it is rot-eligible) and the
// scrubber patches it like any data frame.
func TestScrubRepairsCoordinatorFrame(t *testing.T) {
	w := newFailoverWorld(t, 300)
	defer w.env.Close()
	c, leader := w.c, w.c.Nodes[0]
	w.runCommits(t, 5)

	var target uint64
	leader.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if wal.MasterRecord(rec) && rec.LSN <= leader.Log.FlushedLSN() {
			target = rec.LSN
		}
		return true
	})
	if target == 0 {
		t.Fatal("leader log holds no durable master record")
	}
	if !c.RotEligible(leader)(target) {
		t.Fatalf("master frame at LSN %d has no durable follower copy", target)
	}
	_, seqBefore, _ := c.Master.masterCopy(leader)
	if got := leader.Log.FlipFlushedBit(7, func(lsn uint64) bool { return lsn == target }); got != target {
		t.Fatalf("rot landed on LSN %d, want %d", got, target)
	}
	if bad := leader.Log.CheckFlushed(); len(bad) != 1 || bad[0] != target {
		t.Fatalf("damaged frames = %v, want [%d]", bad, target)
	}
	w.env.Spawn("scrub", func(p *sim.Proc) {
		if repaired := c.ScrubPass(p); repaired != 1 {
			t.Errorf("scrub repaired %d frames, want 1", repaired)
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if bad := leader.Log.CheckFlushed(); len(bad) != 0 {
		t.Fatalf("frames %v still damaged after the scrub", bad)
	}
	if _, seq, _ := c.Master.masterCopy(leader); seq != seqBefore {
		t.Fatalf("master history ends at sequence %d after repair, want %d", seq, seqBefore)
	}
}

// TestShipConfirmOutOfOrder: passes confirm after releasing the drain lock, so
// a later pass can finish first. The durable watermark is the larger of the
// boundaries confirmed, whatever the order.
func TestShipConfirmOutOfOrder(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1 := c.Nodes[0], c.Nodes[1]
	tc.run(t, func(p *sim.Proc) {
		send := func(txn cc.TxnID) (uint64, []shipMark) {
			lsn := origin.Log.Append(wal.Record{Txn: txn, Type: wal.RecAbort})
			origin.Log.Flush(p, lsn)
			marks, ok := c.sendQueued(p, origin)
			if !ok || len(marks) == 0 || marks[0].l.follower != f1 || marks[0].through != lsn {
				t.Errorf("send stage: ok=%v marks=%+v, want follower 1 first, through %d", ok, marks, lsn)
			}
			return lsn, marks
		}
		before := origin.ship.link(f1).durable
		first, early := send(1 << 40)
		second, late := send(1 << 41)
		if origin.ship.link(f1).durable != before {
			t.Errorf("durable moved %d -> %d before the follower flushed anything", before, origin.ship.link(f1).durable)
			return
		}
		c.confirmShipped(p, origin, late, true) // forces the follower through both batches
		if got := origin.ship.link(f1).durable; got != second {
			t.Errorf("after the later pass confirmed: durable %d, want %d", got, second)
			return
		}
		flushes := f1.Log.Flushes
		c.confirmShipped(p, origin, early, true)
		if got := origin.ship.link(f1).durable; got != second || f1.Log.Flushes != flushes {
			t.Errorf("the earlier pass confirming last: durable %d (want %d, not %d), follower flushes +%d (want +0)",
				got, second, first, f1.Log.Flushes-flushes)
		}
	})
}

// TestLogMasterRidesEarlierPass: a forced coordinator record whose frame was
// shipped — popped from the queue — by a committer's pass that is still forcing
// the follower's log. logMaster's own pass finds nothing to send, and must
// still answer true only once a follower holds the record durably: it joins
// the force in flight instead of reporting on the send.
func TestLogMasterRidesEarlierPass(t *testing.T) {
	w := newFailoverWorld(t, 300)
	defer w.env.Close()
	c, m := w.c, w.c.Master
	leader, f1 := c.Nodes[0], c.Nodes[1]
	var busy, committerDone, masterDone time.Duration
	var masterLSN uint64
	replicated := false
	// Someone's local force is in flight when the other two append, so theirs
	// is the next group commit: the committer, first in line, becomes its
	// flusher and resumes ahead of the coordinator when it completes.
	w.env.Spawn("busy", func(p *sim.Proc) {
		leader.Log.Flush(p, leader.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort}))
		busy = p.Now()
	})
	w.env.Spawn("committer", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		lsn := leader.Log.Append(wal.Record{Txn: 1 << 41, Type: wal.RecAbort})
		leader.Log.Flush(p, lsn)
		if !c.forceShip(p, leader, lsn, 0, false) {
			t.Error("leader reported dead")
		}
		committerDone = p.Now()
	})
	w.env.Spawn("coordinator", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond)
		msgs, flushes := c.Net.Messages(leader.ID), f1.Log.Flushes
		replicated = m.logMaster(p, wal.Record{Type: wal.RecMLease, TS: m.Oracle.Leased()}, true)
		masterDone = p.Now()
		masterLSN = leader.Log.TailLSN() - 1
		if sent := c.Net.Messages(leader.ID) - msgs; sent != 2 {
			t.Errorf("%d messages left the leader, want the committer's one batch to two followers", sent)
		}
		if got := f1.Log.Flushes - flushes; got != 1 {
			t.Errorf("follower log forced %d times, want the one force both waiters share", got)
		}
		held, _ := streamCopy(f1, leader.ID, f1.Log.FlushedLSN())
		if !replicated || held.get(masterLSN) == nil {
			t.Errorf("logMaster returned %v with the record durable on the follower: %v", replicated, held.get(masterLSN) != nil)
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if busy == 0 || masterDone != committerDone {
		t.Fatalf("coordinator answered at %v, the committer's follower force returned at %v: want the same instant", masterDone, committerDone)
	}
}

// TestShipPassAllocs: ship sets are links built once and a pass works in
// scratch its shipState owns, so a forced pass that finds nothing queued and
// its follower durable — what a committer runs when another's pass carried its
// frames — allocates nothing.
func TestShipPassAllocs(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin := c.Nodes[0]
	tc.run(t, func(p *sim.Proc) {
		lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		origin.Log.Flush(p, lsn)
		pass := func() {
			if !c.shipQueued(p, origin, true) || !c.replicaDurable(origin, lsn) {
				t.Error("forced pass left the frame short of a durable follower")
				return
			}
		}
		pass() // ships the frame, forces the follower, sizes the scratch
		if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
			t.Errorf("a forced pass over an empty queue allocates %.1f objects, want 0", allocs)
			return
		}
	})
}

// TestShipLinks pins link construction and crash teardown: node o ships to the
// next R node IDs in ring order (R = DataReplicas clamped to Nodes-1), a
// node's inbound links come in ascending origin ID, both ends of a pair hold
// the same link, and a crash marks every link in and out of the node stale and
// drops the replica stores it held.
func TestShipLinks(t *testing.T) {
	for nodes := 3; nodes <= 6; nodes++ {
		for replicas := 1; replicas <= nodes; replicas++ {
			env := sim.NewEnv(1)
			cfg := DefaultConfig()
			cfg.Nodes, cfg.DataReplicas = nodes, replicas
			c := New(env, cfg)
			r := min(replicas, nodes-1)
			for _, n := range c.Nodes {
				if len(n.ship.links) != r || len(n.inbound) != r {
					t.Fatalf("%d nodes, %d replicas: node %d has %d outbound and %d inbound links, want %d",
						nodes, replicas, n.ID, len(n.ship.links), len(n.inbound), r)
				}
				for i, l := range n.ship.links {
					if l.origin != n || l.follower.ID != (n.ID+1+i)%nodes {
						t.Fatalf("%d nodes, %d replicas: node %d's link %d is %d→%d", nodes, replicas, n.ID, i, l.origin.ID, l.follower.ID)
					}
					if !slices.Contains(l.follower.inbound, l) {
						t.Fatalf("%d nodes, %d replicas: link %d→%d missing from its follower's inbound list", nodes, replicas, n.ID, l.follower.ID)
					}
				}
				for i, l := range n.inbound {
					if l.follower != n || i > 0 && l.origin.ID <= n.inbound[i-1].origin.ID {
						t.Fatalf("%d nodes, %d replicas: node %d's inbound link %d is %d→%d", nodes, replicas, n.ID, i, l.origin.ID, l.follower.ID)
					}
				}
			}
			victim := c.Nodes[nodes-1]
			for _, n := range c.Nodes {
				for _, l := range n.ship.links {
					l.store = newRepStore()
				}
			}
			c.CrashNode(victim)
			for _, n := range c.Nodes {
				for _, l := range n.ship.links {
					touches := l.origin == victim || l.follower == victim
					if l.stale != touches || (l.store == nil) != (l.follower == victim) {
						t.Fatalf("%d nodes, %d replicas: after crashing node %d, link %d→%d stale=%v store=%v",
							nodes, replicas, victim.ID, l.origin.ID, l.follower.ID, l.stale, l.store != nil)
					}
				}
			}
			env.Close()
		}
	}
}

// TestReplicaScanAllocs: a replica-store scan resolves each version chain from
// the stored key and hands the callback one reused key buffer — no allocation
// per row.
func TestReplicaScanAllocs(t *testing.T) {
	const n = 1000
	rp := newReplicaPart()
	for i := n - 1; i >= 0; i-- {
		rp.install(ik(int64(i)), cc.Version{TS: 1, Val: []byte("v")})
	}
	rows := 0
	var prev []byte
	visit := func(k, v []byte) bool {
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("row %d: keys out of order", rows)
		}
		prev = append(prev[:0], k...)
		rows++
		return true
	}
	rp.scan(nil, nil, 1, visit) // folds the key tail in, sizes the key buffer
	if rows != n {
		t.Fatalf("scan saw %d rows, want %d", rows, n)
	}
	lo, hi := ik(100), ik(900)
	if allocs := testing.AllocsPerRun(20, func() {
		prev = prev[:0]
		rp.scan(nil, nil, 1, visit)
		prev = prev[:0]
		rp.scan(lo, hi, 1, visit)
	}); allocs != 0 {
		t.Fatalf("two scans over %d keys allocate %.1f objects, want 0", n, allocs)
	}
}

// TestConcurrentResyncShipsOnce: a forced commit's heal and a restart epilogue
// can both decide to resync the same stale follower; the one that waited for
// the drain lock finds the follower in sync when it gets it and must not ship
// the whole retained log a second time.
func TestConcurrentResyncShipsOnce(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 200)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f := c.Nodes[0], c.Nodes[1]
	origin.ship.link(f).stale = true
	origin.ship.link(f).store = newRepStore()
	sent, tail := c.Net.BytesSent(origin.ID), f.Log.TailLSN()
	var once int64
	for i := 0; i < 2; i++ {
		tc.env.Spawn("resync", func(p *sim.Proc) {
			c.resyncFollower(p, origin.ship.link(f))
			if once == 0 {
				once = c.Net.BytesSent(origin.ID) - sent
			}
		})
	}
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	if origin.ship.link(f).stale || origin.ship.link(f).resyncs != 1 {
		t.Fatalf("after two concurrent resyncs: stale=%v, %d completed; want in sync after exactly one",
			origin.ship.link(f).stale, origin.ship.link(f).resyncs)
	}
	if got := c.Net.BytesSent(origin.ID) - sent; got != once || f.Log.TailLSN() == tail {
		t.Fatalf("origin sent %d bytes for two concurrent resyncs, the first alone sent %d", got, once)
	}
}

// TestCrashInsideRestartEpilogue: a node that loses power again while its
// restart pushes resyncs to its stale followers is down, and RestartNode must
// say so instead of reporting a recovery; the restart after it brings the
// node back with a log that decodes end to end.
func TestCrashInsideRestartEpilogue(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 200)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	n := c.Nodes[1]
	tc.run(t, func(p *sim.Proc) {
		tc.put(t, p, n, 150, "before")
		c.CrashNode(n) // every follower of n goes stale: its restart pushes resyncs
		p.Sleep(time.Second)
		hits := 0
		c.Point = func(at *DataNode, name string) {
			if at == n && name == "ship.resync" {
				if hits++; hits == 1 {
					c.CrashNode(n)
				}
			}
		}
		_, _, err := c.RestartNode(p, n)
		c.Point = nil
		if _, down := err.(ErrNodeDown); !down || !n.Down() || hits == 0 {
			t.Fatalf("restart crashed at ship.resync %d times: err %v, down=%v; want ErrNodeDown", hits, err, n.Down())
		}
		if n.LastRecovery != (RecoveryStats{}) {
			t.Errorf("a restart that ended down recorded a recovery: %+v", n.LastRecovery)
		}
		mustRestart(t, p, c, n)
		it := n.Log.Iter()
		var rec wal.Record
		for it.Next(&rec) {
		}
		if it.Err() != nil {
			t.Fatalf("the log after the second restart does not decode: %v", it.Err())
		}
	})
	oracle := map[int64]string{}
	for i := int64(0); i < 200; i++ {
		oracle[i] = fmt.Sprintf("val-%06d", i)
	}
	oracle[150] = "before"
	tc.verifyOracle(t, oracle)
}

// lostTxn is the first transaction ID shipAndLose stamps its frames with.
const lostTxn = cc.TxnID(1 << 50)

// shipAndLose makes origin lose n frames a follower keeps: appended while
// origin's log disk takes 20 ms a write, shipped by a forced pass — which
// flushes the first live in-sync follower's log — and still in origin's
// volatile tail when it loses power. It returns the flushed boundary origin
// will come back with and the LSNs of the lost frames.
func shipAndLose(t *testing.T, p *sim.Proc, c *Cluster, origin *DataNode, n int) (flushed uint64, lost []uint64) {
	t.Helper()
	origin.HW.LogDisk().SetStall(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		lost = append(lost, origin.Log.Append(wal.Record{Txn: lostTxn + cc.TxnID(i), Type: wal.RecAbort}))
	}
	origin.Log.Kick()
	if !c.shipQueued(p, origin, true) || !c.replicaDurable(origin, lost[n-1]) {
		t.Fatal("setup: the forced pass left the frames short of a durable follower")
	}
	flushed = origin.Log.FlushedLSN()
	if flushed >= lost[0] {
		t.Fatalf("setup: origin flushed through %d, the frames start at %d", flushed, lost[0])
	}
	c.CrashNode(origin)
	origin.HW.LogDisk().SetStall(0)
	return flushed, lost
}

func mustRestart(t *testing.T, p *sim.Proc, c *Cluster, nodes ...*DataNode) {
	t.Helper()
	for _, n := range nodes {
		if _, _, err := c.RestartNode(p, n); err != nil {
			t.Fatalf("restart node %d: %v", n.ID, err)
		}
	}
}

// lastReset returns the newest reset marker follower f's log holds for origin.
func lastReset(f *DataNode, origin int) (marker *wal.ShipFrame) {
	f.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
		if rec.Type == wal.RecShip && rec.Part == uint64(origin) {
			if sf := new(wal.ShipFrame); wal.DecodeShipFrame(rec.After, sf) == nil && sf.Reset {
				marker = sf
			}
		}
		return true
	})
	return marker
}

// TestFollowerAsleepThroughTwoRestarts: follower 2 holds a suffix its origin
// lost, durably, and is down across that restart and the next. Its copy is of
// an old generation and longer than its sibling's, which was resynced in each.
// A rebuild must rank the sibling's copy first — newest generation before
// longest — and follower 2's own resync, when it finally comes, must keep its
// copy through the LOWER of the two boundaries it slept through: the second
// restart's is above the lost suffix.
func TestFollowerAsleepThroughTwoRestarts(t *testing.T) {
	const suffix = 30
	setup := func(t *testing.T, p *sim.Proc, c *Cluster) (first, second uint64) {
		origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
		c.CrashNode(f1) // so the forced pass flushes follower 2
		first, lost := shipAndLose(t, p, c, origin, suffix)
		c.CrashNode(f2)
		p.Sleep(time.Second)
		mustRestart(t, p, c, f1, origin)
		// The origin's second life: three frames over the lost LSNs, acked
		// against follower 1, then the next power failure.
		var lsn uint64
		for i := 0; i < 3; i++ {
			lsn = origin.Log.Append(wal.Record{Txn: cc.TxnID(1<<51 + i), Type: wal.RecAbort})
		}
		if !c.forceShip(p, origin, lsn, origin.ship.gen, false) {
			t.Fatal("setup: origin reported dead")
		}
		c.CrashNode(origin)
		p.Sleep(time.Second)
		mustRestart(t, p, c, origin)
		second = origin.Log.FlushedLSN()
		old, oldGen := streamCopy(f2, origin.ID, f2.Log.FlushedLSN())
		cur, curGen := streamCopy(f1, origin.ID, f1.Log.FlushedLSN())
		if origin.ship.gen != 2 || oldGen != 0 || curGen != 2 || first >= second || second >= lost[suffix-1] || old.max() <= cur.max() {
			t.Fatalf("setup: origin generation %d, boundaries %d and %d, lost suffix through %d; follower 2 holds generation %d through %d, follower 1 generation %d through %d",
				origin.ship.gen, first, second, lost[suffix-1], oldGen, old.max(), curGen, cur.max())
		}
		return first, second
	}
	holdsLost := func(l *wal.Log) (n int) {
		l.VisitFrames(func(rec *wal.Record, frame []byte) bool {
			if rec.Type == wal.RecAbort && rec.Txn >= lostTxn && rec.Txn < lostTxn+suffix {
				n++
			}
			return true
		})
		return n
	}
	t.Run("its resync keeps through the lower boundary", func(t *testing.T) {
		tc := newRepCluster(t, table.Physiological, 4, 100)
		defer tc.env.Close()
		c := tc.c
		c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
		origin, f2 := c.Nodes[0], c.Nodes[2]
		tc.run(t, func(p *sim.Proc) {
			first, _ := setup(t, p, c)
			mustRestart(t, p, c, f2)
			if m := lastReset(f2, origin.ID); m == nil || m.Gen != 2 || m.Keep != first {
				t.Fatalf("follower 2's resync wrote marker %+v, want generation 2 keeping through %d", m, first)
			}
			// Raw, with only its own markers applied, its disk now holds exactly
			// the origin's durable stream.
			held, gen := streamCopy(f2, origin.ID, f2.Log.FlushedLSN())
			if gen != 2 || origin.ship.link(f2).stale {
				t.Fatalf("follower 2 after its resync: generation %d, stale=%v", gen, origin.ship.link(f2).stale)
			}
			n := 0
			origin.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
				if wal.Shippable(rec) && rec.LSN <= origin.Log.FlushedLSN() {
					if n++; !bytes.Equal(held.get(rec.LSN), frame) {
						t.Fatalf("follower 2's copy differs from the origin's log at LSN %d", rec.LSN)
					}
				}
				return true
			})
			if held.len() != n {
				t.Fatalf("follower 2 holds %d frames, the origin's durable stream has %d", held.len(), n)
			}
		})
	})
	t.Run("a rebuild prefers the sibling's shorter, newer copy", func(t *testing.T) {
		tc := newRepCluster(t, table.Physiological, 4, 100)
		defer tc.env.Close()
		c := tc.c
		c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
		origin := c.Nodes[0]
		tc.run(t, func(p *sim.Proc) {
			setup(t, p, c)
			c.DestroyDisk(origin)
			p.Sleep(time.Second)
			mustRestart(t, p, c, origin)
			if n := holdsLost(origin.Log); n != 0 {
				t.Fatalf("the rebuilt log holds %d of the frames the origin lost two generations ago", n)
			}
			kept := 0
			origin.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
				if rec.Type == wal.RecAbort && rec.Txn >= 1<<51 && rec.Txn < 1<<51+3 {
					kept++
				}
				return true
			})
			if kept != 3 {
				t.Fatalf("the rebuilt log holds %d of the 3 frames acked in the second generation", kept)
			}
		})
	})
}

// TestReadersStopAtKeepThrough: between an origin's restart and a follower's
// resync, the follower's disk holds — above the boundary the restart came back
// with — records the origin lost, at LSNs it has since given to others. They
// decode, carry the right LSN and here even the right length, so only the
// boundary keeps them out: RotEligible must not count them as a copy, and the
// scrubber must not patch the origin's log with them.
func TestReadersStopAtKeepThrough(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		flushed, lost := shipAndLose(t, p, c, origin, 8)
		c.CrashNode(f1)
		c.CrashNode(f2)
		p.Sleep(time.Second)
		mustRestart(t, p, c, origin) // resyncs nobody
		var lsn uint64
		for i := range lost {
			lsn = origin.Log.Append(wal.Record{Txn: cc.TxnID(1<<51 + i), Type: wal.RecAbort})
		}
		origin.Log.Flush(p, lsn)
		// One more power failure: the origin's ship queue, whose append-time
		// clones would repair those frames, is gone, and the boundary of this
		// restart is above the lost suffix — the lower one must still hold.
		c.CrashNode(origin)
		p.Sleep(time.Second)
		mustRestart(t, p, c, origin)
		if len(origin.ship.queue) != 0 || origin.Log.FlushedLSN() < lsn {
			t.Fatalf("setup: %d frames queued, flushed %d of %d", len(origin.ship.queue), origin.Log.FlushedLSN(), lsn)
		}
		raw, _ := streamCopy(f1, origin.ID, f1.Log.FlushedLSN())
		target := lost[3]
		var mine []byte
		origin.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
			if rec.LSN == target {
				mine = bytes.Clone(frame)
			}
			return rec.LSN < target
		})
		theirs := raw.get(target)
		if mine == nil || len(theirs) != len(mine) || bytes.Equal(theirs, mine) {
			t.Fatalf("setup: at LSN %d the origin holds %d bytes and follower 1 %d (equal=%v); want two different records of one length",
				target, len(mine), len(theirs), bytes.Equal(theirs, mine))
		}
		if fs := c.shippedCopy(f1, origin); fs.max() != flushed || fs.get(target) != nil {
			t.Errorf("shippedCopy reads follower 1 through %d (frame at %d: %v), want through the restart's boundary %d",
				fs.max(), target, fs.get(target) != nil, flushed)
		}
		eligible := c.RotEligible(origin)
		if eligible(target) || !eligible(flushed) {
			t.Errorf("rot-eligible: LSN %d (no true copy anywhere) %v, LSN %d (on follower 1's disk) %v; want false, true",
				target, eligible(target), flushed, eligible(flushed))
		}
		if got := origin.Log.FlipFlushedBit(5, func(l uint64) bool { return l == target }); got != target {
			t.Fatalf("setup: rot landed on LSN %d, want %d", got, target)
		}
		if n := c.scrubNode(p, origin); n != 0 {
			t.Errorf("the scrubber patched %d frames from a follower's copy of a lost suffix", n)
		}
		if bad := origin.Log.CheckFlushed(); len(bad) != 1 || bad[0] != target {
			t.Errorf("damaged frames after the scrub: %v, want [%d] left alone", bad, target)
		}
	})
}

// TestFollowerReadsMissVolatileCommit: a replica store applies a commit record
// the moment it is shipped, before its origin has flushed it. Until both forces
// are done no snapshot covering the commit may be served by a follower (the
// inflight gate), and if the origin then loses the record, the resync leaves
// nothing of it in the store.
func TestFollowerReadsMissVolatileCommit(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1 := c.Nodes[0], c.Nodes[1]
	e, err := tc.tm.Route(ik(10))
	if err != nil || e.Owner != origin {
		t.Fatalf("route: %v %v", e, err)
	}
	// newest is what follower 1's store holds as key 10's latest version.
	newest := func() (string, cc.Timestamp) {
		v, ok := origin.ship.link(f1).store.parts[e.Part.ID].get(ik(10), ^cc.Timestamp(0))
		if !ok {
			return "", 0
		}
		row, _ := kvSchema().DecodeRow(v.Val)
		return row[1].(string), v.TS
	}
	// served reports whether a snapshot at ts, read from follower 1's node,
	// would be served by its replica store.
	served := func(ts cc.Timestamp) bool {
		s := &Session{m: c.Master, Txn: &cc.Txn{Mode: cc.SnapshotIsolation, Begin: ts}, Home: f1}
		return s.followerFor(e) == origin.ship.link(f1)
	}
	origin.HW.LogDisk().SetStall(20 * time.Millisecond)
	var acked time.Duration
	tc.env.Spawn("commit", func(p *sim.Proc) {
		tc.put(t, p, origin, 10, "first")
		acked = p.Now()
	})
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		val, ts := newest()
		if val != "first" || origin.Log.FlushedLSN() >= origin.Log.TailLSN()-1 || acked != 0 {
			t.Fatalf("setup: 5 ms in, the store's newest version is %q, origin flushed %d of %d, acked at %v; want the commit applied ahead of the origin's flush",
				val, origin.Log.FlushedLSN(), origin.Log.TailLSN()-1, acked)
		}
		if served(ts) || !served(ts-1) {
			t.Errorf("with the commit at %d in flight: a snapshot at %d served by the follower=%v, one below it=%v; want false, true",
				ts, ts, served(ts), served(ts-1))
		}
		p.Sleep(40 * time.Millisecond)
		if acked == 0 || !served(ts) {
			t.Fatalf("after the ack (at %v): a snapshot covering the commit served by the follower=%v", acked, served(ts))
		}
		// Again — and this time the origin loses the record.
		tc.env.Spawn("lost-commit", func(p *sim.Proc) {
			s := c.Master.Begin(p, cc.SnapshotIsolation, origin)
			payload, _ := kvSchema().EncodeRow(table.Row{int64(10), "second"})
			if err := s.Put(p, "kv", ik(10), payload); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if err := s.Commit(p); err == nil {
				t.Error("the commit the origin lost was acknowledged")
			}
		})
		p.Sleep(5 * time.Millisecond)
		if val, _ := newest(); val != "second" {
			t.Fatalf("setup: the store's newest version is %q, want the shipped commit applied", val)
		}
		c.CrashNode(origin)
		origin.HW.LogDisk().SetStall(0)
		p.Sleep(time.Second)
		mustRestart(t, p, c, origin)
		if val, got := newest(); val != "first" || got != ts || origin.ship.link(f1).stale {
			t.Errorf("after the resync the store's newest version is %q at %d (stale=%v), want %q at %d",
				val, got, origin.ship.link(f1).stale, "first", ts)
		}
	})
}

// aheadCrash is what crashAheadOf caught: the record a follower held durably
// and the leader had not flushed, and the oracle's clock at the crash.
type aheadCrash struct {
	rec   wal.Record
	clock cc.Timestamp
}

// crashAheadOf arms c.Point to power-fail leader the first time a forced pass
// of its stream leaves a follower durably holding a lease or decision that
// leader's own log has not flushed (ship.ahead, CoordAhead).
func crashAheadOf(c *Cluster, leader *DataNode) *aheadCrash {
	caught := new(aheadCrash)
	c.Point = func(n *DataNode, name string) {
		if n != leader || name != "ship.ahead" {
			return
		}
		if rec, ok := c.CoordAhead(leader); ok {
			caught.rec, caught.clock = rec, c.Master.Oracle.Clock()
			c.Point = nil
			c.CrashNode(leader)
		}
	}
	return caught
}

// TestElectionOverUnflushedCoordinatorRecords: data frames, acks, leases and
// decisions ship beside the leader's own force; catalog snapshots do not. So a
// leader that dies inside those overlapped forces may leave a follower holding
// a lease or a decision its own disk never got, and an election may adopt it.
// Each kind of record is pinned separately:
//
//   - a catalog snapshot the leader has not flushed is held back, with
//     everything queued behind it: no follower holds it, no election adopts it,
//     and after the leader's restart no follower holds the frames it lost;
//   - a lease ceiling the leader never flushed may be adopted: the new leader's
//     oracle resumes above every timestamp the old one issued;
//   - a decision the leader never flushed may be adopted: its session retries
//     until the decision is logged by a leader, Commit returns nil, and both
//     participants install at the decided timestamp.
func TestElectionOverUnflushedCoordinatorRecords(t *testing.T) {
	t.Run("catalog snapshot", func(t *testing.T) {
		w := newFailoverWorld(t, 300)
		defer w.env.Close()
		c, m := w.c, w.c.Master
		leader, f1 := c.Nodes[0], c.Nodes[1]
		w.runCommits(t, 3)
		// The snapshot carries a partition-ID counter no election may adopt.
		const never = table.PartID(1) << 30
		snap := m.tableRecord("kv")
		st, err := wal.DecodeMasterTable(snap.After)
		if err != nil {
			t.Fatal(err)
		}
		st.NextPartID = uint64(never)
		snap.After = wal.EncodeMasterTable(nil, st)
		leader.HW.LogDisk().SetStall(20 * time.Millisecond)
		var before, behind uint64
		w.env.Spawn("committer", func(p *sim.Proc) {
			leader.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
			m.logMaster(nil, wal.Record{Txn: 1 << 40, Type: wal.RecMAck, After: wal.EncodeMasterAck(nil, 3)}, false)
			before = leader.Log.Append(wal.Record{Txn: 1 << 42, Type: wal.RecAbort})
			m.logMaster(nil, snap, false)
			behind = leader.Log.Append(wal.Record{Txn: 1 << 41, Type: wal.RecAbort})
			if c.forceShip(p, leader, behind, leader.ship.gen, false) {
				t.Error("the wait survived the leader's power failure")
			}
		})
		w.env.Spawn("crash", func(p *sim.Proc) {
			p.Sleep(5 * time.Millisecond)
			held, _ := streamCopy(f1, leader.ID, f1.Log.FlushedLSN())
			if held.get(before) == nil || held.max() != before || leader.Log.FlushedLSN() >= before {
				t.Errorf("5 ms in, follower 1 holds the leader's stream through %d (leader flushed %d); want through the data frame at %d — past the ack, short of the snapshot behind it",
					held.max(), leader.Log.FlushedLSN(), before)
			}
			c.CrashNode(leader)
			leader.HW.LogDisk().SetStall(0)
		})
		if err := w.env.RunUntil(w.env.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
		if m.Fenced() || m.LeaderID() == leader.ID {
			t.Fatalf("no election: fenced=%v leader=%d", m.Fenced(), m.LeaderID())
		}
		if m.nextPartID >= never {
			t.Fatalf("the new leader's partition counter is %d: it adopted a catalog snapshot the old leader never flushed", m.nextPartID)
		}
		// The old leader comes back; its followers' copies, cut at its restart
		// boundary, still hold every coordinator record and nothing else new.
		w.env.Spawn("restart", func(p *sim.Proc) {
			p.Sleep(time.Second)
			mustRestart(t, p, c, leader)
			for _, l := range leader.ship.links {
				held, _ := streamCopy(l.follower, leader.ID, l.follower.Log.FlushedLSN())
				if held.get(before) != nil || held.get(behind) != nil || l.stale {
					t.Errorf("follower %d after its resync: stale=%v, holds the lost data frame=%v, the held-back one=%v",
						l.follower.ID, l.stale, held.get(before) != nil, held.get(behind) != nil)
				}
			}
		})
		if err := w.env.RunUntil(w.env.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
		if acked := w.runCommits(t, 3); len(acked) != 3 {
			t.Fatalf("%d of 3 commits acked after the failover", len(acked))
		}
	})

	t.Run("lease", func(t *testing.T) {
		const commits = 200 // several grants of a 300-timestamp lease, one timestamp a commit
		w := newFailoverWorld(t, 300)
		defer w.env.Close()
		c, m := w.c, w.c.Master
		leader := c.Nodes[0]
		// Past the bootstrap grant's default-sized ceiling first, so that each
		// later grant raises the highest ceiling any disk holds. A commit
		// consumes one timestamp: its snapshot is the published clock.
		w.runCommits(t, defaultLeaseChunk+100)
		var durable cc.Timestamp
		leader.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
			if rec.Type == wal.RecMLease {
				durable = max(durable, rec.TS)
			}
			return true
		})
		// The leader's own force of each grant lags its followers'.
		leader.HW.LogDisk().SetStall(5 * time.Millisecond)
		crash := crashAheadOf(c, leader)
		acked := w.runCommits(t, commits)
		grant, issued := crash.rec, crash.clock
		if grant.Type != wal.RecMLease || grant.TS <= durable || grant.TS <= issued {
			t.Fatalf("setup: caught no grant above the highest durable ceiling %d and the clock %d (caught %d)", durable, issued, grant.TS)
		}
		if len(acked) != commits || m.Failovers() != 1 || m.LeaderID() == leader.ID {
			t.Fatalf("%d of %d commits acked over %d failovers, leader %d", len(acked), commits, m.Failovers(), m.LeaderID())
		}
		resumed := false
		for i, ts := range acked {
			if i > 0 && ts <= acked[i-1] {
				t.Fatalf("commit %d acked at %d after one at %d", i, ts, acked[i-1])
			}
			if ts > issued {
				resumed = true
				if ts < grant.TS {
					t.Fatalf("commit %d acked at %d: the new leader resumed below the ceiling %d a follower held", i, ts, grant.TS)
				}
			}
		}
		if !resumed {
			t.Fatalf("no commit acked above %d, the last timestamp the old leader issued", issued)
		}
	})

	t.Run("decision", func(t *testing.T) {
		w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.MasterReplicas = 2 })
		defer w.env.Close()
		c := w.c
		leader := c.Nodes[0]
		leader.HW.LogDisk().SetStall(20 * time.Millisecond)
		crash := crashAheadOf(c, leader)
		var commitTS cc.Timestamp
		var err error
		w.env.Spawn("commit", func(p *sim.Proc) {
			s := c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
			for _, k := range []int64{idLeft, idRight} {
				payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
				if perr := s.Put(p, "kv", ik(k), payload); perr != nil {
					t.Errorf("put %d: %v", k, perr)
					return
				}
			}
			err = s.Commit(p)
			commitTS = s.Txn.Commit
		})
		if rerr := w.env.Run(); rerr != nil {
			t.Fatal(rerr)
		}
		decision := crash.rec
		if decision.Type != wal.RecDecision {
			t.Fatal("setup: the decision did not reach a follower ahead of the leader's flush")
		}
		if err != nil || c.Master.Failovers() != 1 {
			t.Fatalf("Commit returned %v across %d failovers, want nil across one", err, c.Master.Failovers())
		}
		if decision.TS != commitTS {
			t.Fatalf("setup: the caught decision is at %d, the commit at %d", decision.TS, commitTS)
		}
		// Each participant's partition shows the new value from the decided
		// timestamp on, and the old one just below it.
		for _, k := range []int64{idLeft, idRight} {
			n := w.n1
			if k == idRight {
				n = w.n2
			}
			for _, pt := range n.Parts {
				for _, tt := range []struct {
					snap cc.Timestamp
					want string
				}{{commitTS - 1, fmt.Sprintf(idOldVal, k)}, {commitTS, "new"}} {
					var got string
					w.env.Spawn("read", func(p *sim.Proc) {
						v, ok, rerr := pt.Get(p, &cc.Txn{Mode: cc.SnapshotIsolation, Begin: tt.snap}, ik(k))
						if rerr == nil && ok {
							row, _ := kvSchema().DecodeRow(v)
							got = row[1].(string)
						}
					})
					if rerr := w.env.Run(); rerr != nil {
						t.Fatal(rerr)
					}
					if got != tt.want {
						t.Errorf("node %d, key %d at %d reads %q, want %q", n.ID, k, tt.snap, got, tt.want)
					}
				}
			}
		}
	})
}

// TestApplyStreamAllocs: a warm replica store applies a shipped stream without
// allocating per frame — the frame itself is retained, the decoded record
// points into it, staging lists are recycled, and an install on a known key
// appends to its chain. What is left is the amortised growth of the chains and
// the frame list.
func TestApplyStreamAllocs(t *testing.T) {
	const frames, keys = 1000, 40
	env := sim.NewEnv(1)
	defer env.Close()
	var out [][]byte
	origin := wal.NewLog(env, nil) // never flushed: only its framing is used
	origin.SetAppendHook(func(_ wal.Record, frame []byte) { out = append(out, frame) })
	var ts cc.Timestamp
	// stream returns the next 1000 frames of the origin's log — transactions of
	// nine updates and a commit — and the LSN of the first.
	stream := func() ([][]byte, uint64) {
		out = nil
		first := origin.TailLSN()
		for len(out) < frames {
			txn := cc.TxnID(origin.TailLSN())
			ts++
			for i := 0; i < 9; i++ {
				k := ik(int64((int(origin.TailLSN()) * 7) % keys))
				origin.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Part: 3, Key: k,
					After: table.EncodeValue(cc.Version{TS: ts, Val: []byte("value-of-some-length")})})
			}
			origin.Append(wal.Record{Txn: txn, Type: wal.RecCommit})
		}
		return out, first
	}
	st := newRepStore()
	apply := func(batch [][]byte, first uint64) {
		for i, fr := range batch {
			st.applyFrame(first+uint64(i), fr)
		}
	}
	apply(stream()) // warm: every key known, staging lists and chains grown
	apply(stream())
	batches := make([][][]byte, 0, 6)
	firsts := make([]uint64, 0, 6)
	for i := 0; i < 6; i++ {
		b, f := stream()
		batches, firsts = append(batches, b), append(firsts, f)
	}
	next := 0
	allocs := testing.AllocsPerRun(5, func() {
		apply(batches[next], firsts[next])
		next++
	})
	if perFrame := allocs / frames; perFrame > 0.1 {
		t.Fatalf("applying %d frames to a warm store allocates %.0f objects, %.2f per frame; want amortised growth only (< 0.1)", frames, allocs, perFrame)
	}
	if got, want := st.applied, firsts[5]+frames-1; got != want {
		t.Fatalf("store applied through %d, want every frame through %d", got, want)
	}
	if v, ok := st.parts[3].get(ik(7), ts); !ok || v.TS == 0 {
		t.Fatalf("key 7 unreadable at the newest snapshot: %v %v", v, ok)
	}
}

// TestResyncCoversShippedUnflushedFrames: frames leave the queue the moment a
// pass delivers them to the followers in sync at that instant — before the
// origin has flushed them. A follower resynced right then gets them from the
// resync or not at all, so the resync must reach as far as a pass would, not
// stop at the origin's flushed boundary.
func TestResyncCoversShippedUnflushedFrames(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	origin.ship.link(f1).stale = true // it missed a delivery
	origin.HW.LogDisk().SetStall(20 * time.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		origin.Log.Kick()
		if !c.shipQueued(p, origin, false) || origin.ship.link(f2).store.applied < lsn || len(origin.ship.queue) != 0 {
			t.Fatalf("setup: the pass did not deliver the frame to follower 2 and pop it (%d queued)", len(origin.ship.queue))
		}
		c.resyncFollower(p, origin.ship.link(f1))
		if origin.Log.FlushedLSN() >= lsn {
			t.Fatal("setup: the origin's flush finished before the resync")
		}
		if origin.ship.link(f1).stale || origin.ship.link(f1).store.applied < lsn || origin.ship.link(f1).sent < lsn {
			t.Fatalf("after its resync follower 1 (stale=%v, sent through %d) lacks the frame at %d that was shipped and popped ahead of the origin's flush",
				origin.ship.link(f1).stale, origin.ship.link(f1).sent, lsn)
		}
	})
}

// TestStreamCopyWrapperBranches reads hand-built wrappers of origin 0 on a
// follower's log through streamCopy. A wrapper whose payload does not decode
// is skipped, and so is a straggler of an older generation arriving after a
// reset marker. When the marker itself rots, the copy keeps nothing from
// before the next generation's first frame: it cannot tell what the marker
// kept.
func TestStreamCopyWrapperBranches(t *testing.T) {
	type wrapper struct {
		sf      wal.ShipFrame
		garbage bool // a payload that does not decode instead of sf's
		rot     bool // flip a bit of the wrapper's frame once it is durable
	}
	data := func(gen, lsn uint64) wrapper {
		return wrapper{sf: wal.ShipFrame{LSN: lsn, Gen: gen, Frame: []byte(fmt.Sprintf("g%d@%d", gen, lsn))}}
	}
	reset := func(gen, keep uint64, rot bool) wrapper {
		return wrapper{sf: wal.ShipFrame{Gen: gen, Reset: true, Keep: keep}, rot: rot}
	}
	for _, tt := range []struct {
		name     string
		wrappers []wrapper
		want     string
	}{
		{"an undecodable payload and another origin's wrapper are skipped", []wrapper{
			data(0, 1), {garbage: true}, {sf: wal.ShipFrame{Origin: 2, LSN: 2, Frame: []byte("other origin")}}, data(0, 2),
		}, "gen 0: g0@1 g0@2"},
		{"a marker keeps through its LSN", []wrapper{
			data(0, 1), data(0, 2), data(0, 3), reset(1, 2, false), data(1, 3), data(1, 4),
		}, "gen 1: g0@1 g0@2 g1@3 g1@4"},
		{"a straggler of an older generation is skipped", []wrapper{
			data(0, 1), data(0, 2), data(0, 3), reset(1, 2, false), data(0, 4), data(1, 3),
		}, "gen 1: g0@1 g0@2 g1@3"},
		{"a rotted marker keeps nothing from before the next generation", []wrapper{
			data(0, 1), data(0, 2), data(0, 3), reset(1, 2, true), data(1, 3), data(1, 4),
		}, "gen 1: g1@3 g1@4"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			defer env.Close()
			f := &DataNode{ID: 1, Log: wal.NewLog(env, nil)}
			var bad []uint64
			for _, w := range tt.wrappers {
				payload := []byte("not a ship payload")
				if !w.garbage {
					payload = wal.EncodeShipFrame(nil, &w.sf)
				}
				lsn := f.Log.Append(wal.Record{Type: wal.RecShip, Part: uint64(w.sf.Origin), After: payload})
				if w.rot {
					bad = append(bad, lsn)
				}
			}
			f.Log.SetupFlush()
			// FlipFlushedBit rots only frames a replica could repair, which a
			// wrapper is not: the bit flips in place, in the segment bytes the
			// walk aliases.
			f.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
				if slices.Contains(bad, rec.LSN) {
					frame[len(frame)-1] ^= 1
				}
				return true
			})
			if got := f.Log.CheckFlushed(); !slices.Equal(got, bad) {
				t.Fatalf("setup: damaged frames %v, want %v", got, bad)
			}
			fs, gen := streamCopy(f, 0, f.Log.FlushedLSN())
			got := fmt.Sprintf("gen %d:", gen)
			for i, lsn := range fs.lsns {
				if want := fmt.Sprintf("@%d", lsn); !bytes.HasSuffix(fs.frames[i], []byte(want)) {
					t.Fatalf("frame %q held at LSN %d", fs.frames[i], lsn)
				}
				got += " " + string(fs.frames[i])
			}
			if got != tt.want {
				t.Fatalf("streamCopy = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestStreamCopyAllocs: a copy of a follower's shipped stream is read in
// place and sized once from the log's frame count, so copying eight times
// the history allocates the same objects — none per frame.
func TestStreamCopyAllocs(t *testing.T) {
	allocs := func(commits int) (float64, int) {
		tc := newRepClusterWith(t, table.Physiological, 2, 100, func(cfg *Config) { cfg.DataReplicas = 1 })
		defer tc.env.Close()
		c := tc.c
		origin, f := c.Nodes[0], c.Nodes[1]
		var part uint64
		for id := range origin.Parts {
			part = uint64(id)
		}
		val := table.EncodeValue(cc.Version{TS: 1, Val: []byte("v")})
		for i := 0; i < commits; i++ {
			txn := cc.TxnID(1<<40 + i)
			origin.Log.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Part: part, Key: ik(int64(i % 50)), After: val})
			origin.Log.Append(wal.Record{Txn: txn, Type: wal.RecCommit})
		}
		c.SetupReplicationDrain() // the whole stream: wrappers on f's log, durable
		held := 0
		n := testing.AllocsPerRun(10, func() {
			fs, _ := streamCopy(f, origin.ID, f.Log.FlushedLSN())
			held = fs.len()
		})
		if held < 2*commits {
			t.Fatalf("follower's copy holds %d frames, want at least the %d appended", held, 2*commits)
		}
		return n, held
	}
	small, n := allocs(500)
	large, m := allocs(4000)
	if small != large {
		t.Fatalf("streamCopy of %d frames allocates %.0f objects, of %d frames %.0f: want the same", n, small, m, large)
	}
}

// TestScrubRepairsFromDurableCopy: with the origin's only follower crashed or
// stale, no replica store can serve a repair, and the frame is long gone from
// the origin's ship queue. A rotted data frame must still be repaired — from
// the follower's durable wrappers, the copy RotEligible vouches for.
func TestScrubRepairsFromDurableCopy(t *testing.T) {
	for _, follower := range []string{"crashed", "stale"} {
		t.Run(follower, func(t *testing.T) {
			tc := newRepClusterWith(t, table.Physiological, 3, 100, func(cfg *Config) { cfg.DataReplicas = 1 })
			defer tc.env.Close()
			c := tc.c
			c.SetupReplicationDrain()
			origin := c.Nodes[0]
			f := origin.ship.links[0].follower
			tc.run(t, func(p *sim.Proc) {
				for k := int64(0); k < 10; k++ {
					tc.put(t, p, origin, k, fmt.Sprintf("new-%d", k))
				}
				if follower == "crashed" {
					c.CrashNode(f)
				} else {
					origin.ship.links[0].stale = true
				}
				var target uint64
				origin.Log.VisitFrames(func(rec *wal.Record, frame []byte) bool {
					if rec.Type == wal.RecUpdate && rec.LSN <= origin.Log.FlushedLSN() {
						target = rec.LSN
					}
					return true
				})
				if target == 0 || len(origin.ship.queue) != 0 {
					t.Fatalf("setup: durable update at LSN %d, %d frames still queued", target, len(origin.ship.queue))
				}
				if !c.RotEligible(origin)(target) {
					t.Fatalf("setup: LSN %d has no durable copy on the follower", target)
				}
				if got := origin.Log.FlipFlushedBit(3, func(lsn uint64) bool { return lsn == target }); got != target {
					t.Fatalf("setup: rot landed on LSN %d, want %d", got, target)
				}
				before := c.drep.ScrubRepairs
				if n := c.scrubNode(p, origin); n != 1 || c.drep.ScrubRepairs != before+1 {
					t.Fatalf("the scrubber repaired %d frames, want 1", n)
				}
				if bad := origin.Log.CheckFlushed(); len(bad) != 0 {
					t.Fatalf("frames %v still damaged after the scrub", bad)
				}
			})
		})
	}
}
