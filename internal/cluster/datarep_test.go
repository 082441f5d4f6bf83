package cluster

import (
	"bytes"
	"fmt"
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
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.DataReplicas = 2
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
		tc.c.drep.addInflight(0, cc.TxnID(1<<30), 1)
		if got := readKey(); got != "fresh" {
			t.Fatalf("owner fallback read %q, want %q", got, "fresh")
		}
		_, _, blocked, _ := tc.c.ReplicationStats()
		if blocked != after {
			t.Fatalf("followerReads advanced to %d during an inflight commit below the snapshot", blocked)
		}

		// The commit replicates; followers are safe again.
		tc.c.drep.delInflight(0, cc.TxnID(1<<30))
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
	for _, f := range tc.c.followersOf(origin.ID) {
		origin.ship.stale[f.ID] = true
		f.stores[origin.ID] = newRepStore()
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

	sh := origin.ship
	for _, f := range tc.c.followersOf(origin.ID) {
		if sh.stale[f.ID] {
			t.Errorf("follower %d still stale after the forced commit", f.ID)
		}
		if sh.durable[f.ID] < sh.lastShippable {
			t.Errorf("follower %d durable=%d < lastShippable=%d", f.ID, sh.durable[f.ID], sh.lastShippable)
		}
		if st := f.stores[origin.ID]; st == nil || len(st.frames) == 0 {
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
			if !ok || len(marks) == 0 || marks[0].f != f1 || marks[0].through != lsn {
				t.Errorf("send stage: ok=%v marks=%+v, want follower 1 first, through %d", ok, marks, lsn)
			}
			return lsn, marks
		}
		before := origin.ship.durable[f1.ID]
		first, early := send(1 << 40)
		second, late := send(1 << 41)
		if origin.ship.durable[f1.ID] != before {
			t.Errorf("durable moved %d -> %d before the follower flushed anything", before, origin.ship.durable[f1.ID])
			return
		}
		c.confirmShipped(p, origin, late, true) // forces the follower through both batches
		if got := origin.ship.durable[f1.ID]; got != second {
			t.Errorf("after the later pass confirmed: durable %d, want %d", got, second)
			return
		}
		flushes := f1.Log.Flushes
		c.confirmShipped(p, origin, early, true)
		if got := origin.ship.durable[f1.ID]; got != second || f1.Log.Flushes != flushes {
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
		leader.Log.Flush(p, leader.Log.Append(wal.Record{Txn: 1 << 41, Type: wal.RecAbort}))
		if !c.forceShip(p, leader) {
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
		frames, _, _ := durableShippedFrames(f1, leader.ID)
		if !replicated || frames[masterLSN] == nil {
			t.Errorf("logMaster returned %v with the record durable on the follower: %v", replicated, frames[masterLSN] != nil)
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if busy == 0 || masterDone != committerDone {
		t.Fatalf("coordinator answered at %v, the committer's follower force returned at %v: want the same instant", masterDone, committerDone)
	}
}

// TestShipPassAllocs: ship sets are tables built once and a pass works in
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
		if &c.followersOf(0)[0] != &c.followersOf(0)[0] || &c.originsOf(0)[0] != &c.originsOf(0)[0] {
			t.Error("ship sets are rebuilt per call")
			return
		}
	})
}

// TestReplicaScanAllocs: a replica-store scan resolves each version chain from
// the stored key and hands the callback one reused key buffer — no allocation
// per row.
func TestReplicaScanAllocs(t *testing.T) {
	const n = 1000
	rp := &replicaPart{vers: make(map[string][]cc.Version)}
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
	origin.ship.stale[f.ID] = true
	f.stores[origin.ID] = newRepStore()
	sent, tail := c.Net.BytesSent(origin.ID), f.Log.TailLSN()
	var once int64
	for i := 0; i < 2; i++ {
		tc.env.Spawn("resync", func(p *sim.Proc) {
			c.resyncFollower(p, origin, f)
			if once == 0 {
				once = c.Net.BytesSent(origin.ID) - sent
			}
		})
	}
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	if origin.ship.stale[f.ID] || origin.ship.resyncs[f.ID] != 1 {
		t.Fatalf("after two concurrent resyncs: stale=%v, %d completed; want in sync after exactly one",
			origin.ship.stale[f.ID], origin.ship.resyncs[f.ID])
	}
	if got := c.Net.BytesSent(origin.ID) - sent; got != once || f.Log.TailLSN() == tail {
		t.Fatalf("origin sent %d bytes for two concurrent resyncs, the first alone sent %d", got, once)
	}
}
