package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// remoteCommitTime runs the indoubtWorld transaction (one key on node 1, one
// on node 2) from node 0 — both participants remote, nothing replicated —
// with the given extra service time on each participant's log disk, and
// returns how long Commit took.
func remoteCommitTime(t *testing.T, stall1, stall2 time.Duration) time.Duration {
	t.Helper()
	w := newIndoubtWorld(t)
	defer w.env.Close()
	w.n1.HW.LogDisk().SetStall(stall1)
	w.n2.HW.LogDisk().SetStall(stall2)
	var took time.Duration
	w.env.Spawn("commit", func(p *sim.Proc) {
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
			if err := s.Put(p, "kv", ik(k), payload); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		start := p.Now()
		if err := s.Commit(p); err != nil {
			t.Errorf("commit: %v", err)
		}
		took = p.Now() - start
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	return took
}

// TestTwoPhaseBranchesOverlap pins the concurrent participant legs of a
// distributed commit: with two remote participants each phase costs its
// slower leg, not the sum of both.
func TestTwoPhaseBranchesOverlap(t *testing.T) {
	// What the same commit took when both phases walked the participants one
	// after the other (measured at the commit before the legs went parallel).
	const serial = 12765928 * time.Nanosecond
	plain := remoteCommitTime(t, 0, 0)
	if limit := serial * 65 / 100; plain > limit {
		t.Fatalf("commit over two remote participants took %v, want <= %v (0.65 x the serial %v)", plain, limit, serial)
	}
	// Slow down the log disk of one participant, of the other, of both: the
	// slowed legs overlap, so slowing both costs no more than slowing one.
	const stall = 2 * time.Millisecond
	slow1 := remoteCommitTime(t, stall, 0)
	slow2 := remoteCommitTime(t, 0, stall)
	both := remoteCommitTime(t, stall, stall)
	if slow1 <= plain || slow2 <= plain {
		t.Fatalf("a slower participant did not slow the commit: plain %v, node 1 slow %v, node 2 slow %v", plain, slow1, slow2)
	}
	slower := slow1
	if slow2 > slower {
		slower = slow2
	}
	if both != slower {
		t.Fatalf("both participants slow: commit took %v, want the slower leg's %v (the sum would be %v)",
			both, slower, slow1+slow2-plain)
	}
}

// shippedAt polls follower f's log every 10 us and returns when its tail
// first moved past from — the instant a shipped batch landed there.
func shippedAt(env *sim.Env, f *DataNode, from uint64, at *time.Duration) {
	env.Spawn("watch", func(p *sim.Proc) {
		for i := 0; i < 10000 && *at == 0; i++ {
			if f.Log.TailLSN() > from {
				*at = p.Now()
				return
			}
			p.Sleep(10 * time.Microsecond)
		}
	})
}

// TestForcedShipLandsOnAllFollowersAtOnce pins the one-to-many delivery of a
// forced pass: both live followers hold the batch at the same simulated
// instant, one propagation delay after the copies left the origin's uplink,
// and exactly one follower log is force-flushed.
func TestForcedShipLandsOnAllFollowersAtOnce(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	var at1, at2 time.Duration
	tc.run(t, func(p *sim.Proc) {
		lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		origin.Log.Flush(p, lsn)
		flushes1, flushes2 := f1.Log.Flushes, f2.Log.Flushes
		shippedAt(tc.env, f1, f1.Log.TailLSN(), &at1)
		shippedAt(tc.env, f2, f2.Log.TailLSN(), &at2)
		start := p.Now()
		if !c.shipQueued(p, origin, true) {
			t.Fatal("origin reported dead")
		}
		st1, st2 := origin.ship.link(f1).store, origin.ship.link(f2).store
		if st1.applied != lsn || st2.applied != lsn {
			t.Fatalf("applied through %d and %d, want %d on both followers", st1.applied, st2.applied, lsn)
		}
		if got1, got2 := f1.Log.Flushes-flushes1, f2.Log.Flushes-flushes2; got1 != 1 || got2 != 0 {
			t.Fatalf("forced pass flushed follower 1 %d times and follower 2 %d times, want 1 and 0", got1, got2)
		}
		if !c.replicaDurable(origin, lsn) || origin.ship.link(f1).durable < lsn {
			t.Fatalf("frame %d not replica-durable after the forced pass", lsn)
		}
		if len(origin.ship.queue) != 0 {
			t.Fatalf("%d frames still queued", len(origin.ship.queue))
		}
		// Two copies on the uplink, one latency: well under two transfers.
		if sent := at1 - start; sent >= 2*c.Cal.NetLatency {
			t.Fatalf("batch landed %v after the pass began: paid a latency per follower", sent)
		}
	})
	if at1 == 0 || at1 != at2 {
		t.Fatalf("batch landed on follower 1 at %v and on follower 2 at %v, want one instant", at1, at2)
	}
}

// TestForcedPassPicksReadyFollower pins which follower a forced pass flushes
// when it has two to choose from: none if one of them is durable through its
// wrapper already, the first whose log has no write in flight, and — with a
// write in flight on both — the first in ring order.
func TestForcedPassPicksReadyFollower(t *testing.T) {
	const stall = 5 * time.Millisecond
	cases := []struct {
		name         string
		busy         []int // followers (1, 2) with a write in flight when the pass starts
		ready        bool  // follower 2 already flushed through its wrapper
		want1, want2 int64 // device writes on each follower's log during the pass
		durable      int   // the follower the pass makes durable
	}{
		{name: "one already durable", ready: true, durable: 2},
		// Follower 1's write is still in flight when the pass returns.
		{name: "idle second over busy first", busy: []int{1}, want1: 0, want2: 1, durable: 2},
		{name: "both busy: ring order", busy: []int{1, 2}, want1: 2, want2: 1, durable: 1},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			tc := newRepCluster(t, table.Physiological, 4, 100)
			defer tc.env.Close()
			c := tc.c
			c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
			origin := c.Nodes[0]
			fs := []*DataNode{nil, c.Nodes[1], c.Nodes[2]}
			tc.run(t, func(p *sim.Proc) {
				lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
				origin.Log.Flush(p, lsn)
				if tcase.ready {
					c.shipQueued(p, origin, false) // delivered, nobody forced
					fs[2].Log.Flush(p, fs[2].Log.TailLSN()-1)
				}
				for _, i := range tcase.busy {
					fs[i].HW.LogDisk().SetStall(stall)
					fs[i].Log.Append(wal.Record{Txn: 1 << 41, Type: wal.RecAbort})
					fs[i].Log.Kick()
				}
				p.Sleep(time.Microsecond) // the kicked writes start
				for _, i := range tcase.busy {
					if !fs[i].Log.Flushing() {
						t.Fatalf("setup: no write in flight on follower %d", i)
					}
				}
				flushes1, flushes2 := fs[1].Log.Flushes, fs[2].Log.Flushes
				if !c.shipQueued(p, origin, true) {
					t.Fatal("origin reported dead")
				}
				if got1, got2 := fs[1].Log.Flushes-flushes1, fs[2].Log.Flushes-flushes2; got1 != tcase.want1 || got2 != tcase.want2 {
					t.Errorf("device writes during the pass: follower 1 %d, follower 2 %d; want %d and %d",
						got1, got2, tcase.want1, tcase.want2)
				}
				if l := origin.ship.link(fs[tcase.durable]); l.durable < lsn {
					t.Errorf("follower %d durable through %d after the forced pass, want >= %d", tcase.durable, l.durable, lsn)
				}
			})
		})
	}
}

// TestForcedShipFollowerCrashMidSend: a follower that power-fails while the
// batch is on the wire is marked stale; its sibling receives, flushes and
// acks, so the forced pass still makes the frames replica-durable.
func TestForcedShipFollowerCrashMidSend(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		origin.Log.Flush(p, lsn)
		flushes2 := f2.Log.Flushes
		tc.env.After(c.Cal.NetLatency/2, func() { c.CrashNode(f1) })
		if !c.shipQueued(p, origin, true) {
			t.Fatal("origin reported dead")
		}
		if !origin.ship.link(f1).stale {
			t.Fatal("follower that crashed during the send is not marked stale")
		}
		if origin.ship.link(f2).stale || origin.ship.link(f2).durable < lsn || f2.Log.Flushes != flushes2+1 {
			t.Fatalf("surviving follower: stale=%v durable=%d (want >= %d) flushes=+%d (want +1)",
				origin.ship.link(f2).stale, origin.ship.link(f2).durable, lsn, f2.Log.Flushes-flushes2)
		}
		if !c.replicaDurable(origin, lsn) {
			t.Fatal("frame not replica-durable although one follower acked")
		}
	})
}

// TestForceShipTargetOnUnshippedFrame: a forced waiter's target is its own
// frame, and its pass ships that frame while the origin's force of it is still
// in flight — with everything else queued, flushed at the origin or not. The
// records around the target may be ones that never ship (here a wrapper of the
// stream this node follows, above it): the pass's boundary is the log's tail,
// so one pass satisfies the waiter, without a retry sleep. The old rule — only
// the origin-flushed prefix ships — is gone; what replaces it is that no reader
// uses such a frame once the origin has lost it: after a crash that cuts the
// origin's force short and a restart, the follower's disk still holds the
// frame, and shippedCopy, which every reader goes through, does not return it.
func TestForceShipTargetOnUnshippedFrame(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain()           // the bulk-loaded base images are on every follower
	origin, f := c.Nodes[1], c.Nodes[2] // node 1 follows node 0 and ships to node 2
	origin.HW.LogDisk().SetStall(20 * time.Millisecond)
	var own uint64
	done := false
	tc.env.Spawn("test", func(p *sim.Proc) {
		// Node 0 ships a frame to node 1: a RecShip wrapper on node 1's log.
		l0 := c.Nodes[0].Log.Append(wal.Record{Txn: 1 << 41, Type: wal.RecAbort})
		if !c.forceShip(p, c.Nodes[0], l0, 0, false) {
			t.Error("node 0 reported dead")
			return
		}
		origin.Log.Flush(p, origin.Log.TailLSN()-1)
		// The waiter's frame, then a wrapper above it: neither is flushed.
		own = origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		l0 = c.Nodes[0].Log.Append(wal.Record{Txn: 1 << 42, Type: wal.RecAbort})
		if !c.shipQueued(p, c.Nodes[0], false) || origin.Log.TailLSN()-1 == own {
			t.Error("setup: no wrapper landed above the waiter's frame")
			return
		}
		start := p.Now()
		shipped := false
		tc.env.After(5*time.Millisecond, func() {
			// Long before the origin's 21.75 ms force returns, the follower
			// holds the frame durably.
			held, _ := streamCopy(f, origin.ID, f.Log.FlushedLSN())
			shipped = held.get(own) != nil && origin.Log.FlushedLSN() < own
		})
		if !c.forceShip(p, origin, own, 0, false) {
			t.Error("origin reported dead")
		}
		if !shipped {
			t.Error("5 ms into the wait the follower did not hold the frame durably ahead of the origin")
		}
		if took := p.Now() - start; took >= shipRetryDelay || c.drep.ShipRetries != 0 {
			t.Errorf("forceShip took %v and %d retry sleeps: one pass should have satisfied it", took, c.drep.ShipRetries)
		}
		if !c.replicaDurable(origin, own) || origin.Log.FlushedLSN() < own {
			t.Errorf("acked with the frame at %d not durable in both places (flushed %d)", own, origin.Log.FlushedLSN())
		}
		// Again, and this time the origin loses power before its force is done.
		lost := origin.Log.Append(wal.Record{Txn: 1 << 43, Type: wal.RecAbort})
		tc.env.After(5*time.Millisecond, func() { c.CrashNode(origin) })
		if c.forceShip(p, origin, lost, 0, false) {
			t.Error("a wait without park survived the origin's power failure")
		}
		if held, _ := streamCopy(f, origin.ID, f.Log.FlushedLSN()); held.get(lost) == nil || origin.Log.FlushedLSN() >= lost {
			t.Error("setup: the crash did not leave the follower holding a frame the origin lost")
		}
		p.Sleep(time.Second)
		if _, _, err := c.RestartNode(p, origin); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for _, l := range origin.ship.links {
			if fs := c.shippedCopy(l.follower, origin); fs.get(lost) != nil || fs.get(own) == nil {
				t.Errorf("follower %d after the restart: lost frame readable=%v, surviving frame readable=%v; want false and true",
					l.follower.ID, fs.get(lost) != nil, fs.get(own) != nil)
			}
		}
		done = true
	})
	if err := tc.env.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the test body did not finish")
	}
}

// TestFollowerForPrefersHomeCopy pins the cheapest-eligible-copy rule for
// snapshot reads. Node 0 owns the low keys; its replica set is nodes 1 and 2.
func TestFollowerForPrefersHomeCopy(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	tc.run(t, func(p *sim.Proc) {
		e, err := tc.tm.Route(ik(10))
		if err != nil || e.Owner != c.Nodes[0] {
			t.Fatalf("route: owner %v err %v", e.Owner, err)
		}
		picks := func(home *DataNode, prefer bool) []int {
			s := c.Master.Begin(p, cc.SnapshotIsolation, home)
			defer s.Abort(p)
			s.PreferFollower = prefer
			var out []int
			for i := 0; i < 6; i++ {
				if l := s.followerFor(e); l != nil {
					out = append(out, l.follower.ID)
				} else {
					out = append(out, -1) // the owner
				}
			}
			return out
		}
		for _, tt := range []struct {
			name   string
			home   int
			prefer bool
			want   []int
		}{
			{"owner at home: never a replica", 0, false, []int{-1, -1, -1, -1, -1, -1}},
			{"owner at home, follower hint: a replica, none is local", 0, true, []int{1, 1, 1, 1, 1, 1}},
			{"replica at home: always that replica", 2, false, []int{2, 2, 2, 2, 2, 2}},
			{"replica at home, follower hint: the home store first", 2, true, []int{2, 2, 2, 2, 2, 2}},
			{"every copy remote: replica and owner alternate", 3, false, []int{1, -1, 1, -1, 1, -1}},
			{"every copy remote, follower hint: always a replica", 3, true, []int{1, 1, 1, 1, 1, 1}},
		} {
			if got := picks(c.Nodes[tt.home], tt.prefer); !equalInts(got, tt.want) {
				t.Errorf("%s: home %d picked %v, want %v", tt.name, tt.home, got, tt.want)
			}
		}
		// The safety gates outrank locality: a commit in flight below the
		// snapshot sends even the home replica's reader to the owner.
		c.Nodes[0].Commits.Add(1, &cc.Txn{})
		if got := picks(c.Nodes[2], false); !equalInts(got, []int{-1, -1, -1, -1, -1, -1}) {
			t.Errorf("inflight commit below the snapshot: home replica picked %v, want the owner every time", got)
		}
		c.Nodes[0].Commits.Del(1)
		// A read served by the home store sends nothing.
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		msgs, reads := c.Net.Messages(2), c.drep.FollowerReads
		if _, ok, err := s.Get(p, "kv", ik(10)); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
		if c.drep.FollowerReads != reads+1 || c.Net.Messages(2) != msgs {
			t.Errorf("home-replica read: follower reads +%d, messages +%d; want +1 and +0",
				c.drep.FollowerReads-reads, c.Net.Messages(2)-msgs)
		}
		s.Abort(p)
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReadOnlyCommitStaysLocal: a snapshot transaction that wrote nothing and
// locked nothing ends at its home node — no message to the master, no commit
// timestamp — and one that began before the coordinator was fenced still
// commits during the fence: its reads succeeded, nothing is left to refuse.
func TestReadOnlyCommitStaysLocal(t *testing.T) {
	w := newFailoverWorld(t, 300)
	defer w.env.Close()
	c := w.c
	leader := c.Nodes[0]
	w.env.Spawn("reader", func(p *sim.Proc) {
		// OrderStatus / StockLevel shape: a few gets and a scan, then commit.
		read := func(s *Session) {
			if _, _, err := s.Get(p, "kv", ik(1)); err != nil {
				t.Errorf("get: %v", err)
			}
			if err := s.Scan(p, "kv", ik(0), ik(50), func(k, v []byte) bool { return true }); err != nil {
				t.Errorf("scan: %v", err)
			}
		}
		s := c.Master.Begin(p, cc.SnapshotIsolation, w.data)
		read(s)
		var before int64
		for _, n := range c.Nodes {
			before += c.Net.Messages(n.ID)
		}
		clock, active := c.Master.Oracle.Clock(), c.Master.Oracle.ActiveCount()
		start := p.Now()
		if err := s.Commit(p); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
		var after int64
		for _, n := range c.Nodes {
			after += c.Net.Messages(n.ID)
		}
		if after != before || p.Now() != start {
			t.Errorf("read-only commit sent %d messages and took %v, want none and no time", after-before, p.Now()-start)
		}
		if c.Master.Oracle.Clock() != clock {
			t.Errorf("read-only commit burnt a timestamp: clock %d -> %d", clock, c.Master.Oracle.Clock())
		}
		if c.Master.Oracle.ActiveCount() != active-1 || s.Txn.State != cc.TxnCommitted {
			t.Errorf("read-only commit left the transaction registered: active %d -> %d, state %v",
				active, c.Master.Oracle.ActiveCount(), s.Txn.State)
		}
		if err := s.Commit(p); !errors.Is(err, cc.ErrTxnNotActive) {
			t.Errorf("second commit: %v, want ErrTxnNotActive", err)
		}

		// Begun before the leader dies, committed while the seat is empty.
		s = c.Master.Begin(p, cc.SnapshotIsolation, w.data)
		read(s)
		c.CrashNode(leader)
		if !c.Master.Fenced() {
			t.Fatal("setup: crashing the leader did not fence the coordinator")
		}
		if err := s.Commit(p); err != nil {
			t.Errorf("read-only commit during the fence: %v", err)
		}
		// A writer in the same position is refused.
		if fenced := c.Master.Begin(p, cc.SnapshotIsolation, w.data); fenced.Txn.Active() {
			t.Error("a transaction begun during the fence is active")
		}
	})
	if err := w.env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSingleOwnerCommitAllocs pins the one-participant commit path (every
// touched partition on one node — the common case): no participant map, no
// node list, no sort closures — the commit's own bookkeeping is the branch, its
// partition list and the lock-release list. A begin / put / commit cycle cost
// 37 allocations here when participants were grouped through a map and four
// sort.Slice calls.
func TestSingleOwnerCommitAllocs(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 100)
	defer tc.env.Close()
	master := tc.c.Master
	payload, _ := kvSchema().EncodeRow(table.Row{int64(7), "updated"})
	key := ik(7)
	tc.run(t, func(p *sim.Proc) {
		cycle := func() {
			s := master.Begin(p, cc.SnapshotIsolation, master.Node)
			if err := s.Put(p, "kv", key, payload); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle() // warm maps, pools and the log's segment buffer
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 32 {
			t.Fatalf("begin/put/commit on one owner allocates %.1f objects, want <= 32", allocs)
		}
	})
}

// TestReplicaPartKeysStaySorted: a replica store appends new keys and sorts
// them in on the next scan; whatever the arrival order and however scans and
// installs interleave, a scan sees every key once, in key order, and reads
// each key's own version chain: every scanned value is what get resolves for
// that key, at the newest snapshot and at an older one, also after a
// resync's overlap sorted older versions into existing chains.
func TestReplicaPartKeysStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rp := newReplicaPart()
	var want []string
	seen := map[string]bool{}
	version := func(k []byte, ts cc.Timestamp) cc.Version {
		return cc.Version{TS: ts, Val: []byte(fmt.Sprintf("%x@%d", k, ts))}
	}
	for round := 0; round < 50; round++ {
		now := cc.Timestamp(2*round + 2) // even: this round's installs
		for i := rng.Intn(20); i > 0; i-- {
			k := ik(int64(rng.Intn(400)))
			rp.install(k, version(k, now))
			if !seen[string(k)] {
				seen[string(k)] = true
				want = append(want, string(k))
			}
		}
		// A resync's overlap: older, odd timestamps into known keys, which
		// install sorts into the chain instead of appending.
		for i := rng.Intn(10); i > 0 && len(want) > 0; i-- {
			k := []byte(want[rng.Intn(len(want))])
			rp.install(k, version(k, cc.Timestamp(2*rng.Intn(round+1)+1)))
		}
		sort.Strings(want)
		var got []string // the keys of the last scan, at snapshot now
		for _, snap := range []cc.Timestamp{now / 2, now} {
			got = got[:0]
			rp.scan(nil, nil, snap, func(k, v []byte) bool {
				if gv, ok := rp.get(k, snap); !ok || !bytes.Equal(gv.Val, v) {
					t.Fatalf("round %d, snapshot %d: scan read %q for key %x, get reads %q", round, snap, v, k, gv.Val)
				}
				got = append(got, string(k))
				return true
			})
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: scan saw %d keys, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: key %d out of order", round, i)
			}
		}
		lo, hi := ik(100), ik(200)
		n := 0
		rp.scan(lo, hi, now, func(k, v []byte) bool {
			if string(k) < string(lo) || string(k) >= string(hi) {
				t.Fatalf("round %d: bounded scan returned a key outside [lo, hi)", round)
			}
			n++
			return true
		})
		wantN := sort.SearchStrings(want, string(hi)) - sort.SearchStrings(want, string(lo))
		if n != wantN {
			t.Fatalf("round %d: bounded scan saw %d keys, want %d", round, n, wantN)
		}
	}
}

// TestForcedShipPassesPipeline pins what the drain lock covers: the send, not
// the follower's disk. Four committers on one origin, each appending its frame
// just after the one before it, so each gets a local force of its own; the
// forced follower's log disk is slower than the origin's (a 5 ms stall per
// write), which makes its force the long pole. The second committer's batch
// must reach the follower while the first committer's force is still in
// flight there, the follower's log must group-commit the waiters (fewer device
// writes than committers), and the last ack must arrive one send and two
// follower forces after the start — not four sends and forces end to end, which
// is what holding the lock across the force cost, and not behind a local force
// either: that runs beside the ship.
func TestForcedShipPassesPipeline(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1 := c.Nodes[0], c.Nodes[1]
	f1.HW.LogDisk().SetStall(5 * time.Millisecond)
	const committers = 4
	var lsn [committers]uint64
	var acked [committers]time.Duration // durable at the origin and on a follower
	var sent2 time.Duration             // the second committer's frame is on the follower
	start := tc.env.Now()
	flushes, local := f1.Log.Flushes, origin.Log.Flushes
	for i := 0; i < committers; i++ {
		i := i
		tc.env.Spawn("committer", func(p *sim.Proc) {
			// Appended just after the previous committer's local force began:
			// the origin's group commit cannot cover it in that write.
			p.Sleep(time.Duration(i) * 1800 * time.Microsecond)
			lsn[i] = origin.Log.Append(wal.Record{Txn: cc.TxnID(1<<40 + i), Type: wal.RecAbort})
			if !c.forceShip(p, origin, lsn[i], 0, false) {
				t.Errorf("committer %d: origin reported dead", i)
			}
			if !c.replicaDurable(origin, lsn[i]) || origin.Log.FlushedLSN() < lsn[i] {
				t.Errorf("committer %d acked without both forces done", i)
			}
			acked[i] = p.Now() - start
		})
	}
	tc.env.Spawn("watch", func(p *sim.Proc) {
		for i := 0; i < 10000 && sent2 == 0; i++ {
			if lsn[1] != 0 && origin.ship.link(f1).sent >= lsn[1] {
				sent2 = p.Now() - start
				return
			}
			p.Sleep(10 * time.Microsecond)
		}
	})
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.drep.ShipRetries != 0 {
		t.Fatalf("%d retry sleeps in a fault-free run", c.drep.ShipRetries)
	}
	if sent2 == 0 || sent2 >= acked[0] {
		t.Fatalf("second committer's batch reached the follower at %v, the first committer's follower force returned at %v: the send waited for the force",
			sent2, acked[0])
	}
	// What the same four committers cost when each flushed locally and then
	// shipped: four device writes on the origin's log, two on the follower's.
	if got, gotLocal := f1.Log.Flushes-flushes, origin.Log.Flushes-local; got > 2 || gotLocal > 4 {
		t.Fatalf("%d device writes on the follower's log and %d on the origin's, want <= 2 and <= 4", got, gotLocal)
	}
	last := acked[0]
	for _, a := range acked {
		if a > last {
			last = a
		}
	}
	// The first committer's wait is one send and one follower force — its
	// local force is over long before — so two of those cover everyone. The
	// serial path's last ack came at 15.76 ms: a local force later.
	if limit := 2*acked[0] + acked[0]/10; last > limit || last >= 15*time.Millisecond {
		t.Fatalf("last ack at %v, want <= %v (two waits of %v: send + follower force) and under the serial path's 15.76 ms",
			last, limit, acked[0])
	}
}

// atMidForce runs fault at the instant a forced pass of origin is flushing
// follower f's log: 500 us — well inside the 1.75 ms force — after the next
// shipped batch lands there. By then the pass must have released the origin's
// drain lock.
func atMidForce(t *testing.T, env *sim.Env, origin, f *DataNode, fault func(p *sim.Proc)) {
	var landed time.Duration
	shippedAt(env, f, f.Log.TailLSN(), &landed)
	env.Spawn("fault", func(p *sim.Proc) {
		for landed == 0 {
			p.Sleep(10 * time.Microsecond)
		}
		p.Sleep(500 * time.Microsecond)
		if origin.ship.draining {
			t.Error("the origin's drain lock is held while the follower's log is being forced")
		}
		if f.Log.FlushedLSN() >= origin.ship.link(f).wrapLSN {
			t.Errorf("setup: the follower's force finished before the fault (flushed %d of %d)",
				f.Log.FlushedLSN(), origin.ship.link(f).wrapLSN)
		}
		fault(p)
	})
}

// TestForcedShipFollowerCrashMidForce: a follower that power-fails while a
// forced pass is flushing its log — the origin's drain lock long released — is
// not counted durable and is stale afterwards; the pass moves on to the
// sibling, whose force acks the commit.
func TestForcedShipFollowerCrashMidForce(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		lsn := origin.Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort})
		flushes1, flushes2 := f1.Log.Flushes, f2.Log.Flushes
		before := origin.ship.link(f1).durable
		crashed := false
		atMidForce(t, tc.env, origin, f1, func(*sim.Proc) {
			c.CrashNode(f1)
			crashed = true
		})
		if !c.forceShip(p, origin, lsn, 0, false) {
			t.Error("origin reported dead")
			return
		}
		if !crashed {
			t.Error("setup: the commit acked before the fault landed")
			return
		}
		if !origin.ship.link(f1).stale || origin.ship.link(f1).durable != before || f1.Log.Flushes != flushes1 {
			t.Errorf("follower that died mid-force: stale=%v durable %d -> %d flushes +%d; want stale, unchanged, +0",
				origin.ship.link(f1).stale, before, origin.ship.link(f1).durable, f1.Log.Flushes-flushes1)
		}
		if origin.ship.link(f2).stale || origin.ship.link(f2).durable < lsn || f2.Log.Flushes != flushes2+1 {
			t.Errorf("sibling: stale=%v durable=%d (want >= %d) flushes=+%d (want +1)",
				origin.ship.link(f2).stale, origin.ship.link(f2).durable, lsn, f2.Log.Flushes-flushes2)
		}
		if c.drep.ShipRetries != 0 {
			t.Errorf("the commit slept %d retry delays instead of acking through the sibling", c.drep.ShipRetries)
			return
		}
	})
}

// TestNoShipRetryFaultFree: eight closed-loop clients committing single-owner
// and two-owner transactions on a fully replicated cluster never take a
// shipRetryDelay sleep — every forced pass leaves its own waiter satisfied,
// and so does every pass that found its frames already sent by another.
func TestNoShipRetryFaultFree(t *testing.T) {
	const n = 400
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.DataReplicas = 2
	cfg.MasterReplicas = 2
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	mid := ik(n / 2)
	if _, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	}); err != nil {
		t.Fatal(err)
	}
	c.SetupReplicationDrain()
	commits := 0
	for cl := 0; cl < 8; cl++ {
		cl := cl
		env.Spawn("client", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(cl)))
			for p.Now() < 500*time.Millisecond {
				s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[cl%2])
				keys := []int64{int64(cl*50 + rng.Intn(50))}
				if rng.Intn(4) == 0 { // a two-owner commit
					keys = append(keys, (keys[0]+n/2)%n)
				}
				var err error
				for _, k := range keys {
					payload, _ := kvSchema().EncodeRow(table.Row{k, "v"})
					if err = s.Put(p, "kv", ik(k), payload); err != nil {
						break
					}
				}
				if err == nil {
					err = s.Commit(p)
				}
				if err != nil {
					s.Abort(p)
					continue
				}
				commits++
			}
		})
	}
	env.Spawn("shipper", func(p *sim.Proc) {
		for p.Now() < 500*time.Millisecond {
			p.Sleep(20 * time.Millisecond)
			c.DrainShipQueues(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if commits < 200 {
		t.Fatalf("only %d commits in 500 ms: the run did not exercise the commit path", commits)
	}
	if c.drep.ShipRetries != 0 {
		t.Fatalf("%d shipRetryDelay sleeps over %d fault-free commits", c.drep.ShipRetries, commits)
	}
}

// forcedWait is one kind of forced wait on node 0 of a replicated cluster:
// appendOnly appends its frames and forces nothing, returning the LSN the wait
// is for; wait appends the same frames and performs the wait. With master,
// node 0 also leads a replicated coordinator.
type forcedWait struct {
	master     bool
	appendOnly func(c *Cluster) uint64
	wait       func(p *sim.Proc, c *Cluster) bool
}

// commitWait is a single-node commit's forced wait on a commit record of node 0.
var commitWait = forcedWait{
	appendOnly: func(c *Cluster) uint64 { return c.Nodes[0].Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort}) },
	wait: func(p *sim.Proc, c *Cluster) bool {
		return c.forceShip(p, c.Nodes[0], c.Nodes[0].Log.Append(wal.Record{Txn: 1 << 40, Type: wal.RecAbort}), 0, false)
	},
}

// forceTimes measures one forced wait on a fully shipped, otherwise idle
// replicated cluster whose origin and first follower take the given extra time
// per log write: the local force and the forced ship pass run one after the
// other (what the commit path used to do), and — on an identical cluster — the
// wait itself.
func forceTimes(t *testing.T, fw forcedWait, stallOrigin, stallFollower time.Duration) (local, ship, wait time.Duration) {
	t.Helper()
	for _, overlapped := range []bool{false, true} {
		tc := newRepClusterWith(t, table.Physiological, 4, 100, func(cfg *Config) {
			if fw.master {
				cfg.MasterReplicas = 2
			}
		})
		c := tc.c
		c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
		origin := c.Nodes[0]
		origin.HW.LogDisk().SetStall(stallOrigin)
		c.Nodes[1].HW.LogDisk().SetStall(stallFollower)
		tc.run(t, func(p *sim.Proc) {
			start := p.Now()
			if overlapped {
				if !fw.wait(p, c) {
					t.Error("the wait failed")
				}
				wait = p.Now() - start
				return
			}
			lsn := fw.appendOnly(c)
			origin.Log.Flush(p, lsn)
			local = p.Now() - start
			if !c.shipQueued(p, origin, true) || !c.replicaDurable(origin, lsn) {
				t.Error("the forced pass left the frame short of a durable follower")
			}
			ship = p.Now() - start - local
		})
		tc.env.Close()
	}
	return local, ship, wait
}

// forceStalls are the disk speeds the overlap tests run at: in each, a forced
// wait must cost the slower of its two forces, whichever one that is.
var forceStalls = []struct {
	name             string
	origin, follower time.Duration
}{
	{"idle disks", 0, 0},
	{"slow origin", 4 * time.Millisecond, 0},
	{"slow follower", 0, 4 * time.Millisecond},
}

// checkForcesOverlap fails t unless fw's wait costs max(local force, send +
// follower force) at every stall of forceStalls.
func checkForcesOverlap(t *testing.T, what string, fw forcedWait) {
	t.Helper()
	for _, tt := range forceStalls {
		local, ship, wait := forceTimes(t, fw, tt.origin, tt.follower)
		if local == 0 || ship == 0 {
			t.Fatalf("%s, %s: degenerate stages: local force %v, ship %v", what, tt.name, local, ship)
		}
		if want := max(local, ship); wait != want {
			t.Errorf("%s, %s: the wait took %v, want %v = max(local force %v, send + follower force %v); their sum is %v",
				what, tt.name, wait, want, local, ship, local+ship)
		}
	}
}

// TestCommitForcesOverlap: a forced wait costs the slower of its two forces —
// the origin's own, or the send plus the follower's — not their sum, whichever
// of the two is the slower one.
func TestCommitForcesOverlap(t *testing.T) {
	checkForcesOverlap(t, "commit", commitWait)
}

// TestCoordinatorForcesOverlap: the leader's forced coordinator records — a
// 2PC decision, a lease grant — cost the slower of the leader's own force and
// the send plus the follower's, like a data frame's; and a single-node commit
// on the leader's node appended behind a decision the leader has not flushed
// yet is not held back behind it: it ships in its first pass, beside the local
// force.
func TestCoordinatorForcesOverlap(t *testing.T) {
	logged := func(rec func(c *Cluster) wal.Record) forcedWait {
		return forcedWait{
			master: true,
			appendOnly: func(c *Cluster) uint64 {
				c.Master.logMaster(nil, rec(c), false)
				return c.Nodes[0].Log.TailLSN() - 1
			},
			wait: func(p *sim.Proc, c *Cluster) bool { return c.Master.logMaster(p, rec(c), true) },
		}
	}
	decision := func(c *Cluster) wal.Record {
		return wal.Record{Txn: 1 << 41, Type: wal.RecDecision, TS: c.Master.Oracle.Clock() + 1,
			After: wal.EncodeMasterParticipants(nil, []int{0, 1})}
	}
	lease := func(c *Cluster) wal.Record {
		return wal.Record{Type: wal.RecMLease, TS: c.Master.Oracle.Leased() + defaultLeaseChunk}
	}
	checkForcesOverlap(t, "decision", logged(decision))
	checkForcesOverlap(t, "lease", logged(lease))
	checkForcesOverlap(t, "commit behind a decision", forcedWait{
		master: true,
		appendOnly: func(c *Cluster) uint64 {
			c.Master.logMaster(nil, decision(c), false)
			return commitWait.appendOnly(c)
		},
		wait: func(p *sim.Proc, c *Cluster) bool {
			c.Master.logMaster(nil, decision(c), false)
			return commitWait.wait(p, c)
		},
	})
}

// TestParkedWaiterAcrossTwoRestarts: a single-node commit's waiter that sleeps
// through two restarts of its origin must follow its frame through both — the
// answer is an ack iff the frame was at or below what EACH restart came back
// with, and comparing against the newest boundary alone gets it wrong in both
// directions. Booting takes a millisecond here, so both restarts fit inside
// one of the waiter's retry sleeps.
func TestParkedWaiterAcrossTwoRestarts(t *testing.T) {
	restart := func(p *sim.Proc, c *Cluster, n *DataNode) {
		if _, _, err := c.RestartNode(p, n); err != nil {
			t.Errorf("restart node %d: %v", n.ID, err)
		}
	}
	for _, tt := range []struct {
		name  string
		slow  int // whose log disk is slow: the force still in flight at the first crash
		first func(c *Cluster)
		then  func(p *sim.Proc, c *Cluster, origin *DataNode)
		ack   bool
	}{
		{"below both boundaries: ack", 1, func(*Cluster) {}, func(p *sim.Proc, c *Cluster, origin *DataNode) {
			c.CrashNode(origin)
			restart(p, c, origin)
		}, true},
		{"above the first, below the second: error", 0, func(*Cluster) {}, func(p *sim.Proc, c *Cluster, origin *DataNode) {
			// The origin's second life numbers over the lost frame and flushes
			// past it: the second restart's boundary is above the frame's LSN.
			var lsn uint64
			for i := 0; i < 8; i++ {
				lsn = origin.Log.Append(wal.Record{Txn: cc.TxnID(1<<41 + i), Type: wal.RecAbort})
			}
			origin.Log.Flush(p, lsn)
			c.CrashNode(origin)
			restart(p, c, origin)
		}, false},
		{"below the first, above the second (a rebuild from shorter copies): error", 1, func(c *Cluster) {
			// Follower 1's force is cut short and follower 2 was never forced:
			// neither disk holds the frame, and with both down the origin's
			// first restart resyncs nobody.
			c.CrashNode(c.Nodes[1])
			c.CrashNode(c.Nodes[2])
		}, func(p *sim.Proc, c *Cluster, origin *DataNode) {
			c.DestroyDisk(origin)
			restart(p, c, origin)
			restart(p, c, c.Nodes[1])
			restart(p, c, c.Nodes[2])
		}, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newRepClusterWith(t, table.Physiological, 4, 100, func(cfg *Config) { cfg.Cal.BootTime = time.Millisecond })
			defer tc.env.Close()
			c := tc.c
			c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
			origin := c.Nodes[0]
			c.Nodes[tt.slow].HW.LogDisk().SetStall(5 * time.Millisecond)
			var commitErr error
			committed := false
			tc.env.Spawn("commit", func(p *sim.Proc) {
				s := c.Master.Begin(p, cc.SnapshotIsolation, origin)
				payload, _ := kvSchema().EncodeRow(table.Row{int64(10), "new"})
				if err := s.Put(p, "kv", ik(10), payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				commitErr = s.Commit(p)
				committed = true
			})
			tc.env.Spawn("faults", func(p *sim.Proc) {
				p.Sleep(4 * time.Millisecond) // the faster force is done, the slow one in flight
				commit := origin.Log.TailLSN() - 1
				if local := origin.Log.FlushedLSN() >= commit; local != (tt.slow != origin.ID) {
					t.Errorf("setup: origin's force done = %v at the first crash", local)
				}
				c.CrashNode(origin)
				tt.first(c)
				p.Sleep(4 * time.Millisecond) // the slow write has returned: the waiter is in its retry sleep
				c.Nodes[tt.slow].HW.LogDisk().SetStall(0)
				sleeps := c.drep.ShipRetries
				restart(p, c, origin)
				tt.then(p, c, origin)
				// Every run of the parked waiter ends in an answer or another
				// sleep: neither happened since before the first restart.
				if committed || origin.ship.gen != 2 || sleeps != 1 || c.drep.ShipRetries != 1 {
					t.Errorf("setup: after the second restart committed=%v gen=%d retry sleeps %d -> %d; want the waiter asleep through both",
						committed, origin.ship.gen, sleeps, c.drep.ShipRetries)
				}
			})
			if err := tc.env.RunUntil(tc.env.Now() + time.Minute); err != nil {
				t.Fatal(err)
			}
			if !committed {
				t.Fatal("the commit never resolved")
			}
			var got string
			tc.run(t, func(p *sim.Proc) {
				s := c.Master.Begin(p, cc.Locking, origin)
				defer s.Abort(p)
				if v, ok, err := s.Get(p, "kv", ik(10)); err == nil && ok {
					row, _ := kvSchema().DecodeRow(v)
					got = row[1].(string)
				}
			})
			if want := map[bool]string{true: "new", false: fmt.Sprintf(idOldVal, 10)}[tt.ack]; (commitErr == nil) != tt.ack || got != want {
				t.Fatalf("commit: %v, key reads %q; want ack=%v and %q", commitErr, got, tt.ack, want)
			}
		})
	}
}

// depWorld is the stage of the commit-dependency tests: four nodes, every log
// shipped to two followers, a kv table of 100 rows in three partitions — keys
// [0,40) and [40,50) on node 0, [50,100) on node 1 — so one single-node commit
// can install into two trees. Node 0's log disk is slow: a commit there spends
// several milliseconds in its force, unsettled.
type depWorld struct {
	*testCluster
	t *testing.T
}

func newDepWorld(t *testing.T) *depWorld {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.DataReplicas = 2
	cfg.Cal.BootTime = time.Millisecond
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	tm, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{
		{Low: nil, High: ik(40), Owner: c.Nodes[0]},
		{Low: ik(40), High: ik(50), Owner: c.Nodes[0]},
		{Low: ik(50), High: nil, Owner: c.Nodes[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &depWorld{&testCluster{env: env, c: c, tm: tm}, t}
	w.run(t, func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= 100 {
				return nil, nil, false
			}
			row := table.Row{int64(i), fmt.Sprintf(idOldVal, i)}
			key, _ := kvSchema().Key(row)
			payload, _ := kvSchema().EncodeRow(row)
			i++
			return key, payload, true
		})
		if err != nil {
			t.Error(err)
		}
	})
	c.SetupReplicationDrain()
	c.Nodes[0].HW.LogDisk().SetStall(5 * time.Millisecond)
	return w
}

// runFor runs fn as a process and the simulation for at most a simulated
// minute: a commit parked on followers that never come back retries forever,
// and a failing test must fail, not hang.
func (w *depWorld) runFor(fn func(p *sim.Proc)) {
	w.t.Helper()
	w.env.Spawn("test", fn)
	if err := w.env.RunUntil(w.env.Now() + time.Minute); err != nil {
		w.t.Fatal(err)
	}
}

func (w *depWorld) write(p *sim.Proc, s *Session, k int64, val string) error {
	payload, _ := kvSchema().EncodeRow(table.Row{k, val})
	return s.Put(p, "kv", ik(k), payload)
}

func (w *depWorld) read(p *sim.Proc, s *Session, k int64) string {
	w.t.Helper()
	v, ok, err := s.Get(p, "kv", ik(k))
	if err != nil || !ok {
		w.t.Errorf("get %d: ok=%v err=%v", k, ok, err)
		return ""
	}
	row, _ := kvSchema().DecodeRow(v)
	return row[1].(string)
}

// inForce is a transaction started by commitInForce: its cc.Txn once begun,
// when its Commit returned — the instant it settled — and with what.
type inForce struct {
	txn     *cc.Txn
	settled time.Duration
	err     error
}

// commitInForce starts a transaction at node 0 that writes keys — all on node
// 0 — to val and commits.
func (w *depWorld) commitInForce(val string, keys ...int64) *inForce {
	f := &inForce{}
	w.env.Spawn("t1", func(p *sim.Proc) {
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		f.txn = s.Txn
		for _, k := range keys {
			if err := w.write(p, s, k, val); err != nil {
				w.t.Errorf("t1 put %d: %v", k, err)
				return
			}
		}
		if f.err = s.Commit(p); f.err != nil {
			s.Abort(p)
		}
		f.settled = p.Now()
	})
	return f
}

// unsettledWithRecord parks p until f is past its commit point, unsettled, with
// its commit record on the log (or not yet, with appended false).
func unsettledWithRecord(p *sim.Proc, f *inForce, appended bool) *cc.Txn {
	for f.txn == nil || !(f.txn.Unsettled() && (f.txn.CommitLSN != 0) == appended) {
		p.Sleep(50 * time.Microsecond)
	}
	return f.txn
}

// landed parks p until the published view covers t's commit point, so that a
// session begun from then on, at any home, has t in its snapshot. It comes
// one network latency after the commit point, well inside a commit's force.
func landed(p *sim.Proc, c *Cluster, t *cc.Txn) {
	for published(c) < t.Commit {
		p.Sleep(50 * time.Microsecond)
	}
}

// published returns the clock of the view the oracle last landed.
func published(c *Cluster) cc.Timestamp {
	pub, _ := c.Master.Oracle.Published()
	return pub
}

// TestDependentOnSameLogCommitsWithoutWait: T1 is in its force on key 10. T2
// begins once T1's commit point has been published, reads key 10 — T1's
// value, with a dependency — overwrites it and commits on the same node: no
// write conflict, and no wait either, because T2's commit record lies above
// T1's on the same log. A transaction that began before T1's commit point
// still loses to it.
func TestDependentOnSameLogCommitsWithoutWait(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	f := w.commitInForce("t1", 10)
	w.run(t, func(p *sim.Proc) {
		early := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		t1 := unsettledWithRecord(p, f, true)
		landed(p, c, t1)
		t2 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		if got := w.read(p, t2, 10); got != "t1" {
			t.Errorf("T2 (snapshot %d over unsettled commit %d) read %q, want T1's value", t2.Txn.Begin, t1.Commit, got)
		}
		if len(t2.Txn.Deps) != 1 || t2.Txn.Deps[0] != t1 {
			t.Errorf("T2's dependencies = %v, want T1", t2.Txn.Deps)
			return
		}
		if err := w.write(p, early, 10, "early"); !errors.Is(err, cc.ErrWriteConflict) {
			t.Errorf("writer begun before T1's commit point: %v, want ErrWriteConflict", err)
		}
		early.Abort(p)
		if err := w.write(p, t2, 10, "t2"); err != nil {
			t.Errorf("T2's overwrite of an unsettled version: %v", err)
			return
		}
		if !t1.Unsettled() {
			t.Error("setup: T1 settled before T2 reached its commit")
			return
		}
		if err := t2.Commit(p); err != nil {
			t.Errorf("T2 commit: %v", err)
			return
		}
		if c.DepWaits != 0 {
			t.Errorf("T2 waited for %d dependencies, want none (same log, record already appended)", c.DepWaits)
		}
	})
	if f.err != nil || f.settled == 0 {
		t.Fatalf("T1: %v, settled at %v", f.err, f.settled)
	}
	w.run(t, func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		if got := w.read(p, s, 10); got != "t2" {
			t.Errorf("key 10 = %q after both commits, want %q", got, "t2")
		}
		s.Abort(p)
	})
}

// TestDependentElsewhereWaitsForSettle: a transaction that observed T1's
// unsettled commit and forces nothing on T1's node — read-only, or writing on
// another node only — finishes at the instant T1 settles, plus the trip that
// carries the news when T1's node is not home, and never before.
func TestDependentElsewhereWaitsForSettle(t *testing.T) {
	for _, tt := range []struct {
		name   string
		home   int
		writes bool
	}{
		{"read-only at T1's node", 0, false},
		{"read-only elsewhere", 2, false},
		{"writing on another node", 1, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			w := newDepWorld(t)
			defer w.env.Close()
			c := w.c
			f := w.commitInForce("t1", 10)
			var done, trip time.Duration
			w.run(t, func(p *sim.Proc) {
				t1 := unsettledWithRecord(p, f, true)
				landed(p, c, t1)
				home := c.Nodes[tt.home]
				t2 := c.Master.Begin(p, cc.SnapshotIsolation, home)
				if got := w.read(p, t2, 10); got != "t1" || len(t2.Txn.Deps) != 1 || t2.Txn.Deps[0] != t1 {
					t.Errorf("T2 read %q with dependencies %v, want T1's value and T1", got, t2.Txn.Deps)
					return
				}
				if tt.writes {
					if err := w.write(p, t2, 60, "t2"); err != nil {
						t.Error(err)
						return
					}
				}
				if err := t2.Commit(p); err != nil {
					t.Errorf("T2 commit: %v", err)
					return
				}
				done = p.Now()
				if home != c.Nodes[0] {
					at := p.Now()
					c.Net.Transfer(p, home.ID, 0, 32)
					c.Net.Transfer(p, 0, home.ID, 32)
					trip = p.Now() - at
				}
			})
			if f.err != nil {
				t.Fatalf("T1: %v", f.err)
			}
			if c.DepWaits != 1 || c.DepLost != 0 {
				t.Errorf("dependency waits %d lost %d, want 1 and 0", c.DepWaits, c.DepLost)
			}
			if tt.writes {
				// The wait precedes T2's own commit, which takes its own time.
				if done <= f.settled {
					t.Errorf("T2 returned at %v, not after T1 settled at %v", done, f.settled)
				}
				return
			}
			if done < f.settled || done > f.settled+trip {
				t.Errorf("read-only T2 returned at %v; T1 settled at %v, a round trip is %v", done, f.settled, trip)
			}
		})
	}
}

// TestDependentBelowItsDependencyWaits: T1 writes two keys in two partitions of
// one node and is held up installing the second. T2 reads the first — already
// installed, its intent released — and writes it back: same node, same log, but
// T1's commit record is not appended yet and T2's would land below it. No
// exemption: T2 waits for T1 to settle.
func TestDependentBelowItsDependencyWaits(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	second := w.tm.Entries()[1].Part.Segments()
	if len(second) != 1 {
		t.Fatalf("setup: partition [40,50) has %d segments", len(second))
	}
	release := false
	w.env.Spawn("hold-second-tree", func(p *sim.Proc) {
		_ = second[0].Tree.Exclusive(p, func() error {
			for !release {
				p.Sleep(100 * time.Microsecond)
			}
			return nil
		})
	})
	f := w.commitInForce("t1", 10, 45)
	var done time.Duration
	w.run(t, func(p *sim.Proc) {
		t1 := unsettledWithRecord(p, f, false)
		t2 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		for w.read(p, t2, 10) != "t1" { // until T1's first install has landed
			t2.Abort(p)
			p.Sleep(100 * time.Microsecond)
			t2 = c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		}
		if err := w.write(p, t2, 10, "t2"); err != nil {
			t.Errorf("T2's write over T1's installed key: %v", err)
			return
		}
		if t1.CommitLSN != 0 {
			t.Error("setup: T1's commit record is already appended")
			return
		}
		w.env.After(2*time.Millisecond, func() { release = true })
		if err := t2.Commit(p); err != nil {
			t.Errorf("T2 commit: %v", err)
			return
		}
		done = p.Now()
	})
	if f.err != nil {
		t.Fatalf("T1: %v", f.err)
	}
	if c.DepWaits != 1 {
		t.Errorf("T2 waited for %d dependencies, want 1", c.DepWaits)
	}
	if done <= f.settled {
		t.Errorf("T2 returned at %v, not after T1 settled at %v", done, f.settled)
	}
}
