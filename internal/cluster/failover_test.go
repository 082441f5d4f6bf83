package cluster

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// failoverWorld is a replicated-coordinator cluster: node 0 is the seated
// leader, nodes 1 and 2 are its ship set (MasterReplicas implies log
// shipping with that many followers per node), node 3 owns all data.
// Crashing node 0 never touches a data partition, so every observed effect
// is pure coordinator failover.
type failoverWorld struct {
	env  *sim.Env
	c    *Cluster
	data *DataNode
}

func newFailoverWorld(t *testing.T, leaseChunk int) *failoverWorld {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MasterReplicas = 2
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	c.Master.SetLeaseChunk(leaseChunk)
	_, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{
		{Low: nil, High: nil, Owner: c.Nodes[3]},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &failoverWorld{env: env, c: c, data: c.Nodes[3]}
}

// runCommits executes total single-partition commits back-to-back on the
// data node, retrying through fenced windows, and returns the acknowledged
// commit timestamps in acknowledgment order.
func (w *failoverWorld) runCommits(t *testing.T, total int) []cc.Timestamp {
	t.Helper()
	var acked []cc.Timestamp
	w.env.Spawn("committer", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			for {
				s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.data)
				row := table.Row{int64(i), fmt.Sprintf("v-%d", i)}
				key, _ := kvSchema().Key(row)
				payload, _ := kvSchema().EncodeRow(row)
				if err := s.Put(p, "kv", key, payload); err != nil {
					s.Abort(p)
					p.Sleep(20 * time.Millisecond)
					continue
				}
				if err := s.Commit(p); err != nil {
					s.Abort(p)
					p.Sleep(20 * time.Millisecond)
					continue
				}
				acked = append(acked, s.Txn.Commit)
				break
			}
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	return acked
}

// TestFailoverTimestampMonotonic sweeps a leader power failure across the
// whole commit stream — including every point of the small lease window —
// and asserts that acknowledged commit timestamps never regress or repeat
// across the failover: the new leader must resume strictly above the
// replicated lease ceiling, and the ceiling must cover everything the old
// leader acknowledged.
func TestFailoverTimestampMonotonic(t *testing.T) {
	const (
		leaseChunk = 300 // just above leaseHeadroom: frequent lease grants
		commits    = 600 // crosses several lease boundaries
		sweepN     = 16
		// The sweep's grid is fixed — sixteen instants evenly spaced over this
		// span — so that a crash point keeps its subtest name when the commit
		// path gets faster or slower; the stream only has to outlast it.
		horizon = 2478965069 * time.Nanosecond
	)

	// Calibration run, no crash: the undisturbed stream must cover the grid.
	base := newFailoverWorld(t, leaseChunk)
	baseTS := base.runCommits(t, commits)
	baseEnd := base.env.Now()
	base.env.Close()
	if len(baseTS) != commits {
		t.Fatalf("calibration: %d of %d commits acked", len(baseTS), commits)
	}
	if baseEnd < horizon {
		t.Fatalf("calibration: %d commits take %v, the sweep's last crash points (up to %v) would land after the stream; raise commits", commits, baseEnd, horizon)
	}

	for i := 0; i < sweepN; i++ {
		crashAt := horizon * time.Duration(i+1) / time.Duration(sweepN+1)
		t.Run(fmt.Sprintf("crash@%v", crashAt), func(t *testing.T) {
			w := newFailoverWorld(t, leaseChunk)
			defer w.env.Close()
			leader := w.c.Nodes[0]
			w.env.Spawn("crash-leader", func(p *sim.Proc) {
				p.Sleep(crashAt)
				w.c.CrashNode(leader)
			})
			acked := w.runCommits(t, commits)
			if len(acked) != commits {
				t.Fatalf("%d of %d commits acked", len(acked), commits)
			}
			for j := 1; j < len(acked); j++ {
				if acked[j] <= acked[j-1] {
					t.Fatalf("commit %d ts=%d not above commit %d ts=%d (failover regressed or reissued a timestamp)",
						j, acked[j], j-1, acked[j-1])
				}
			}
			if w.c.Master.Fenced() {
				t.Fatal("coordinator still fenced after the stream drained")
			}
			if got := w.c.Master.Failovers(); got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			if w.c.Master.LeaderID() == 0 {
				t.Fatal("crashed node 0 still seated as leader")
			}
			if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
				t.Fatalf("decision map leak: %d entries after drain", n)
			}
		})
	}
}

// TestFailoverLeaseExhaustion parks the cluster right before a lease
// boundary, kills the leader, and verifies the next leader's first grant
// starts strictly above the old ceiling even though the old leader had
// consumed almost none of its last lease.
func TestFailoverLeaseExhaustion(t *testing.T) {
	const leaseChunk = 300
	w := newFailoverWorld(t, leaseChunk)
	defer w.env.Close()

	first := w.runCommits(t, 10)
	oldCeil := w.c.Master.Oracle.Leased()
	if oldCeil == 0 {
		t.Fatal("no lease ceiling replicated")
	}
	w.c.CrashNode(w.c.Nodes[0])

	second := w.runCommits(t, 10)
	if len(second) != 10 {
		t.Fatalf("%d of 10 post-failover commits acked", len(second))
	}
	if second[0] <= first[len(first)-1] {
		t.Fatalf("post-failover ts %d not above pre-crash ts %d", second[0], first[len(first)-1])
	}
	if second[0] < oldCeil {
		t.Fatalf("post-failover ts %d below old lease ceiling %d: new leader reused leased range", second[0], oldCeil)
	}
	if newCeil := w.c.Master.Oracle.Leased(); newCeil <= oldCeil {
		t.Fatalf("new leader's lease ceiling %d not above old ceiling %d", newCeil, oldCeil)
	}
}

// TestFailoverDoubleCrash kills the first elected successor too: after the
// original leader restarted (its followers and origins resync it), a second
// election must seat another member of the successor's ship set and
// timestamps must still never regress across either handoff.
func TestFailoverDoubleCrash(t *testing.T) {
	const leaseChunk = 300
	w := newFailoverWorld(t, leaseChunk)
	defer w.env.Close()

	var all []cc.Timestamp
	all = append(all, w.runCommits(t, 20)...)
	w.c.CrashNode(w.c.Nodes[0])
	all = append(all, w.runCommits(t, 20)...)
	w.env.Spawn("restart-0", func(p *sim.Proc) {
		if _, _, err := w.c.RestartNode(p, w.c.Nodes[0]); err != nil {
			t.Errorf("restart node 0: %v", err)
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	w.c.CrashNode(w.c.Master.Node) // whoever got elected
	all = append(all, w.runCommits(t, 20)...)

	if len(all) != 60 {
		t.Fatalf("%d of 60 commits acked", len(all))
	}
	for j := 1; j < len(all); j++ {
		if all[j] <= all[j-1] {
			t.Fatalf("ts %d at commit %d not above predecessor %d", all[j], j, all[j-1])
		}
	}
	if got := w.c.Master.Failovers(); got != 2 {
		t.Fatalf("failovers = %d, want 2", got)
	}
}

// TestFailoverFromRebuiltLeaderLog loses the leader's whole disk while both
// of its followers are down, so nobody can be elected until the leader is
// back — and its log then exists only because rebuildFromReplicas re-appended
// the shipped stream, coordinator records included, from the followers'
// disks. The election must replay that rebuilt log (master sequences survive
// the renumbering), and after the followers resync the rebuilt stream a
// crash of the re-seated leader must fail over once more.
func TestFailoverFromRebuiltLeaderLog(t *testing.T) {
	w := newFailoverWorld(t, 300)
	defer w.env.Close()
	c := w.c
	restart := func(ids ...int) {
		t.Helper()
		w.env.Spawn("restart", func(p *sim.Proc) {
			for _, id := range ids {
				if _, _, err := c.RestartNode(p, c.Nodes[id]); err != nil {
					t.Errorf("restart node %d: %v", id, err)
				}
			}
		})
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
	}

	all := w.runCommits(t, 20)
	c.CrashNode(c.Nodes[1])
	c.CrashNode(c.Nodes[2])
	c.DestroyDisk(c.Nodes[0])
	restart(0)
	if rebuilds, _, _, _ := c.ReplicationStats(); rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", rebuilds)
	}
	if c.Master.Fenced() || c.Master.LeaderID() != 0 || c.Master.Failovers() != 1 {
		t.Fatalf("after the rebuilt leader restarted: fenced=%v leader=%d failovers=%d, want node 0 re-seated by one election",
			c.Master.Fenced(), c.Master.LeaderID(), c.Master.Failovers())
	}
	restart(1, 2)
	all = append(all, w.runCommits(t, 20)...)

	c.CrashNode(c.Master.Node)
	all = append(all, w.runCommits(t, 20)...)
	if len(all) != 60 {
		t.Fatalf("%d of 60 commits acked", len(all))
	}
	for j := 1; j < len(all); j++ {
		if all[j] <= all[j-1] {
			t.Fatalf("ts %d at commit %d not above predecessor %d", all[j], j, all[j-1])
		}
	}
	if got := c.Master.Failovers(); got != 2 {
		t.Fatalf("failovers = %d, want 2", got)
	}
	if c.Master.LeaderID() == 0 {
		t.Fatal("crashed node 0 still seated as leader")
	}
}

// TestFailoverFencesSegmentMove: a coordinator failover in the middle of a
// physiological move — the segment on the wire, the election over before it
// lands — must abort the move. The new leader rebuilt the partition table; the
// mover's table and entries are no longer what routing reads, and a segment
// adopted on their say-so (and detached at its source) would be in no catalog
// at all: every key of it lost to new snapshots.
func TestFailoverFencesSegmentMove(t *testing.T) {
	const rows = 2000
	w := newFailoverWorld(t, 1000)
	defer w.env.Close()
	c := w.c
	w.env.Spawn("load", func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= rows {
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
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	c.SetupReplicationDrain()
	dst := c.Nodes[1]
	for _, d := range dst.HW.DataDisks() {
		d.SetStall(2 * time.Second) // the shipped segment's write outlasts the election
	}
	var moveErr error
	moved := false
	w.env.Spawn("move", func(p *sim.Proc) {
		moveErr = c.Master.MigrateRange(p, "kv", ik(0), ik(rows/2), dst)
		moved = true
	})
	w.env.Spawn("faults", func(p *sim.Proc) {
		arrived := func() bool { // the clone is homed at the target: the segment crossed the wire
			for _, h := range c.homes {
				if h.node == dst {
					return true
				}
			}
			return false
		}
		for !arrived() {
			p.Sleep(time.Millisecond)
		}
		c.CrashNode(c.Nodes[0])
		p.Sleep(time.Second)
		if moved || c.Master.Fenced() || c.Master.Failovers() != 1 {
			t.Errorf("setup: one second after the leader's crash moved=%v fenced=%v failovers=%d; want the move in flight under a new leader",
				moved, c.Master.Fenced(), c.Master.Failovers())
		}
		if _, _, err := c.RestartNode(p, c.Nodes[0]); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	if err := w.env.RunUntil(w.env.Now() + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !moved || moveErr == nil {
		t.Fatalf("move finished=%v with %v; want it aborted by the failover", moved, moveErr)
	}
	w.env.Spawn("verify", func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, w.data)
		n := 0
		err := s.Scan(p, "kv", nil, nil, func(_, _ []byte) bool { n++; return true })
		if err != nil || n != rows {
			t.Errorf("scan after the aborted move: %d rows, %v; want %d", n, err, rows)
		}
		for _, k := range []int64{0, rows/2 - 1, rows / 2, rows - 1} {
			if _, ok, err := s.Get(p, "kv", ik(k)); err != nil || !ok {
				t.Errorf("key %d after the aborted move: ok=%v err=%v", k, ok, err)
			}
		}
		if err := s.Commit(p); err != nil {
			t.Error(err)
		}
	})
	if err := w.env.RunUntil(w.env.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
}
