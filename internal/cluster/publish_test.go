package cluster

import (
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// messages sums every node's sent-message count.
func messages(c *Cluster) int64 {
	var n int64
	for _, node := range c.Nodes {
		n += c.Net.Messages(node.ID)
	}
	return n
}

// TestBeginChargesNoNetwork: a snapshot-isolation Begin away from the master's
// node sends no message and takes only the transaction's CPU overhead; its
// snapshot is the published clock. A locking Begin there still fetches a fresh
// timestamp over the round trip.
func TestBeginChargesNoNetwork(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	tc.run(t, func(p *sim.Proc) {
		sent, at := messages(c), p.Now()
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[1])
		if n := messages(c) - sent; n != 0 || p.Now()-at != c.Cal.CPUTxnOverhead {
			t.Errorf("Begin at node 1 sent %d messages and took %v, want none and %v", n, p.Now()-at, c.Cal.CPUTxnOverhead)
		}
		if s.Txn.Begin != published(c) {
			t.Errorf("snapshot %d, want the published clock %d", s.Txn.Begin, published(c))
		}
		s.Abort(p)
		sent = messages(c)
		l := c.Master.Begin(p, cc.Locking, c.Nodes[1])
		if n := messages(c) - sent; n != 2 {
			t.Errorf("locking Begin at node 1 sent %d messages, want the round trip's 2", n)
		}
		l.Abort(p)
	})
}

// TestAckWaitsForPublication: with every message delayed far beyond the log
// force, a commit homed on the master's node — no message on its own path —
// returns only once its commit timestamp has landed on every node, and a
// session begun at node 1 at that instant reads its write.
func TestAckWaitsForPublication(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	const delay = 20 * time.Millisecond
	tc.run(t, func(p *sim.Proc) {
		c.Net.SetExtraDelay(delay)
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		payload, _ := kvSchema().EncodeRow(table.Row{int64(10), "new"})
		if err := s.Put(p, "kv", ik(10), payload); err != nil {
			t.Fatal(err)
		}
		at := p.Now()
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
		if took := p.Now() - at; took < delay || published(c) < s.Txn.Commit {
			t.Errorf("Commit returned after %v with the published clock at %d, want at least %v and commit %d landed",
				took, published(c), delay, s.Txn.Commit)
		}
		r := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[1])
		v, ok, err := r.Get(p, "kv", ik(10))
		if row, _ := kvSchema().DecodeRow(v); err != nil || !ok || row[1].(string) != "new" {
			t.Errorf("session begun at node 1 after the ack (snapshot %d, commit %d) read %v %v %v, want %q",
				r.Txn.Begin, s.Txn.Commit, row, ok, err, "new")
		}
		r.Abort(p)
		c.Net.SetExtraDelay(0)
	})
}

// TestPublicationConverges: once a replicated cluster has quiesced after a mix
// of single-node and distributed commits from every home, the published view
// has caught up with the oracle: clock and safe snapshot both at the clock.
func TestPublicationConverges(t *testing.T) {
	tc := newRepClusterWith(t, table.Physiological, 4, 100, func(cfg *Config) { cfg.MasterReplicas = 2 })
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain()
	for i, home := range c.Nodes {
		keys := []int64{int64(i), int64(60 + i)} // one key on each owner: distributed
		if i%2 == 1 {
			keys = keys[:1]
		}
		tc.env.Spawn("writer", func(p *sim.Proc) {
			s := c.Master.Begin(p, cc.SnapshotIsolation, home)
			for _, k := range keys {
				payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
				if err := s.Put(p, "kv", ik(k), payload); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Commit(p); err != nil {
				t.Error(err)
			}
		})
	}
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
	o := c.Master.Oracle
	if pub, safe := o.Published(); pub != o.Clock() || safe != o.Clock() || o.UnsettledCount() != 0 {
		t.Fatalf("quiesced at clock %d with %d unsettled, published view (%d, %d), want both at the clock",
			o.Clock(), o.UnsettledCount(), pub, safe)
	}
}

// TestOldPointerDrainsUnderReadOnlyLoad: after a move, two readers keep a
// snapshot session open at every instant, and nothing commits. The move left
// the published clock at the cleanup's horizon, so every new snapshot begins
// there; the cleanup issues a timestamp and publishes it, and the old pointer
// drains once the snapshots begun before that have ended.
func TestOldPointerDrainsUnderReadOnlyLoad(t *testing.T) {
	tc := newTestCluster(t, table.Logical, 3, 200)
	defer tc.env.Close()
	m := tc.c.Master
	stop := false
	for r := 0; r < 2; r++ {
		tc.env.Spawn("reader", func(p *sim.Proc) {
			p.Sleep(time.Duration(r) * 50 * time.Millisecond)
			for !stop {
				s := m.Begin(p, cc.SnapshotIsolation, tc.c.Nodes[1])
				p.Sleep(100 * time.Millisecond)
				if err := s.Commit(p); err != nil {
					t.Error(err)
				}
			}
		})
	}
	tc.run(t, func(p *sim.Proc) {
		p.Sleep(75 * time.Millisecond) // both readers are in a session
		if err := m.MigrateRange(p, "kv", ik(0), ik(50), tc.c.Nodes[2]); err != nil {
			t.Fatal(err)
		}
		e, err := tc.tm.Route(ik(10))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && e.OldPart != nil; i++ {
			p.Sleep(time.Second)
		}
		stop = true
		if e.OldPart != nil {
			t.Fatalf("the old pointer is still live 10 s after the move under a read-only load (%d active)", m.Oracle.ActiveCount())
		}
	})
}
