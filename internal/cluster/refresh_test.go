package cluster

import (
	"testing"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// TestGetForUpdateRefresh: a session that read key a, then takes key b for
// update after b was committed above its snapshot, moves its snapshot up to
// that commit and reads b's new value — unless a got a commit in between. A
// commit of a above b's does not block the move, and the session goes on
// reading a at the moved snapshot.
func TestGetForUpdateRefresh(t *testing.T) {
	const a, b = 10, 20
	for _, tc := range []struct {
		name    string
		commits func(tc *testCluster, p *sim.Proc, home *DataNode)
		refresh bool
	}{
		{"a unchanged", func(tc *testCluster, p *sim.Proc, home *DataNode) {
			tc.put(t, p, home, b, "b-new")
		}, true},
		{"a committed in between", func(tc *testCluster, p *sim.Proc, home *DataNode) {
			tc.put(t, p, home, a, "a-new")
			tc.put(t, p, home, b, "b-new")
		}, false},
		{"a committed above", func(tc *testCluster, p *sim.Proc, home *DataNode) {
			tc.put(t, p, home, b, "b-new")
			tc.put(t, p, home, a, "a-new")
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, table.Physiological, 2, 100)
			defer c.env.Close()
			c.run(t, func(p *sim.Proc) {
				home := c.c.Nodes[0]
				s := c.c.Master.Begin(p, cc.SnapshotIsolation, home)
				if v, ok, err := s.Get(p, "kv", ik(a)); err != nil || !ok || kvRow(t, v) != "val-000010" {
					t.Fatalf("read a: ok=%v err=%v", ok, err)
				}
				begin := s.Txn.Begin
				tc.commits(c, p, home)
				v, ok, err := s.GetForUpdate(p, "kv", ik(b))
				if !tc.refresh {
					if err != cc.ErrWriteConflict || s.Txn.Begin != begin {
						t.Fatalf("GetForUpdate: ok=%v err=%v at snapshot %d, want ErrWriteConflict at %d", ok, err, s.Txn.Begin, begin)
					}
					s.Abort(p)
					return
				}
				if err != nil || !ok || kvRow(t, v) != "b-new" || s.Txn.Begin <= begin {
					t.Fatalf("GetForUpdate: ok=%v err=%v at snapshot %d (began at %d), want b-new above it", ok, err, s.Txn.Begin, begin)
				}
				if v, ok, err := s.Get(p, "kv", ik(a)); err != nil || !ok || kvRow(t, v) != "val-000010" {
					t.Fatalf("read a again: ok=%v err=%v, want the value first read", ok, err)
				}
				payload, _ := kvSchema().EncodeRow(table.Row{int64(b), "b-rmw"})
				if err := s.Put(p, "kv", ik(b), payload); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit(p); err != nil {
					t.Fatal(err)
				}
				r := c.c.Master.Begin(p, cc.SnapshotIsolation, home)
				if v, _, _ := r.Get(p, "kv", ik(b)); kvRow(t, v) != "b-rmw" {
					t.Fatalf("b = %q after commit, want b-rmw", kvRow(t, v))
				}
				r.Abort(p)
			})
		})
	}
}

// TestNoRefreshAfterScanOrFollowerRead: a scan and a read served by a replica
// leave nothing in the read set, so a session that made one dies on the next
// conflict instead of moving its snapshot.
func TestNoRefreshAfterScanOrFollowerRead(t *testing.T) {
	for _, kind := range []string{"scan", "follower"} {
		t.Run(kind, func(t *testing.T) {
			c := newRepCluster(t, table.Physiological, 4, 100)
			defer c.env.Close()
			c.run(t, func(p *sim.Proc) {
				home := c.c.Nodes[1]
				c.put(t, p, home, 10, "settled")
				s := c.c.Master.Begin(p, cc.SnapshotIsolation, home)
				if kind == "scan" {
					if err := s.Scan(p, "kv", ik(60), ik(62), func(_, _ []byte) bool { return true }); err != nil {
						t.Fatal(err)
					}
				} else {
					_, _, before, _ := c.c.ReplicationStats()
					if _, _, err := s.Get(p, "kv", ik(10)); err != nil {
						t.Fatal(err)
					}
					if _, _, after, _ := c.c.ReplicationStats(); after != before+1 {
						t.Fatal("the read was not served by a replica")
					}
				}
				c.put(t, p, home, 70, "new")
				if _, _, err := s.GetForUpdate(p, "kv", ik(70)); err != cc.ErrWriteConflict {
					t.Fatalf("GetForUpdate after a %s: %v, want ErrWriteConflict", kind, err)
				}
				s.Abort(p)
			})
		})
	}
}

// TestRefreshChargesRoundTripPerRemoteNode: checking the read set costs one
// round trip to each node other than home that served a read, and none for
// reads served at home.
func TestRefreshChargesRoundTripPerRemoteNode(t *testing.T) {
	for _, remote := range []bool{false, true} {
		c := newTestCluster(t, table.Physiological, 2, 100)
		c.run(t, func(p *sim.Proc) {
			home, other := c.c.Nodes[0], c.c.Nodes[1]
			s := c.c.Master.Begin(p, cc.SnapshotIsolation, home)
			if _, _, err := s.Get(p, "kv", ik(10)); err != nil {
				t.Fatal(err)
			}
			if remote {
				for _, k := range []int64{60, 70} {
					if _, _, err := s.Get(p, "kv", ik(k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.put(t, p, home, 20, "new")
			before := c.c.Net.Messages(other.ID)
			if _, ok, err := s.GetForUpdate(p, "kv", ik(20)); err != nil || !ok {
				t.Fatalf("GetForUpdate: ok=%v err=%v", ok, err)
			}
			want := int64(0)
			if remote {
				want = 1 // the reply to the one check of keys 60 and 70
			}
			if got := c.c.Net.Messages(other.ID) - before; got != want {
				t.Errorf("remote reads %v: node %d sent %d messages during the refresh, want %d", remote, other.ID, got, want)
			}
			s.Abort(p)
		})
		c.env.Close()
	}
}
