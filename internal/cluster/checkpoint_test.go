package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// TestCheckpointPowerFailSweep power-fails a node at every crash point of
// the fuzzy checkpoint protocol in turn — before the flush walk, after each
// flush batch, after the begin record, after the redo scan, with the end
// record appended but volatile, and with the pair durable but truncation
// pending: round k crashes at the k-th "ckpt.*" point passed. After each
// crash the node restarts and every acknowledged write must read back; a torn
// begin/end pair must be invisible, so the restart falls back to the last
// complete checkpoint (bounded replay). The sweep ends when a round's
// checkpoint completes without reaching its crash, and must have crashed at
// every one of the six points on the way.
func TestCheckpointPowerFailSweep(t *testing.T) {
	tc := newTestCluster(t, table.Physiological, 2, 400)
	defer tc.env.Close()
	node := tc.c.Nodes[0]
	master := tc.c.Master

	expected := map[int64]string{}
	commit := func(p *sim.Proc, k int64, val string) {
		s := master.Begin(p, cc.SnapshotIsolation, node)
		payload, _ := kvSchema().EncodeRow(table.Row{k, val})
		if err := s.Put(p, "kv", ik(k), payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
		expected[k] = val
	}
	verify := func(p *sim.Proc, round int) {
		s := master.Begin(p, cc.SnapshotIsolation, node)
		defer s.Abort(p)
		for k, want := range expected {
			raw, ok, err := s.Get(p, "kv", ik(k))
			if err != nil {
				t.Fatalf("round %d: key %d: %v", round, k, err)
			}
			if !ok {
				t.Fatalf("round %d: committed key %d lost", round, k)
			}
			row, _ := kvSchema().DecodeRow(raw)
			if got := row[1].(string); got != want {
				t.Fatalf("round %d: key %d = %q, want %q", round, k, got, want)
			}
		}
	}

	// A first complete checkpoint for the crashed rounds to fall back to.
	tc.run(t, func(p *sim.Proc) {
		for i := int64(0); i < 20; i++ {
			commit(p, i*3%200, fmt.Sprintf("base-%d", i))
		}
		st, err := tc.c.CheckpointNode(p, node, 4)
		if err != nil {
			t.Fatal(err)
		}
		if st.EndLSN == 0 {
			t.Fatal("initial checkpoint did not complete")
		}
	})
	_, tab, err := wholeLog(node.Log)
	if err != nil {
		t.Fatal(err)
	}
	ck0 := tab.LastCheckpoint()
	if ck0 == nil {
		t.Fatal("complete checkpoint invisible to LastCheckpoint")
	}

	completed := false
	crashedAt := map[string]bool{}
	for step := 0; step < 64 && !completed; step++ {
		step := step
		tc.run(t, func(p *sim.Proc) {
			// Fresh dirty state and log delta for this round's checkpoint.
			for i := int64(0); i < 10; i++ {
				k := (int64(step)*10 + i) * 3 % 200
				commit(p, k, fmt.Sprintf("round-%d-%d", step, i))
			}
			hits := 0
			tc.c.Point = func(n *DataNode, name string) {
				if n == node && strings.HasPrefix(name, "ckpt.") {
					if hits == step {
						tc.c.CrashNode(n)
						crashedAt[name] = true
					}
					hits++
				}
			}
			_, err := tc.c.CheckpointNode(p, node, 4)
			tc.c.Point = nil
			if err != nil {
				t.Fatal(err)
			}
			if !node.Down() {
				// The protocol finished before the k-th point: sweep complete.
				completed = true
				verify(p, step)
				return
			}
			if _, _, err := tc.c.RestartNode(p, node); err != nil {
				t.Fatalf("step %d: restart: %v", step, err)
			}
			// The crashed round's pair is torn (or, for the late steps,
			// already durable): restart must have used a complete
			// checkpoint either way, never a half-written one.
			if ck := node.fold.a.LastCheckpoint(); ck == nil || ck.Begin < ck0.Begin {
				t.Fatalf("step %d: checkpoint regressed: %+v (had begin %d)", step, ck, ck0.Begin)
			}
			if !node.LastRecovery.Checkpointed {
				t.Fatalf("step %d: restart ignored the complete checkpoint", step)
			}
			if node.LastRecovery.Redo == 0 {
				t.Fatalf("step %d: replay started at the log head despite a checkpoint", step)
			}
			verify(p, step)
		})
	}
	if !completed {
		t.Fatal("sweep never reached a completed checkpoint (protocol grew beyond 64 steps?)")
	}
	for _, name := range []string{"ckpt.walk", "ckpt.batch", "ckpt.begin", "ckpt.scanned", "ckpt.end", "ckpt.durable"} {
		if !crashedAt[name] {
			t.Errorf("the sweep never crashed at %s (crashed at %v)", name, crashedAt)
		}
	}
}

// TestCoordFloorKeepsElection: a checkpoint on the replicated coordinator's
// anchor truncates its log at the coordinator-history floor, and an election
// over what is left must seat exactly what one over the whole log seats — the
// newest snapshot of every table, the lease ceiling, every decision with its
// outstanding participants. The history holds the two shapes a floor that is
// too high loses: a lease ceiling followed by a lower grant, and a decision
// re-logged with fewer participants than its first record, whose acks were
// lost (the election replays the first record of a decision it does not
// know). Superseded snapshots and a fully acked decision lie below the floor
// and must be gone.
func TestCoordFloorKeepsElection(t *testing.T) {
	w := newFailoverWorld(t, defaultLeaseChunk)
	defer w.env.Close()
	m, leader := w.c.Master, w.c.Nodes[0]
	leader.Log.SetSegmentBytes(1) // one record per segment: truncation is exact
	dec := func(id cc.TxnID, nodes ...int) wal.Record {
		return wal.Record{Txn: id, Type: wal.RecDecision, TS: 50,
			After: wal.EncodeMasterParticipants(nil, nodes)}
	}
	ack := func(id cc.TxnID, node int) wal.Record {
		return wal.Record{Txn: id, Type: wal.RecMAck, After: wal.EncodeMasterAck(nil, node)}
	}
	const high, low = cc.Timestamp(1 << 40), cc.Timestamp(1 << 39)
	history := []wal.Record{
		dec(103, 1, 2), ack(103, 1), ack(103, 2), // drained
		m.tableRecord("kv"), // superseded below
		{Type: wal.RecMLease, TS: high},
		dec(102, 1, 3),
		m.tableRecord("kv"),
		{Type: wal.RecMLease, TS: low},
		dec(102, 3), // a re-log that lost node 1's outstanding branch
		dec(101, 1, 2), ack(101, 1),
	}
	for _, rec := range history {
		m.logMaster(nil, rec, true) // setup path: durable on the leader and every follower
	}
	full, _, err := wholeLog(leader.Log)
	if err != nil {
		t.Fatal(err)
	}
	var ck CheckpointStats
	w.env.Spawn("checkpoint", func(p *sim.Proc) { ck, err = w.c.CheckpointNode(p, leader, 0) })
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	kept, _, _ := m.masterCopy(leader)
	seat := func(recs []wal.Record) *coordHistory {
		return foldCoord(recs, map[cc.TxnID]*txnDecision{})
	}
	before, after := seat(full), seat(kept)
	var highLSN uint64 // the ceiling's grant: the floor
	for i := range full {
		if full[i].Type == wal.RecMLease && full[i].TS == high {
			highLSN = full[i].LSN
		}
	}
	if ck.Truncated != highLSN {
		t.Fatalf("checkpoint truncated at LSN %d, want the ceiling's grant at %d", ck.Truncated, highLSN)
	}
	if first := kept[0].LSN; first != highLSN {
		t.Fatalf("oldest coordinator record kept is at LSN %d, want %d", first, highLSN)
	}
	if _, ok := before.decisions[103]; ok {
		t.Fatal("the fully acked decision is still outstanding")
	}
	if before.lease != high || len(before.decisions[102].outstanding) != 2 || len(before.decisions[101].outstanding) != 1 {
		t.Fatalf("election over the whole log: lease %d, decisions %v", before.lease, before.decisions)
	}
	if after.lease != before.lease {
		t.Fatalf("lease ceiling %d after truncation, %d before", after.lease, before.lease)
	}
	if len(after.tables) != len(before.tables) {
		t.Fatalf("%d tables after truncation, %d before", len(after.tables), len(before.tables))
	}
	for name, tb := range before.tables {
		if ta, ok := after.tables[name]; !ok || !reflect.DeepEqual(ta.st, tb.st) {
			t.Fatalf("table %s: %+v after truncation, %+v before", name, ta.st, tb.st)
		}
	}
	if len(after.decisions) != len(before.decisions) {
		t.Fatalf("%d decisions after truncation, %d before", len(after.decisions), len(before.decisions))
	}
	for id, db := range before.decisions {
		if da, ok := after.decisions[id]; !ok || da.ts != db.ts || !reflect.DeepEqual(da.outstanding, db.outstanding) {
			t.Fatalf("decision %d: %+v after truncation, %+v before", id, da, db)
		}
	}
}

// TestStaleFollowerAtCutKeepsLog: the replica-durable floor is read at the
// checkpoint's cut, not at its scan. Node 0's only follower, node 1, loses
// power at node 0's "ckpt.end" point — after the scan, while the end record
// is being forced — so it goes stale in the window between the two, and the
// resync its restart runs re-ships node 0's whole retained log: that
// checkpoint must recycle nothing. Once the resync has run, the next
// checkpoint recycles. Node 0 follows node 2, which ships nothing, and no
// coordinator history is replicated, so neither the wrapper floor nor the
// coordinator floor hides the result.
func TestStaleFollowerAtCutKeepsLog(t *testing.T) {
	tc := newRepClusterWith(t, table.Physiological, 3, 40, func(cfg *Config) { cfg.DataReplicas = 1 })
	defer tc.env.Close()
	c := tc.c
	origin, follower := c.Nodes[0], c.Nodes[1]
	if l := origin.ship.link(follower); l == nil || len(origin.ship.links) != 1 {
		t.Fatal("node 1 is not node 0's only follower")
	}
	origin.Log.SetSegmentBytes(256) // a few records per segment: every cut shows
	writes := func(p *sim.Proc, round int) {
		for k := int64(0); k < 20; k++ { // node 0's half of the keys
			tc.put(t, p, origin, k, fmt.Sprintf("r%d-%d", round, k))
		}
	}
	head := func() uint64 { // the first LSN the origin's log retains
		recs, _, err := wholeLog(origin.Log)
		if err != nil || len(recs) == 0 {
			t.Fatalf("origin log: %d records, %v", len(recs), err)
		}
		return recs[0].LSN
	}
	checkpoint := func(p *sim.Proc) (st CheckpointStats, before, after uint64) {
		t.Helper()
		before = head()
		st, err := c.CheckpointNode(p, origin, 0)
		if err != nil || st.EndLSN == 0 {
			t.Fatalf("checkpoint %+v: %v", st, err)
		}
		return st, before, head()
	}
	tc.run(t, func(p *sim.Proc) {
		writes(p, 0)
		hit := false
		c.Point = func(n *DataNode, name string) {
			if n == origin && name == "ckpt.end" && !hit {
				hit = true
				c.CrashNode(follower)
			}
		}
		st, before, after := checkpoint(p)
		c.Point = nil
		if !hit || !follower.Down() {
			t.Fatal("the follower did not crash at the origin's ckpt.end")
		}
		if after != before {
			t.Fatalf("checkpoint with a stale follower cut at %d: log head %d -> %d, want nothing recycled",
				st.Truncated, before, after)
		}
		if _, _, err := c.RestartNode(p, follower); err != nil {
			t.Fatal(err)
		}
		if l := origin.ship.link(follower); l.stale {
			t.Fatal("the follower's restart did not resync it")
		}
		writes(p, 1)
		st, before, after = checkpoint(p)
		if after <= before {
			t.Fatalf("checkpoint after the resync cut at %d: log head %d -> %d, want segments recycled",
				st.Truncated, before, after)
		}
	})
}
