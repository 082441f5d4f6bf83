package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// indoubtWorld is one commit-window crash scenario: a three-node cluster
// (node 0 hosts the master and no data) with a kv table split between node 1
// and node 2, and one distributed transaction updating a key on each.
type indoubtWorld struct {
	env    *sim.Env
	c      *Cluster
	n1, n2 *DataNode
}

const (
	idKeys   = 100
	idLeft   = int64(10) // key on node 1's half
	idRight  = int64(90) // key on node 2's half
	idOldVal = "val-%06d"
)

func newIndoubtWorld(t *testing.T) *indoubtWorld { return newIndoubtWorldWith(t, 3, func(*Config) {}) }

// newIndoubtWorldWith is the same table on a cluster of the given size, with
// the configuration adjusted by tune first. With four nodes and DataReplicas
// = 2, node 3 owns nothing and follows both participants.
func newIndoubtWorldWith(t *testing.T, nodes int, tune func(*Config)) *indoubtWorld {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	tune(&cfg)
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	mid := ik(int64(idKeys / 2))
	_, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[1]},
		{Low: mid, High: nil, Owner: c.Nodes[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= idKeys {
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
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	return &indoubtWorld{env: env, c: c, n1: c.Nodes[1], n2: c.Nodes[2]}
}

// runCommit executes the distributed update (both keys -> "new") starting at
// a fixed virtual time and returns whether it was acknowledged.
func (w *indoubtWorld) runCommit(t *testing.T) (acked bool) {
	t.Helper()
	w.env.Spawn("commit", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // fixed start so crash times align across runs
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
		p1, _ := kvSchema().EncodeRow(table.Row{idLeft, "new"})
		p2, _ := kvSchema().EncodeRow(table.Row{idRight, "new"})
		if err := s.Put(p, "kv", ik(idLeft), p1); err != nil {
			t.Errorf("put left: %v", err)
			return
		}
		if err := s.Put(p, "kv", ik(idRight), p2); err != nil {
			t.Errorf("put right: %v", err)
			return
		}
		if err := s.Commit(p); err != nil {
			s.Abort(p)
			return
		}
		acked = true
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	return acked
}

// commitWindow measures the virtual-time span of the distributed commit on an
// undisturbed run: from the last Put returning to the last participant's
// commit record forced, the run's last event. Commit returns earlier, at the
// durable decision, with phase 2 still running behind the acknowledgment. The
// simulation is deterministic, so the same span holds for every identically
// prepared cluster.
func commitWindow(t *testing.T) (start, end time.Duration) {
	t.Helper()
	w := newIndoubtWorld(t)
	defer w.env.Close()
	w.env.Spawn("measure", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
		p1, _ := kvSchema().EncodeRow(table.Row{idLeft, "new"})
		p2, _ := kvSchema().EncodeRow(table.Row{idRight, "new"})
		if err := s.Put(p, "kv", ik(idLeft), p1); err != nil {
			t.Errorf("put left: %v", err)
			return
		}
		if err := s.Put(p, "kv", ik(idRight), p2); err != nil {
			t.Errorf("put right: %v", err)
			return
		}
		start = p.Now()
		if err := s.Commit(p); err != nil {
			t.Errorf("undisturbed commit failed: %v", err)
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	end = w.env.Now()
	if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the undisturbed commit's phase 2", n)
	}
	if end <= start {
		t.Fatalf("degenerate commit window [%v, %v]", start, end)
	}
	return start, end
}

// hasInDoubtTrace reports whether the node's durable log holds a prepare
// vote for some transaction with no commit or abort record — the state the
// restart must resolve against the coordinator. The trace is decoded from
// the log's physical bytes and analysed like the restart's own pass.
func hasInDoubtTrace(n *DataNode) bool {
	_, a, _ := wholeLog(n.Log)
	return len(a.InDoubt()) > 0
}

// TestCommitCrashAnywhere sweeps a power failure of each participant across
// the entire distributed-commit window — prepare forces, decision, installs,
// commit-record forces — and checks the outcome of every landing point:
// an acknowledged commit is fully durable on both nodes after restart, an
// unacknowledged one leaves no trace. The sweep must observe an in-doubt
// branch resolved in both directions (roll-forward of a decided commit and
// presumed-abort rollback of an undecided prepare).
func TestCommitCrashAnywhere(t *testing.T) {
	start, end := commitWindow(t)
	span := end - start
	const steps = 30
	rollForward, rollBack, ackedRuns, abortedRuns := 0, 0, 0, 0

	for _, victim := range []int{1, 2} {
		for i := 0; i <= steps; i++ {
			crashAt := start + span*time.Duration(i)/steps
			w := newIndoubtWorld(t)
			target := w.c.Nodes[victim]
			other := w.n2
			if victim == 2 {
				other = w.n1
			}
			w.env.After(crashAt, func() { w.c.CrashNode(target) })
			acked := w.runCommit(t)

			if acked {
				ackedRuns++
				if target.Down() {
					rollForward++ // branch left in doubt, must roll forward
				}
			} else {
				abortedRuns++
				// Kill the surviving participant before its abort record is
				// forced: its durable log then holds a prepare vote with no
				// local decision — the presumed-abort direction.
				if !other.Down() {
					w.c.CrashNode(other)
				}
				if hasInDoubtTrace(other) {
					rollBack++
				}
			}
			// Restart everything and verify the end state.
			w.env.Spawn("restart", func(p *sim.Proc) {
				p.Sleep(100 * time.Millisecond)
				for _, n := range w.c.Nodes {
					if n.Down() {
						if _, _, err := w.c.RestartNode(p, n); err != nil {
							t.Errorf("crashAt=%v victim=%d: restart node %d: %v", crashAt, victim, n.ID, err)
						}
					}
				}
				s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
				for _, k := range []int64{idLeft, idRight} {
					v, ok, err := s.Get(p, "kv", ik(k))
					if err != nil || !ok {
						t.Errorf("crashAt=%v victim=%d: key %d unreadable after restart: %v %v", crashAt, victim, k, ok, err)
						continue
					}
					row, _ := kvSchema().DecodeRow(v)
					want := fmt.Sprintf(idOldVal, k)
					if acked {
						want = "new"
					}
					if row[1].(string) != want {
						t.Errorf("crashAt=%v victim=%d acked=%v: key %d = %q, want %q",
							crashAt, victim, acked, k, row[1], want)
					}
				}
				s.Abort(p)
			})
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
			if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
				t.Errorf("crashAt=%v victim=%d: %d unresolved coordinator decisions after restarts", crashAt, victim, n)
			}
			w.env.Close()
		}
	}
	t.Logf("sweep: %d acked, %d aborted, %d in-doubt roll-forward, %d in-doubt roll-back",
		ackedRuns, abortedRuns, rollForward, rollBack)
	if ackedRuns == 0 || abortedRuns == 0 {
		t.Fatalf("sweep did not cover both outcomes (acked=%d aborted=%d)", ackedRuns, abortedRuns)
	}
	if rollForward == 0 {
		t.Fatal("no crash landed between decision and commit record (in-doubt roll-forward unexercised)")
	}
	if rollBack == 0 {
		t.Fatal("no prepared-but-undecided branch observed (presumed-abort rollback unexercised)")
	}
	sweepReplicatedCommit(t)
}

// sweepReplicatedCommit is the same sweep with every log shipped to two
// followers, where each forced wait of the commit — the prepare votes, the
// commit records — runs its local force and its ship side by side: the power
// failure lands on the origin of a wait or on the follower it is forcing, at
// every point of the window, for the distributed commit and for a single-node
// one (whose waiter parks across its origin's outage and must come back with
// the commit's actual fate). Whatever the caller was told holds after
// everything has restarted: acknowledged means readable, an error means gone.
func sweepReplicatedCommit(t *testing.T) {
	const steps = 30
	var txn *cc.Txn // the committing transaction of the current world
	commit := func(w *indoubtWorld, keys []int64, resolved *bool, start, end *time.Duration) *error {
		var commitErr error
		txn = nil
		w.env.Spawn("commit", func(p *sim.Proc) {
			p.Sleep(10 * time.Millisecond)
			s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
			txn = s.Txn
			for _, k := range keys {
				payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
				if err := s.Put(p, "kv", ik(k), payload); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
			*start = p.Now()
			if commitErr = s.Commit(p); commitErr != nil {
				s.Abort(p)
			}
			*end, *resolved = p.Now(), true
		})
		return &commitErr
	}
	for _, keys := range [][]int64{{idLeft, idRight}, {idLeft}} {
		var start, end time.Duration
		var resolved bool
		w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.DataReplicas = 2 })
		commit(w, keys, &resolved, &start, &end)
		if err := w.env.Run(); err != nil || !resolved || end <= start {
			t.Fatalf("undisturbed replicated commit of %v: %v, resolved=%v, window [%v, %v]", keys, err, resolved, start, end)
		}
		w.env.Close()
		acked, failed, parked := 0, 0, 0
		depended, depAcked, depFailed := 0, 0, 0
		for _, victim := range []int{1, 3} { // the home participant; the follower its waits force
			for i := 0; i <= steps; i++ {
				crashAt := start + (end-start)*time.Duration(i)/steps
				w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.DataReplicas = 2 })
				target := w.c.Nodes[victim]
				resolved = false
				var from, to time.Duration
				commitErr := commit(w, keys, &resolved, &from, &to)
				// Two dependents per crash instant, started the moment the
				// commit is past its commit point, published and unsettled
				// (or when its window is over, if the crash came first): a
				// reader homed on a node the commit never touches, and a
				// writer on the commit's own home node whose record lands on
				// the same log. Both read the left key and only the writer can
				// be spared the wait. What they were told must hold after the
				// restart too.
				deps := [2]struct {
					saw  string
					deps int
					done bool
					err  error
				}{}
				for i, home := range []*DataNode{w.c.Nodes[0], w.n1} {
					i, home := i, home
					w.env.Spawn("dependent", func(p *sim.Proc) {
						p.Sleep(10 * time.Millisecond)
						for (txn == nil || !txn.Unsettled() || txn.Commit > published(w.c)) && p.Now() < end {
							p.Sleep(50 * time.Microsecond)
						}
						d := &deps[i]
						s := w.c.Master.Begin(p, cc.SnapshotIsolation, home)
						v, ok, err := s.Get(p, "kv", ik(idLeft))
						if err == nil && ok {
							row, _ := kvSchema().DecodeRow(v)
							d.saw = row[1].(string)
							d.deps = len(s.Txn.Deps)
							if i == 1 {
								payload, _ := kvSchema().EncodeRow(table.Row{idLeft + 1, "dep:" + d.saw})
								err = s.Put(p, "kv", ik(idLeft+1), payload)
							}
						}
						if err == nil {
							err = s.Commit(p)
						}
						if err != nil {
							s.Abort(p)
						}
						d.err, d.done = err, true
					})
				}
				w.env.After(crashAt, func() { w.c.CrashNode(target) })
				w.env.Spawn("restart", func(p *sim.Proc) {
					p.Sleep(crashAt + 100*time.Millisecond)
					if !resolved {
						parked++
					}
					if _, _, err := w.c.RestartNode(p, target); err != nil {
						t.Errorf("keys %v crashAt=%v victim=%d: restart: %v", keys, crashAt, victim, err)
					}
				})
				if err := w.env.RunUntil(time.Minute); err != nil {
					t.Fatal(err)
				}
				if !resolved {
					t.Fatalf("keys %v crashAt=%v victim=%d: the commit never returned", keys, crashAt, victim)
				}
				want := fmt.Sprintf("all %q", "new")
				if *commitErr != nil {
					failed++
					want = "all old"
				} else {
					acked++
				}
				for i, d := range deps {
					if !d.done {
						t.Fatalf("keys %v crashAt=%v victim=%d: dependent %d never returned", keys, crashAt, victim, i)
					}
					if d.deps > 0 {
						depended++
					}
					if d.err != nil {
						depFailed++
					} else {
						depAcked++
					}
					// A dependent that finished over the commit's value was
					// told that value exists.
					if d.err == nil && d.saw == "new" && *commitErr != nil {
						t.Errorf("keys %v crashAt=%v victim=%d: dependent %d finished having read %q, but the commit failed: %v",
							keys, crashAt, victim, i, d.saw, *commitErr)
					}
				}
				w.env.Spawn("verify", func(p *sim.Proc) {
					s := w.c.Master.Begin(p, cc.Locking, w.c.Nodes[0])
					defer s.Abort(p)
					if v, ok, err := s.Get(p, "kv", ik(idLeft+1)); err != nil || !ok {
						t.Errorf("keys %v crashAt=%v victim=%d: key %d unreadable after restart: %v %v", keys, crashAt, victim, idLeft+1, ok, err)
					} else {
						row, _ := kvSchema().DecodeRow(v)
						want := fmt.Sprintf(idOldVal, idLeft+1)
						if deps[1].err == nil {
							want = "dep:" + deps[1].saw
						}
						if got := row[1].(string); got != want {
							t.Errorf("keys %v crashAt=%v victim=%d: dependent writer returned %v, its key reads %q, want %q",
								keys, crashAt, victim, deps[1].err, got, want)
						}
					}
					for _, k := range keys {
						v, ok, err := s.Get(p, "kv", ik(k))
						if err != nil || !ok {
							t.Errorf("keys %v crashAt=%v victim=%d: key %d unreadable after restart: %v %v", keys, crashAt, victim, k, ok, err)
							continue
						}
						row, _ := kvSchema().DecodeRow(v)
						if got := row[1].(string); (got == "new") != (*commitErr == nil) {
							t.Errorf("keys %v crashAt=%v victim=%d commit=%v: key %d = %q, want %s",
								keys, crashAt, victim, *commitErr, k, got, want)
						}
					}
				})
				if err := w.env.RunUntil(2 * time.Minute); err != nil {
					t.Fatal(err)
				}
				if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
					t.Errorf("keys %v crashAt=%v victim=%d: %d unresolved coordinator decisions after the restart", keys, crashAt, victim, n)
				}
				for _, n := range w.c.Nodes {
					for _, l := range n.ship.links {
						if l.stale {
							t.Errorf("keys %v crashAt=%v victim=%d: node %d's follower %d still stale", keys, crashAt, victim, n.ID, l.follower.ID)
						}
					}
				}
				w.env.Close()
			}
		}
		t.Logf("replicated sweep, keys %v: %d acked, %d failed, %d callers still parked 100 ms after the crash; dependents: %d took a dependency, %d finished, %d failed",
			keys, acked, failed, parked, depended, depAcked, depFailed)
		if depended == 0 || depFailed == 0 {
			t.Fatalf("replicated sweep of %v: %d dependents took a dependency, %d failed; want both exercised", keys, depended, depFailed)
		}
		if acked == 0 || failed == 0 {
			t.Fatalf("replicated sweep of %v did not cover both outcomes (acked=%d failed=%d)", keys, acked, failed)
		}
		if len(keys) == 1 && parked == 0 {
			t.Fatal("no single-node commit was parked across its origin's outage")
		}
	}
}

// TestInDoubtRollForward pins the roll-forward direction: a participant
// power-fails after the coordinator's decision is durable but before its own
// commit record is, the commit is acknowledged, and the restart installs the
// branch from its prepare-time log at the decided timestamp.
func TestInDoubtRollForward(t *testing.T) {
	start, end := commitWindow(t)
	// Land just before the end of the window: past the decision, inside the
	// installs / commit-record force of the second participant.
	crashAt := end - (end-start)/20
	w := newIndoubtWorld(t)
	defer w.env.Close()
	w.env.After(crashAt, func() { w.c.CrashNode(w.n2) })
	acked := w.runCommit(t)
	if !acked {
		t.Fatalf("commit at crashAt=%v not acknowledged (window [%v, %v])", crashAt, start, end)
	}
	if !w.n2.Down() {
		t.Skip("crash landed after the participant finished (window shifted); sweep test covers this")
	}
	// The branch is in doubt on durable storage and decided at the master.
	if !hasInDoubtTrace(w.n2) {
		t.Fatal("crashed participant has no prepared-but-undecided trace in its durable log")
	}
	if w.c.Master.InDoubtDecisionCount() == 0 {
		t.Fatal("coordinator forgot the decision while a branch is still in doubt")
	}
	w.env.Spawn("restart", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		if _, _, err := w.c.RestartNode(p, w.n2); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		// Both halves must hold the committed values; old snapshots must not.
		old := w.c.Master.Oracle.Begin(cc.SnapshotIsolation) // begun after commit: sees it
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Errorf("key %d after roll-forward: %v %v", k, ok, err)
				continue
			}
			row, _ := kvSchema().DecodeRow(v)
			if row[1].(string) != "new" {
				t.Errorf("key %d = %q after roll-forward, want %q", k, row[1], "new")
			}
		}
		s.Abort(p)
		w.c.Master.Oracle.Abort(old)
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d coordinator decisions outstanding after resolution", n)
	}
}

// TestInDoubtRollbackPresumedAbort pins the rollback direction: a
// participant holds a durable prepare vote for a transaction the coordinator
// never decided (a later participant failed prepare, so the commit was
// refused), crashes, and its restart must roll the branch back — and close
// it locally so a second restart needs no coordinator either.
func TestInDoubtRollbackPresumedAbort(t *testing.T) {
	start, end := commitWindow(t)
	// Land early in the window: inside the second participant's prepare
	// force, after the first participant's vote is durable.
	crashAt := start + (end-start)/4
	w := newIndoubtWorld(t)
	defer w.env.Close()
	w.env.After(crashAt, func() { w.c.CrashNode(w.n2) })
	acked := w.runCommit(t)
	if acked {
		t.Skip("crash landed after the decision (window shifted); sweep test covers this")
	}
	// node1 voted; its abort record is still volatile. Power-fail it.
	if w.n1.Down() {
		t.Fatal("unexpected: home participant already down")
	}
	w.c.CrashNode(w.n1)
	if !hasInDoubtTrace(w.n1) {
		t.Skip("first participant's vote was not durable yet; sweep test covers this")
	}
	w.env.Spawn("restart", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		for _, n := range []*DataNode{w.n1, w.n2} {
			if n.Down() {
				if _, _, err := w.c.RestartNode(p, n); err != nil {
					t.Errorf("restart node %d: %v", n.ID, err)
				}
			}
		}
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Errorf("key %d after rollback: %v %v", k, ok, err)
				continue
			}
			row, _ := kvSchema().DecodeRow(v)
			if want := fmt.Sprintf(idOldVal, k); row[1].(string) != want {
				t.Errorf("key %d = %q after presumed abort, want %q", k, row[1], want)
			}
		}
		s.Abort(p)
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	// The resolution was logged locally: the branch is no longer in doubt.
	if hasInDoubtTrace(w.n1) {
		t.Fatal("rollback not closed in the durable log (second restart would query the coordinator again)")
	}
}

// TestCommitAfterParticipantPresumedAbort pins the window between a
// participant's prepare vote and the coordinator's decision when that window
// is long: the committing session parks in the second participant's phase-1
// replication wait (both of its followers are down), and meanwhile the first
// participant — already prepared — power-fails, restarts, finds no decision
// and presumes abort. When the wait finally ends the session must notice
// that a branch is gone and fail; deciding commit would acknowledge a
// transaction one half of which is durably rolled back. (The coordinator is
// unreplicated here, so the restart's in-doubt query needs no grace wait.)
func TestCommitAfterParticipantPresumedAbort(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := DefaultConfig()
	cfg.Nodes = 5
	cfg.DataReplicas = 2
	c := New(env, cfg)
	for _, node := range c.Nodes[1:] {
		node.HW.ForceActive()
	}
	a, b := c.Nodes[1], c.Nodes[2] // ship sets {2,3} and {3,4}
	mid := ik(int64(idKeys / 2))
	if _, err := c.Master.CreateTable(kvSchema(), table.Physiological, []RangeSpec{
		{Low: nil, High: mid, Owner: a},
		{Low: mid, High: nil, Owner: b},
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		i := 0
		err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= idKeys {
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
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	c.SetupReplicationDrain()

	// Both followers of b are down: its prepare cannot become replica-durable.
	c.CrashNode(c.Nodes[3])
	c.CrashNode(c.Nodes[4])

	var commitErr error
	returned := false
	env.Spawn("commit", func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		p1, _ := kvSchema().EncodeRow(table.Row{idLeft, "new"})
		p2, _ := kvSchema().EncodeRow(table.Row{idRight, "new"})
		if err := s.Put(p, "kv", ik(idLeft), p1); err != nil {
			t.Errorf("put left: %v", err)
			return
		}
		if err := s.Put(p, "kv", ik(idRight), p2); err != nil {
			t.Errorf("put right: %v", err)
			return
		}
		commitErr = s.Commit(p)
		returned = true
		if commitErr != nil {
			s.Abort(p)
		}
	})
	env.Spawn("faults", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if returned {
			t.Error("commit returned while the second participant had no live follower")
		}
		if !hasInDoubtTrace(a) {
			t.Error("first participant holds no durable prepare vote yet")
		}
		c.CrashNode(a)
		if _, _, err := c.RestartNode(p, a); err != nil {
			t.Errorf("restart participant: %v", err)
		}
		if hasInDoubtTrace(a) {
			t.Error("restarted participant left its branch in doubt")
		}
		// A follower of b comes back: the parked prepare completes.
		if _, _, err := c.RestartNode(p, c.Nodes[3]); err != nil {
			t.Errorf("restart follower: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("commit never returned")
	}
	if commitErr == nil {
		t.Fatal("commit acknowledged although a prepared branch had presumed abort")
	}
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d coordinator decisions recorded for a transaction that must abort", n)
	}
	env.Spawn("verify", func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Errorf("key %d: %v %v", k, ok, err)
				continue
			}
			row, _ := kvSchema().DecodeRow(v)
			if want := fmt.Sprintf(idOldVal, k); row[1].(string) != want {
				t.Errorf("key %d = %q, want %q: a branch of the refused commit is visible", k, row[1], want)
			}
		}
		s.Abort(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareDuringRestartEpiloguePinsCheckpoint: a node is back — its
// partitions swapped in, sessions writing to it — before RestartNode returns,
// because the replication epilogue still blocks. A distributed transaction
// that prepares on it in that window is live, not a loser of the crash: while
// it is undecided (here its other participant's prepare waits for a follower)
// the node's next checkpoint must hold it in flight and keep the redo point at
// or below its first record, or the prepare can be truncated away and a
// later restart lose the acknowledged commit. Once decided it must survive a
// crash of the node.
func TestPrepareDuringRestartEpiloguePinsCheckpoint(t *testing.T) {
	w := newIndoubtWorldWith(t, 5, func(cfg *Config) { cfg.DataReplicas = 2 })
	defer w.env.Close()
	c, a := w.c, w.n1 // ship sets {2,3} and {3,4}
	var s *Session
	var commitErr error
	committed := false
	w.env.Spawn("commit", func(p *sim.Proc) {
		for !a.Down() {
			p.Sleep(time.Millisecond)
		}
		for a.Down() {
			p.Sleep(10 * time.Microsecond)
		}
		s = c.Master.Begin(p, cc.SnapshotIsolation, a)
		for _, k := range []int64{idLeft, idRight} {
			payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
			if err := s.Put(p, "kv", ik(k), payload); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		commitErr, committed = s.Commit(p), true
	})
	w.env.Spawn("faults", func(p *sim.Proc) {
		c.CrashNode(c.Nodes[3]) // both followers of the second participant:
		c.CrashNode(c.Nodes[4]) // its prepare cannot become replica-durable
		c.CrashNode(a)
		p.Sleep(time.Second)
		if _, _, err := c.RestartNode(p, a); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if s == nil || committed || !hasInDoubtTrace(a) {
			t.Error("no transaction prepared on the node during its restart epilogue")
			return
		}
		if _, err := c.CheckpointNode(p, a, 0); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		pinned := false
		_, tab, _ := wholeLog(a.Log)
		for _, tx := range tab.LastCheckpoint().Txns {
			pinned = pinned || tx.Txn == s.Txn.ID
		}
		if !pinned {
			t.Errorf("checkpoint treats transaction %d, prepared after the node came back, as dead", s.Txn.ID)
		}
		if _, _, err := c.RestartNode(p, c.Nodes[3]); err != nil { // the parked prepare completes
			t.Errorf("restart follower: %v", err)
			return
		}
		for !committed {
			p.Sleep(time.Millisecond)
		}
		if commitErr != nil {
			t.Errorf("commit: %v", commitErr)
			return
		}
		c.CrashNode(a)
		if _, _, err := c.RestartNode(p, a); err != nil {
			t.Errorf("second restart: %v", err)
			return
		}
		r := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		if v, ok, err := r.Get(p, "kv", ik(idLeft)); err != nil || !ok {
			t.Errorf("key %d: %v %v", idLeft, ok, err)
		} else if row, _ := kvSchema().DecodeRow(v); row[1].(string) != "new" {
			t.Errorf("key %d = %q after the restart, want the acknowledged %q", idLeft, row[1], "new")
		}
		r.Abort(p)
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// remoteCommit runs the indoubtWorld transaction from node 0, so both
// participants are a network hop away and start each phase together. during
// runs once both writes are staged, just before Commit; the returned error
// is Commit's (the session is left for the caller to abort).
func (w *indoubtWorld) remoteCommit(t *testing.T, during func(p *sim.Proc, s *Session)) (s *Session, err error) {
	t.Helper()
	w.env.Spawn("commit", func(p *sim.Proc) {
		s = w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
			if perr := s.Put(p, "kv", ik(k), payload); perr != nil {
				t.Errorf("put %d: %v", k, perr)
				return
			}
		}
		during(p, s)
		err = s.Commit(p)
	})
	if rerr := w.env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	return s, err
}

// expectValues restarts every crashed node and checks both keys.
func (w *indoubtWorld) expectValues(t *testing.T, want func(k int64) string) {
	t.Helper()
	w.env.Spawn("verify", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		for _, n := range w.c.Nodes {
			if n.Down() {
				if _, _, err := w.c.RestartNode(p, n); err != nil {
					t.Errorf("restart node %d: %v", n.ID, err)
				}
			}
		}
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		defer s.Abort(p)
		for _, k := range []int64{idLeft, idRight} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok {
				t.Errorf("key %d: ok=%v err=%v", k, ok, err)
				continue
			}
			if row, _ := kvSchema().DecodeRow(v); row[1].(string) != want(k) {
				t.Errorf("key %d = %q, want %q", k, row[1], want(k))
			}
		}
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// midLeg is a point inside a remote participant's leg of either phase: the
// request/response trip is over and the leg's log force is in flight.
func (w *indoubtWorld) midLeg() time.Duration {
	return 2*w.c.Net.TransferTime(64) + 200*time.Microsecond
}

// TestConcurrentPrepareFailure: the participants prepare side by side, so
// when the lower-numbered one power-fails mid-prepare the other is already
// voting. The transaction aborts with the lowest-numbered failing node's
// error whichever died first, no decision exists, and the surviving branch —
// prepared, durably — rolls back: by the caller's abort, and under presumed
// abort if it then loses power before the abort record is forced.
func TestConcurrentPrepareFailure(t *testing.T) {
	oldVal := func(k int64) string { return fmt.Sprintf(idOldVal, k) }

	t.Run("survivor has voted", func(t *testing.T) {
		w := newIndoubtWorld(t)
		defer w.env.Close()
		s, err := w.remoteCommit(t, func(p *sim.Proc, _ *Session) {
			w.env.After(w.midLeg(), func() { w.c.CrashNode(w.n1) })
		})
		if want := (ErrNodeDown{1}); err != want {
			t.Fatalf("commit error %v, want %v", err, want)
		}
		if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
			t.Fatalf("%d decisions recorded for a transaction that failed prepare", n)
		}
		// Node 2 prepared while node 1 was dying: its vote is durable.
		if w.n2.Down() || !hasInDoubtTrace(w.n2) {
			t.Fatal("the surviving participant holds no durable prepare vote: it did not prepare alongside the failing one")
		}
		w.env.Spawn("abort", func(p *sim.Proc) { s.Abort(p) })
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
		// Its abort record is still volatile; lose it. The restart finds a
		// vote without a decision and presumes abort.
		w.c.CrashNode(w.n2)
		w.expectValues(t, oldVal)
		if hasInDoubtTrace(w.n2) {
			t.Fatal("rollback of the surviving branch not closed in its durable log")
		}
	})

	t.Run("lowest failing node wins", func(t *testing.T) {
		w := newIndoubtWorld(t)
		defer w.env.Close()
		s, err := w.remoteCommit(t, func(p *sim.Proc, _ *Session) {
			w.env.After(w.midLeg(), func() { w.c.CrashNode(w.n2) })
			w.env.After(w.midLeg()+100*time.Microsecond, func() { w.c.CrashNode(w.n1) })
		})
		if want := (ErrNodeDown{1}); err != want {
			t.Fatalf("commit error %v, want %v although node 2 failed first", err, want)
		}
		w.env.Spawn("abort", func(p *sim.Proc) { s.Abort(p) })
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
		w.expectValues(t, oldVal)
		if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
			t.Fatalf("%d decisions outstanding", n)
		}
	})
}

// TestParticipantDiesWhileSiblingCommits: both participants install side by
// side in phase 2. One power-fails mid-leg; its sibling finishes, the commit
// is acknowledged with the dead branch still charged to the decision, and the
// restart rolls that branch forward and drains the decision.
func TestParticipantDiesWhileSiblingCommits(t *testing.T) {
	w := newIndoubtWorld(t)
	defer w.env.Close()
	e, err := w.c.Master.tables["kv"].route(ik(idRight))
	if err != nil {
		t.Fatal(err)
	}
	right := e.Part
	var inFlight bool
	_, err = w.remoteCommit(t, func(_ *sim.Proc, s *Session) {
		// Phase 2 opens the instant the decision is recorded.
		w.env.Spawn("crash", func(p *sim.Proc) {
			for w.c.Master.InDoubtDecisionCount() == 0 {
				p.Sleep(10 * time.Microsecond)
			}
			p.Sleep(w.midLeg())
			// Node 2's install consumed its staged writes already: its leg
			// runs beside node 1's, not after it.
			inFlight = !right.HasPending(s.Txn) && w.c.Master.InDoubtDecisionCount() == 1
			w.c.CrashNode(w.n2)
		})
	})
	if err != nil {
		t.Fatalf("commit not acknowledged after the decision: %v", err)
	}
	if !inFlight {
		t.Fatal("node 2 had not started its phase-2 leg while node 1 was in its own")
	}
	if n := w.c.Master.InDoubtDecisionCount(); n != 1 {
		t.Fatalf("%d decisions outstanding after the ack, want 1 (node 2's branch is in doubt)", n)
	}
	if !hasInDoubtTrace(w.n2) {
		t.Fatal("crashed participant has no prepared-but-undecided trace in its durable log")
	}
	w.expectValues(t, func(int64) string { return "new" })
	if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the restart", n)
	}
}

// originDiesMidForce commits one single-owner update (key 10 on node 0 ->
// "new") on a fully shipped replicated cluster in which slow's log disk takes
// an extra 5 ms per write, and lets fault run 3 ms after the commit's batch
// landed on follower 1: the commit's two forces started together, so by then
// the faster of the two logs — the origin's own, or follower 1's — holds the
// commit record durably and the slower one's write is in flight, with the
// origin's drain lock long released. It returns the cluster, the commit's
// outcome, and the value a fresh snapshot reads once everything fault started
// has finished; fault can ask whether the commit has returned yet.
func originDiesMidForce(t *testing.T, slow int, fault func(p *sim.Proc, c *Cluster, resolved func() bool)) (tc *testCluster, commitErr error, got string) {
	t.Helper()
	tc = newRepCluster(t, table.Physiological, 4, 100)
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1 := c.Nodes[0], c.Nodes[1]
	c.Nodes[slow].HW.LogDisk().SetStall(5 * time.Millisecond)
	var landed time.Duration
	committed := false
	shippedAt(tc.env, f1, f1.Log.TailLSN(), &landed)
	tc.env.Spawn("fault", func(p *sim.Proc) {
		for landed == 0 {
			p.Sleep(10 * time.Microsecond)
		}
		p.Sleep(3 * time.Millisecond)
		commit := origin.Log.TailLSN() - 1
		local, remote := origin.Log.FlushedLSN() >= commit, f1.Log.FlushedLSN() >= origin.ship.link(f1).wrapLSN
		if origin.ship.draining || local == remote || local != (slow == f1.ID) {
			t.Errorf("setup: at the fault the drain lock is held (%v) or the wrong force is done: origin's %v, follower's %v",
				origin.ship.draining, local, remote)
		}
		fault(p, c, func() bool { return committed })
	})
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
	if err := tc.env.RunUntil(tc.env.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("the commit never resolved")
	}
	tc.run(t, func(p *sim.Proc) {
		// A locking read: it sees the newest committed version, whereas a fresh
		// snapshot could sit below the restarted partition's recovery horizon.
		s := c.Master.Begin(p, cc.Locking, origin)
		defer s.Abort(p)
		v, ok, err := s.Get(p, "kv", ik(10))
		if err != nil || !ok {
			t.Errorf("get: ok=%v err=%v", ok, err)
			return
		}
		row, _ := kvSchema().DecodeRow(v)
		got = row[1].(string)
	})
	return tc, commitErr, got
}

// TestOriginDiesDuringOffLockForce: the origin power-fails while its commit's
// forced pass is in the confirm stage, its own force of the commit record
// already done. The waiter parks across the outage and resolves to what
// recovery did.
func TestOriginDiesDuringOffLockForce(t *testing.T) {
	t.Run("plain restart acks", func(t *testing.T) {
		tc, err, got := originDiesMidForce(t, 1, func(p *sim.Proc, c *Cluster, _ func() bool) {
			c.CrashNode(c.Nodes[0])
			p.Sleep(2 * time.Second)
			if _, _, err := c.RestartNode(p, c.Nodes[0]); err != nil {
				t.Errorf("restart: %v", err)
			}
		})
		defer tc.env.Close()
		if err != nil || got != "new" {
			t.Fatalf("commit: %v, key reads %q; want an ack and the new value (the commit record was durable at the origin)", err, got)
		}
	})
	t.Run("rebuild below the replica prefix fails", func(t *testing.T) {
		// The origin's disk is destroyed and the follower being forced loses
		// power in the same instant: the commit's wrappers are durable nowhere,
		// so the rebuilt log ends below it.
		tc, err, got := originDiesMidForce(t, 1, func(p *sim.Proc, c *Cluster, _ func() bool) {
			c.DestroyDisk(c.Nodes[0])
			c.CrashNode(c.Nodes[1])
			p.Sleep(2 * time.Second)
			if _, _, err := c.RestartNode(p, c.Nodes[0]); err != nil {
				t.Errorf("restart origin: %v", err)
			}
			if _, _, err := c.RestartNode(p, c.Nodes[1]); err != nil {
				t.Errorf("restart follower: %v", err)
			}
		})
		defer tc.env.Close()
		if err == nil || got != fmt.Sprintf(idOldVal, 10) {
			t.Fatalf("commit: %v, key reads %q; want an error and the old value (the commit is gone everywhere)", err, got)
		}
	})
}

// TestOriginLosesShippedCommit is the window the overlapped forces open: the
// origin power-fails after a follower's force of the commit record returned and
// before its own. The record is durable on a follower's disk and nowhere at the
// origin, and the caller is parked. What it is told must be what becomes of the
// commit — and it is told nothing while that can still go either way.
func TestOriginLosesShippedCommit(t *testing.T) {
	restart := func(p *sim.Proc, c *Cluster, ids ...int) {
		for _, id := range ids {
			if _, _, err := c.RestartNode(p, c.Nodes[id]); err != nil {
				t.Errorf("restart node %d: %v", id, err)
			}
		}
	}
	// holds reports whether follower f's disk holds frame as origin 0's LSN lsn,
	// read raw, markers applied and nothing else.
	holds := func(f *DataNode, lsn uint64, frame []byte) bool {
		held, _ := streamCopy(f, 0, f.Log.FlushedLSN())
		return bytes.Equal(held.get(lsn), frame)
	}
	t.Run("plain restart: an error, once a follower is resynced", func(t *testing.T) {
		tc, err, got := originDiesMidForce(t, 0, func(p *sim.Proc, c *Cluster, resolved func() bool) {
			origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
			lost := origin.Log.TailLSN() - 1
			held, _ := streamCopy(f1, 0, f1.Log.FlushedLSN())
			frame := held.get(lost)
			var rec wal.Record
			if err := wal.DecodeFrame(frame, &rec); err != nil || rec.Type != wal.RecCommit {
				t.Errorf("setup: follower 1 does not hold the commit record durably: %v", err)
			}
			// Everybody loses power; the origin comes back alone. Its log ends
			// below the commit record, and nobody has been resynced: a disk
			// loss now would rebuild from follower 1's copy and bring the
			// commit back, so the caller must still be waiting.
			c.CrashNode(origin)
			c.CrashNode(f1)
			c.CrashNode(f2)
			p.Sleep(time.Second)
			restart(p, c, 0)
			p.Sleep(time.Second)
			if resolved() || !holds(f1, lost, frame) || c.lossSealed(origin, 0) {
				t.Errorf("with no follower resynced: commit returned=%v, follower 1 holds the frame=%v, sealed=%v; want false, true, false",
					resolved(), holds(f1, lost, frame), c.lossSealed(origin, 0))
			}
			// Follower 2 never held the frame durably; its resync in the new
			// generation is what seals the loss.
			restart(p, c, 2)
			p.Sleep(2 * shipRetryDelay)
			if !resolved() {
				t.Error("the commit is still waiting although a follower holds the new generation's marker")
			}
			restart(p, c, 1)
			for _, f := range []*DataNode{f1, f2} {
				if origin.ship.link(f).stale || holds(f, lost, frame) {
					t.Errorf("follower %d after its resync: stale=%v, still holds the lost commit record=%v",
						f.ID, origin.ship.link(f).stale, holds(f, lost, frame))
				}
			}
			// And no later rebuild resurrects it.
			c.DestroyDisk(origin)
			p.Sleep(time.Second)
			restart(p, c, 0)
		})
		defer tc.env.Close()
		if err == nil || got != fmt.Sprintf(idOldVal, 10) {
			t.Fatalf("commit: %v, key reads %q; want an error and the old value", err, got)
		}
		if rebuilds, _, _, _ := tc.c.ReplicationStats(); rebuilds != 1 {
			t.Fatalf("%d rebuilds, want 1", rebuilds)
		}
	})
	t.Run("disk loss before any resync: the rebuild adopts it, an ack", func(t *testing.T) {
		tc, err, got := originDiesMidForce(t, 0, func(p *sim.Proc, c *Cluster, resolved func() bool) {
			origin := c.Nodes[0]
			c.CrashNode(origin)
			c.CrashNode(c.Nodes[1])
			c.CrashNode(c.Nodes[2])
			p.Sleep(time.Second)
			// A plain restart first: the origin rolls the transaction back and
			// starts a generation that numbers over its commit record.
			restart(p, c, 0)
			if resolved() || origin.ship.gen != 1 {
				t.Errorf("after the plain restart: commit returned=%v, generation %d", resolved(), origin.ship.gen)
			}
			c.DestroyDisk(origin)
			p.Sleep(time.Second)
			restart(p, c, 0) // rebuilt from follower 1's disk, which is all that is left
			p.Sleep(2 * shipRetryDelay)
			if !resolved() {
				t.Error("the commit is still waiting although the rebuild adopted its record")
			}
			restart(p, c, 1, 2)
		})
		defer tc.env.Close()
		if err != nil || got != "new" {
			t.Fatalf("commit: %v, key reads %q; want an ack and the new value (the rebuilt log holds the commit)", err, got)
		}
	})
}

// TestStaleShipMarkCannotRaiseDurable: a ship pass's marks are taken under the
// drain lock and redeemed after it; if the origin is destroyed and rebuilt in
// between, its log is renumbered and every follower resynced, and a mark from
// before — a boundary in the old numbering, far above the rebuilt log's tail —
// must not touch the durable watermark, however far the follower's log has
// been flushed since.
func TestStaleShipMarkCannotRaiseDurable(t *testing.T) {
	tc := newRepCluster(t, table.Physiological, 4, 100)
	defer tc.env.Close()
	c := tc.c
	c.SetupReplicationDrain() // the bulk-loaded base images are on every follower
	origin, f1, f2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	tc.run(t, func(p *sim.Proc) {
		var lsn uint64
		for i := 0; i < 200; i++ { // push the old numbering well past the rebuilt tail
			lsn = origin.Log.Append(wal.Record{Txn: cc.TxnID(1<<40 + i), Type: wal.RecAbort})
		}
		origin.Log.Flush(p, lsn)
		marks, ok := c.sendQueued(p, origin)
		if !ok || len(marks) != 2 || marks[0].through != lsn {
			t.Errorf("send stage: ok=%v marks=%+v, want one per follower through %d", ok, marks, lsn)
			return
		}
		// The followers flush nothing: the 200 frames are durable on the
		// origin alone, and die with its disk.
		c.DestroyDisk(origin)
		p.Sleep(2 * time.Second)
		if _, _, err := c.RestartNode(p, origin); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		sh := origin.ship
		if sh.link(f1).stale || sh.link(f2).stale {
			t.Error("setup: the restart did not resync the followers")
			return
		}
		d1, d2 := sh.link(f1).durable, sh.link(f2).durable
		if d1 >= lsn || origin.Log.TailLSN() > lsn {
			t.Errorf("setup: rebuilt log (tail %d, follower durable %d) is not below the old boundary %d", origin.Log.TailLSN(), d1, lsn)
			return
		}
		f1.Log.Flush(p, f1.Log.TailLSN()-1)
		f2.Log.Flush(p, f2.Log.TailLSN()-1)
		c.confirmShipped(p, origin, marks, true)
		if sh.link(f1).durable != d1 || sh.link(f2).durable != d2 || c.replicaDurable(origin, lsn) {
			t.Errorf("a mark from before the rebuild moved the durable watermarks: %d -> %d, %d -> %d",
				d1, sh.link(f1).durable, d2, sh.link(f2).durable)
		}
	})
}

// TestDependentFailsWithItsDependency: T1's node power-fails with T1 in its
// force and its commit record in the volatile tail. T2 observed T1's value from
// another node and wrote there; its Commit waits for T1 and, when the restart
// has sealed the loss, returns the error T1's own commit gets — retryable, and
// nothing of T2 exists anywhere afterwards.
func TestDependentFailsWithItsDependency(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	f := w.commitInForce("t1", 10)
	var t2Err error
	w.env.Spawn("t2", func(p *sim.Proc) {
		landed(p, c, unsettledWithRecord(p, f, true))
		t2 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[1])
		if got := w.read(p, t2, 10); got != "t1" {
			t.Errorf("T2 read %q, want T1's unsettled value", got)
		}
		if err := w.write(p, t2, 60, "t2"); err != nil {
			t.Errorf("T2 put: %v", err)
		}
		if t2Err = t2.Commit(p); t2Err != nil {
			t2.Abort(p)
		}
	})
	crashed := sim.NewSignal(w.env)
	c.Point = func(n *DataNode, name string) {
		if name != "commit.depwait" {
			return
		}
		c.Point = nil
		if n != c.Nodes[0] || n.Log.FlushedLSN() >= f.txn.CommitLSN {
			t.Errorf("setup: T2 waits on node %d (T1's commit record flushed: %v), want node 0, unflushed",
				n.ID, n.Log.FlushedLSN() >= f.txn.CommitLSN)
			return
		}
		c.CrashNode(n)
		crashed.Fire()
	}
	w.runFor(func(p *sim.Proc) {
		crashed.Wait(p)
		p.Sleep(time.Millisecond)
		if _, _, err := c.RestartNode(p, c.Nodes[0]); err != nil {
			t.Error(err)
		}
	})
	var down ErrNodeDown
	if f.err == nil || !errors.As(t2Err, &down) || down.Node != 0 {
		t.Fatalf("T1: %v, T2: %v; want both failed, T2 with node 0 down", f.err, t2Err)
	}
	if c.DepWaits != 1 || c.DepLost != 1 {
		t.Errorf("dependency waits %d lost %d, want 1 and 1", c.DepWaits, c.DepLost)
	}
	w.run(t, func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		for _, k := range []int64{10, 60} {
			if got, want := w.read(p, s, k), fmt.Sprintf(idOldVal, k); got != want {
				t.Errorf("key %d = %q after recovery, want %q", k, got, want)
			}
		}
		if len(s.Txn.Deps) != 0 {
			t.Errorf("a reader after recovery depends on %v", s.Txn.Deps)
		}
		if err := s.Commit(p); err != nil {
			t.Error(err)
		}
	})
}

// TestReaderOfUndecidedDistributedCommit: between its commit timestamp and its
// durable decision a distributed commit's writes exist only as staged values. A
// reader whose snapshot covers the timestamp gets them, with a dependency, and
// finishes when the decision is durable — not before; if the coordinator gives
// up without a decision (presumed abort), the reader fails.
func TestReaderOfUndecidedDistributedCommit(t *testing.T) {
	t.Run("decided", func(t *testing.T) {
		w := newIndoubtWorld(t)
		defer w.env.Close()
		w.c.Nodes[0].HW.LogDisk().SetStall(5 * time.Millisecond) // the decision's force
		var t1 *cc.Txn
		w.env.Spawn("t1", func(p *sim.Proc) {
			s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
			t1 = s.Txn
			for _, k := range []int64{idLeft, idRight} {
				payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
				if err := s.Put(p, "kv", ik(k), payload); err != nil {
					t.Errorf("put %d: %v", k, err)
				}
			}
			if err := s.Commit(p); err != nil {
				t.Errorf("T1 commit: %v", err)
			}
		})
		w.env.Spawn("reader", func(p *sim.Proc) {
			for t1 == nil || !t1.Unsettled() {
				p.Sleep(50 * time.Microsecond)
			}
			landed(p, w.c, t1)
			r := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
			v, ok, err := r.Get(p, "kv", ik(idLeft))
			if err != nil || !ok {
				t.Errorf("get: %v %v", ok, err)
				return
			}
			if row, _ := kvSchema().DecodeRow(v); row[1].(string) != "new" || len(r.Txn.Deps) != 1 || r.Txn.Deps[0] != t1 {
				t.Errorf("reader saw %q with dependencies %v, want the staged value and T1", row[1], r.Txn.Deps)
			}
			if !t1.Unsettled() || w.c.Master.InDoubtDecisionCount() != 0 {
				t.Error("setup: the decision is already durable")
			}
			if err := r.Commit(p); err != nil {
				t.Errorf("reader commit: %v", err)
			}
			if !t1.Settled {
				t.Error("the reader finished before T1's decision was durable")
			}
		})
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
		if w.c.DepWaits != 1 {
			t.Errorf("dependency waits = %d, want 1", w.c.DepWaits)
		}
	})
	t.Run("presumed abort", func(t *testing.T) {
		w := newIndoubtWorld(t)
		defer w.env.Close()
		var readerErr error
		finished := false
		w.env.Spawn("coordinator", func(p *sim.Proc) {
			// Session.Commit by hand, up to and excluding the decision.
			s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.n1)
			for _, k := range []int64{idLeft, idRight} {
				payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
				if err := s.Put(p, "kv", ik(k), payload); err != nil {
					t.Errorf("put %d: %v", k, err)
				}
			}
			branches, err := s.participants()
			if err != nil || len(branches) != 2 {
				t.Errorf("participants: %d, %v", len(branches), err)
				return
			}
			for _, b := range branches {
				if err := s.prepareBranch(p, b); err != nil {
					t.Errorf("prepare: %v", err)
				}
			}
			cts := w.c.Master.Oracle.CommitTS(s.Txn)
			s.Txn.CommitNode = w.c.Master.Node.ID
			for _, b := range branches {
				b.node.Commits.Add(cts, s.Txn)
			}
			w.env.Spawn("reader", func(rp *sim.Proc) {
				landed(rp, w.c, s.Txn)
				r := w.c.Master.Begin(rp, cc.SnapshotIsolation, w.n2)
				v, ok, err := r.Get(rp, "kv", ik(idRight))
				if err != nil || !ok {
					t.Errorf("get: %v %v", ok, err)
					return
				}
				if row, _ := kvSchema().DecodeRow(v); row[1].(string) != "new" || len(r.Txn.Deps) != 1 {
					t.Errorf("reader saw %q with dependencies %v, want the staged value and the writer", row[1], r.Txn.Deps)
				}
				if readerErr = r.Commit(rp); readerErr != nil {
					r.Abort(rp)
				}
				finished = true
			})
			p.Sleep(10 * time.Millisecond)
			if finished {
				t.Error("the reader finished over an undecided commit")
			}
			s.Abort(p) // the coordinator gives up: no decision was ever forced
		})
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
		var down ErrNodeDown
		if !finished || !errors.As(readerErr, &down) {
			t.Fatalf("reader finished=%v with %v, want a node-down error", finished, readerErr)
		}
		for _, n := range []*DataNode{w.n1, w.n2} {
			if n.Commits.Below(^cc.Timestamp(0)) {
				t.Errorf("node %d's commit table still lists the aborted commit", n.ID)
			}
		}
	})
}

// TestRecoveredParkedCommitStillUnsettled closes the hole a version-chain
// lookup would leave: a single-node commit parks with its record flushed
// locally and both followers down; its origin restarts and the commit comes
// back as a plain recovered leaf — durable here, on no replica, unsettled. A
// reader of that leaf must still depend on it. The origin's disk is then
// destroyed before any follower was resynced: the rebuild drops the commit, and
// the reader's Commit fails with it instead of having confirmed a value that
// never was.
func TestRecoveredParkedCommitStillUnsettled(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	origin := c.Nodes[0]
	origin.HW.LogDisk().SetStall(0)
	restart := func(p *sim.Proc, n *DataNode) {
		if _, _, err := c.RestartNode(p, n); err != nil {
			t.Errorf("restart node %d: %v", n.ID, err)
		}
	}
	c.CrashNode(c.Nodes[1])
	c.CrashNode(c.Nodes[2]) // nobody to ship to: T1 parks after its local force
	f := w.commitInForce("parked", 10)
	var saw string
	var readerErr error
	finished := false
	w.runFor(func(p *sim.Proc) {
		t1 := unsettledWithRecord(p, f, true)
		for origin.Log.FlushedLSN() < t1.CommitLSN {
			p.Sleep(50 * time.Microsecond)
		}
		c.CrashNode(origin)
		restart(p, origin) // plain: the flushed record survives, the followers stay down
		if !t1.Unsettled() || f.settled != 0 {
			t.Errorf("setup: T1 resolved across the restart (unsettled=%v)", t1.Unsettled())
			return
		}
		w.env.Spawn("reader", func(rp *sim.Proc) {
			r := c.Master.Begin(rp, cc.SnapshotIsolation, c.Nodes[3])
			saw = w.read(rp, r, 10)
			if len(r.Txn.Deps) != 1 || r.Txn.Deps[0] != t1 {
				t.Errorf("reader of the recovered leaf depends on %v, want the parked commit", r.Txn.Deps)
			}
			if readerErr = r.Commit(rp); readerErr != nil {
				r.Abort(rp)
			}
			finished = true
		})
		p.Sleep(5 * time.Millisecond)
		if saw != "parked" || finished {
			t.Errorf("reader saw %q, finished=%v; want the recovered value and a parked Commit", saw, finished)
			return
		}
		c.DestroyDisk(origin) // before any resync: no replica ever held the frame
		restart(p, origin)
		restart(p, c.Nodes[1])
		restart(p, c.Nodes[2])
	})
	if f.err == nil || !finished || readerErr == nil {
		t.Fatalf("T1: %v; reader finished=%v with %v; want both failed", f.err, finished, readerErr)
	}
	w.run(t, func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[3])
		if got, want := w.read(p, s, 10), fmt.Sprintf(idOldVal, 10); got != want {
			t.Errorf("key 10 = %q after the rebuild, want %q", got, want)
		}
		if err := s.Commit(p); err != nil {
			t.Error(err)
		}
	})
}

// TestRestartVoidsTheSameLogExemption: T2 observed T1's unsettled commit on
// node 0 from elsewhere; node 0 then lost T1's record with its volatile tail
// and came back, T1 still parked because no follower is up to seal the loss.
// T2 now writes on node 0: it forces a record on the log T1's record was
// appended to — but that record is gone, T2's would vouch for nothing, and the
// exemption must not apply. T2 waits for T1's fate and fails with it.
func TestRestartVoidsTheSameLogExemption(t *testing.T) {
	w := newDepWorld(t)
	defer w.env.Close()
	c := w.c
	origin := c.Nodes[0]
	restart := func(p *sim.Proc, n *DataNode) {
		if _, _, err := c.RestartNode(p, n); err != nil {
			t.Errorf("restart node %d: %v", n.ID, err)
		}
	}
	f := w.commitInForce("t1", 10)
	var t2Err error
	finished := false
	w.runFor(func(p *sim.Proc) {
		t1 := unsettledWithRecord(p, f, true)
		landed(p, c, t1)
		t2 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[3])
		if got := w.read(p, t2, 10); got != "t1" || len(t2.Txn.Deps) != 1 {
			t.Errorf("T2 read %q with dependencies %v, want T1's value and T1", got, t2.Txn.Deps)
			return
		}
		if origin.Log.FlushedLSN() >= t1.CommitLSN {
			t.Error("setup: T1's commit record is already flushed")
			return
		}
		c.CrashNode(origin)
		c.CrashNode(c.Nodes[1])
		c.CrashNode(c.Nodes[2])
		origin.HW.LogDisk().SetStall(0)
		restart(p, origin)
		if !t1.Unsettled() {
			t.Error("setup: T1 resolved with no follower up to seal its loss")
			return
		}
		if err := w.write(p, t2, 20, "t2"); err != nil {
			t.Errorf("T2 put on the restarted node: %v", err)
			return
		}
		w.env.Spawn("t2-commit", func(cp *sim.Proc) {
			if t2Err = t2.Commit(cp); t2Err != nil {
				t2.Abort(cp)
			}
			finished = true
		})
		p.Sleep(5 * time.Millisecond)
		restart(p, c.Nodes[1])
		restart(p, c.Nodes[2])
	})
	if f.err == nil || !finished || t2Err == nil {
		t.Fatalf("T1: %v; T2 finished=%v with %v; want both failed", f.err, finished, t2Err)
	}
	if c.DepWaits != 1 || c.DepLost != 1 {
		t.Errorf("dependency waits %d lost %d, want 1 and 1", c.DepWaits, c.DepLost)
	}
}

var modes = []struct {
	name string
	mode cc.Mode
}{{"mvcc", cc.SnapshotIsolation}, {"locking", cc.Locking}}

// kvRow decodes a kv payload's value column.
func kvRow(t *testing.T, payload []byte) string {
	t.Helper()
	row, err := kvSchema().DecodeRow(payload)
	if err != nil {
		t.Fatal(err)
	}
	return row[1].(string)
}

// TestDistributedCommitAcksAtDecision: a two-node commit is acknowledged once
// its decision is durable, with phase 2 still ahead. Until phase 2 ends the
// coordinator still holds the decision; a later snapshot on the participant
// reads and scans the new value all the same, and a third writer of the key
// waits for the install and then commits. Once phase 2 is done the decision
// is drained and the locks are released. Under MGL-RX locking the reader and
// the third writer wait for the writer's locks, which phase 2 holds to its end.
func TestDistributedCommitAcksAtDecision(t *testing.T) {
	for _, m := range modes {
		mode := m.mode
		t.Run(m.name, func(t *testing.T) {
			w := newIndoubtWorld(t)
			defer w.env.Close()
			var writer *cc.Txn
			thirdCommitted := false
			w.env.Spawn("commit", func(p *sim.Proc) {
				s := w.c.Master.Begin(p, mode, w.n1)
				writer = s.Txn
				for _, k := range []int64{idLeft, idRight} {
					payload, _ := kvSchema().EncodeRow(table.Row{k, "new"})
					if err := s.Put(p, "kv", ik(k), payload); err != nil {
						t.Errorf("put %d: %v", k, err)
						return
					}
				}
				if err := s.Commit(p); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if n := w.c.Master.InDoubtDecisionCount(); n != 1 {
					t.Errorf("%d decisions outstanding right after the ack, want 1: phase 2 runs behind it", n)
				}
				// A reader and a third writer of the right key begin now, at
				// home on its node: they skip the round trip to the master,
				// and so reach the key ahead of phase 2's message there.
				at := func() *Session { return &Session{m: w.c.Master, Txn: w.c.Master.Oracle.Begin(mode), Home: w.n2} }
				r, s3 := at(), at()
				w.env.Spawn("third", func(p *sim.Proc) {
					payload, _ := kvSchema().EncodeRow(table.Row{idRight, "third"})
					if err := s3.Put(p, "kv", ik(idRight), payload); err != nil {
						t.Errorf("third writer: %v", err)
						return
					}
					waited := w.n2.Intents.Waited > 0
					if mode == cc.Locking {
						waited = w.n2.Locks.Waits > 0
					}
					for _, pt := range w.n2.Parts {
						if pt.HasPending(writer) || !waited {
							t.Errorf("third writer got the key without waiting (%v) for its install (done: %v)",
								waited, !pt.HasPending(writer))
						}
					}
					if err := s3.Commit(p); err != nil {
						t.Errorf("third writer's commit: %v", err)
						return
					}
					thirdCommitted = true
				})
				v, ok, err := r.Get(p, "kv", ik(idRight))
				if err != nil || !ok || kvRow(t, v) != "new" {
					t.Errorf("reader at a later snapshot: ok=%v err=%v, want %q", ok, err, "new")
				}
				var scanned string
				err = r.Scan(p, "kv", ik(idRight), ik(idRight+1), func(_, v []byte) bool {
					scanned = kvRow(t, v)
					return true
				})
				if err != nil || scanned != "new" {
					t.Errorf("scan at a later snapshot: %q, %v, want %q", scanned, err, "new")
				}
				if mode == cc.SnapshotIsolation && w.c.Master.InDoubtDecisionCount() != 1 {
					t.Error("setup: phase 2 ended before the reads, which then tested nothing")
				}
				if err := r.Commit(p); err != nil {
					t.Errorf("reader's commit: %v", err)
				}
			})
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
			if !thirdCommitted {
				t.Fatal("the third writer never committed")
			}
			if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
				t.Errorf("%d decisions outstanding after phase 2", n)
			}
			// An exclusive lock on each participant's partition, granted at
			// once: nothing of the writer's is left in a lock table.
			w.env.Spawn("locks", func(p *sim.Proc) {
				for _, n := range []*DataNode{w.n1, w.n2} {
					for _, pt := range n.Parts {
						probe := w.c.Master.Oracle.Begin(cc.Locking)
						if err := n.Locks.Lock(p, probe, pt.MovementLockName(), cc.LockX, 0); err != nil {
							t.Errorf("node %d: partition lock still held after phase 2: %v", n.ID, err)
						}
						n.Locks.ReleaseAll(probe)
						w.c.Master.Oracle.Abort(probe)
					}
				}
			})
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashBetweenAckAndInstall: participant 1 power-fails at the
// "commit.decided" point of an acknowledged two-node commit — after the
// client's ack, before its install. Its branch is in doubt, and the restart
// rolls it forward: a new session then reads the committed value on both
// nodes, and the coordinator's decision drains.
func TestCrashBetweenAckAndInstall(t *testing.T) {
	w := newIndoubtWorld(t)
	defer w.env.Close()
	hits := 0
	w.c.Point = func(n *DataNode, name string) {
		if n == w.n1 && name == "commit.decided" {
			hits++
			w.c.CrashNode(n)
		}
	}
	if !w.runCommit(t) {
		t.Fatal("the commit was not acknowledged")
	}
	if hits != 1 || !w.n1.Down() {
		t.Fatalf("commit.decided hit %d times on participant 1 (down=%v), want once", hits, w.n1.Down())
	}
	if !hasInDoubtTrace(w.n1) {
		t.Fatal("participant 1's durable log holds no prepared-but-undecided branch")
	}
	w.c.Point = nil
	w.env.Spawn("restart", func(p *sim.Proc) {
		if _, _, err := w.c.RestartNode(p, w.n1); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
		for _, k := range []int64{idLeft, idRight} {
			v, ok, err := s.Get(p, "kv", ik(k))
			if err != nil || !ok || kvRow(t, v) != "new" {
				t.Errorf("key %d after the restart: ok=%v err=%v, want %q", k, ok, err, "new")
			}
		}
		s.Abort(p)
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the roll-forward", n)
	}
}

// TestCrashWakesParkedIntentWaiter: a writer parked behind another
// transaction's hold on a key — on its write intent under MVCC, on its X lock
// under MGL-RX — gets ErrPartitionDown at the instant the key's node
// power-fails, not at the lock timeout: the dead store and lock table never
// release what they hold, and the holder is not told either.
func TestCrashWakesParkedIntentWaiter(t *testing.T) {
	for _, m := range modes {
		mode := m.mode
		t.Run(m.name, func(t *testing.T) {
			w := newIndoubtWorld(t)
			defer w.env.Close()
			const crashAt = 50 * time.Millisecond
			var returned time.Duration
			var waitErr error
			put := func(p *sim.Proc, s *Session, val string) error {
				payload, _ := kvSchema().EncodeRow(table.Row{idRight, val})
				return s.Put(p, "kv", ik(idRight), payload)
			}
			w.env.Spawn("holder", func(p *sim.Proc) {
				s := w.c.Master.Begin(p, mode, w.n1)
				if err := put(p, s, "holder"); err != nil {
					t.Errorf("holder: %v", err)
				}
			})
			w.env.Spawn("waiter", func(p *sim.Proc) {
				p.Sleep(10 * time.Millisecond)
				s := w.c.Master.Begin(p, mode, w.n1)
				waitErr = put(p, s, "waiter")
				returned = p.Now()
			})
			w.env.After(crashAt, func() { w.c.CrashNode(w.n2) })
			if err := w.env.Run(); err != nil {
				t.Fatal(err)
			}
			if _, down := waitErr.(table.ErrPartitionDown); !down || returned != crashAt {
				t.Fatalf("the parked writer returned %v at %v, want ErrPartitionDown at the crash, %v (lock timeout %v)",
					waitErr, returned, crashAt, w.c.cfg.LockTimeout)
			}
		})
	}
}

// TestRollForwardOutlivesDiskLoss: participant 1 rolls its in-doubt branch
// forward in a restart while both its followers are down, so the closure is on
// its own disk alone — and then loses that disk. The coordinator must still
// remember the decision when the rebuild from replicas finds the branch
// prepared and undecided again: it may forget a verdict only once a follower
// holds the closure.
func TestRollForwardOutlivesDiskLoss(t *testing.T) {
	w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.DataReplicas = 2 })
	defer w.env.Close()
	c := w.c
	c.Point = func(n *DataNode, name string) {
		if n == w.n1 && name == "commit.decided" {
			c.Point = nil
			c.CrashNode(n)
		}
	}
	if !w.runCommit(t) || !w.n1.Down() {
		t.Fatalf("setup: participant 1 (down=%v) did not crash after the ack", w.n1.Down())
	}
	w.env.Spawn("faults", func(p *sim.Proc) {
		c.CrashNode(c.Nodes[2]) // participant 1's followers: nodes 2 and 3
		c.CrashNode(c.Nodes[3])
		mustRestart(t, p, c, w.n1)
		if n := c.Master.InDoubtDecisionCount(); n != 1 {
			t.Errorf("%d decisions remembered after a roll-forward no follower holds, want 1", n)
		}
		c.DestroyDisk(w.n1)
		mustRestart(t, p, c, c.Nodes[2], c.Nodes[3], w.n1)
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	w.expectValues(t, func(int64) string { return "new" })
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the rebuilt branch rolled forward", n)
	}
}

// TestReconcileWaitsForDurableCommit: participant 2's commit record is
// appended but its force stalls on a slow log disk when the leader power-
// fails. The new leader's reconcile must not take that volatile record for a
// resolved branch — participant 1 has acked, so the ack would forget the
// decision. Participant 2 then loses power before its flush, and its restart
// must still find the decision and roll the branch forward.
func TestReconcileWaitsForDurableCommit(t *testing.T) {
	w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.MasterReplicas = 2 })
	defer w.env.Close()
	c := w.c
	leader := c.Master.Node
	c.Point = func(n *DataNode, name string) {
		if n != w.n2 || name != "commit.decided" {
			return
		}
		c.Point = nil
		n.HW.LogDisk().SetStall(2 * time.Second)
		w.env.Spawn("faults", func(p *sim.Proc) {
			c.CrashNode(leader)
			p.Sleep(time.Second) // the election and its reconcile are over
			if c.Master.Node == w.n2 || c.Master.Node.Down() {
				t.Errorf("setup: node %d leads after the failover", c.Master.Node.ID)
				return
			}
			c.CrashNode(w.n2)
			if !hasInDoubtTrace(w.n2) {
				t.Error("setup: participant 2's commit record is durable")
			}
			w.n2.HW.LogDisk().SetStall(0)
		})
	}
	if !w.runCommit(t) {
		t.Fatal("the commit was not acknowledged")
	}
	w.expectValues(t, func(int64) string { return "new" })
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the roll-forward", n)
	}
}
