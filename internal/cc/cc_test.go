package cc

import (
	"testing"
	"time"

	"wattdb/internal/sim"
)

func TestOracleTimestampsMonotonic(t *testing.T) {
	o := NewOracle()
	t1 := o.Begin(SnapshotIsolation)
	t2 := o.Begin(SnapshotIsolation)
	if t2.Begin <= t1.Begin {
		t.Fatalf("begin timestamps not increasing: %d, %d", t1.Begin, t2.Begin)
	}
	c1 := o.CommitTS(t1)
	if c1 <= t2.Begin {
		t.Fatalf("commit ts %d not after begin %d", c1, t2.Begin)
	}
	if t1.State != TxnCommitted {
		t.Fatal("commit did not set state")
	}
}

func TestOracleWatermark(t *testing.T) {
	o := NewOracle()
	t1 := o.Begin(SnapshotIsolation)
	t2 := o.Begin(SnapshotIsolation)
	if wm := o.Watermark(); wm != t1.Begin {
		t.Fatalf("watermark = %d, want %d", wm, t1.Begin)
	}
	o.CommitTS(t1)
	if wm := o.Watermark(); wm != t2.Begin {
		t.Fatalf("watermark after commit = %d, want %d", wm, t2.Begin)
	}
	o.Abort(t2)
	if o.ActiveCount() != 0 {
		t.Fatal("abort did not deregister")
	}
}

// TestOracleUnsettledCapsSnapshots pins what became of the snapshot cap: a
// commit timestamp exists from CommitTS, and until SettleCommit (or Abort)
// seals its fate the commit is unsettled. Begin is the clock all the same —
// the new snapshot covers the unsettled commit — and the cap lives on as the
// transaction's safe snapshot, just below the oldest unsettled commit: that is
// what the active table registers, so the GC watermark protects a reader that
// falls back to it.
func TestOracleUnsettledCapsSnapshots(t *testing.T) {
	o := NewOracle()
	w := o.Begin(SnapshotIsolation)
	cts := o.CommitTS(w)
	if o.UnsettledCount() != 1 || !w.Unsettled() {
		t.Fatalf("unsettled = %d (%v), want 1", o.UnsettledCount(), w.Unsettled())
	}
	r := o.Begin(SnapshotIsolation)
	if r.Begin != o.Clock() || r.Begin <= cts {
		t.Fatalf("snapshot = %d, want the clock %d, above the unsettled commit %d", r.Begin, o.Clock(), cts)
	}
	if r.Safe != cts-1 {
		t.Fatalf("safe snapshot = %d, want %d (just below unsettled commit %d)", r.Safe, cts-1, cts)
	}
	if got := o.active[r.ID]; got != r.Safe {
		t.Fatalf("active table holds %d, want the safe snapshot %d (GC watermark safety)", got, r.Safe)
	}
	if wm := o.Watermark(); wm != cts-1 {
		t.Fatalf("watermark = %d, want %d", wm, cts-1)
	}
	o.SettleCommit(w)
	if o.UnsettledCount() != 0 || w.Unsettled() || !w.Settled {
		t.Fatal("settle did not deregister")
	}
	late := o.Begin(SnapshotIsolation)
	if late.Safe != late.Begin || late.Begin <= cts {
		t.Fatalf("post-settle snapshot = %d (safe %d), want both the clock, above %d", late.Begin, late.Safe, cts)
	}

	// The safe snapshot tracks the OLDEST unsettled commit across several, and
	// an abort (fate sealed as rolled back) releases it like a settle.
	w1, w2 := o.Begin(SnapshotIsolation), o.Begin(SnapshotIsolation)
	c1 := o.CommitTS(w1)
	c2 := o.CommitTS(w2)
	if r := o.Begin(SnapshotIsolation); r.Safe != c1-1 || r.Begin <= c2 {
		t.Fatalf("snapshot = %d safe %d, want safe %d (below oldest of %d, %d)", r.Begin, r.Safe, c1-1, c1, c2)
	}
	o.Abort(w1)
	if r := o.Begin(SnapshotIsolation); r.Safe != c2-1 {
		t.Fatalf("safe snapshot after abort = %d, want %d", r.Safe, c2-1)
	}
	o.SettleCommit(w2)
	if r := o.Begin(SnapshotIsolation); r.Safe != r.Begin {
		t.Fatalf("safe snapshot after all settled = %d, want the clock %d", r.Safe, r.Begin)
	}
}

// TestOraclePublishedView: with a publisher attached, a snapshot-isolation
// Begin reads the last landed view and issues no timestamp, a locking Begin
// still takes a fresh one, the publisher is told each time the view moves,
// and the watermark never passes the landed safe snapshot — what the next
// Begin will register.
func TestOraclePublishedView(t *testing.T) {
	o := NewOracle()
	moved := 0
	o.Publish(func() { moved++ })
	w := o.Begin(SnapshotIsolation)
	if w.Begin != 1 || w.Safe != 1 || o.Clock() != 1 {
		t.Fatalf("begin at %d safe %d, clock %d; want the view (1, 1) and no timestamp issued", w.Begin, w.Safe, o.Clock())
	}
	cts := o.CommitTS(w)
	if clock, safe := o.View(); moved != 1 || clock != cts || safe != cts-1 {
		t.Fatalf("after a commit point: %d moves, view (%d, %d); want 1 and (%d, %d)", moved, clock, safe, cts, cts-1)
	}
	if r := o.Begin(SnapshotIsolation); r.Begin != 1 || r.Safe != 1 {
		t.Fatalf("before the landing a snapshot reads at %d safe %d, want the old view (1, 1)", r.Begin, r.Safe)
	} else {
		o.Abort(r)
	}
	o.Land(o.View())
	if r := o.Begin(SnapshotIsolation); r.Begin != cts || r.Safe != cts-1 {
		t.Fatalf("after the landing: %d safe %d, want %d safe %d", r.Begin, r.Safe, cts, cts-1)
	} else {
		o.Abort(r)
	}
	if l := o.Begin(Locking); l.Begin != cts+1 {
		t.Fatalf("locking begin at %d, want a fresh timestamp %d", l.Begin, cts+1)
	} else {
		o.Abort(l)
	}
	if moved != 1 {
		t.Fatalf("%d moves after Begins and aborts of active transactions, want 1", moved)
	}
	o.SettleCommit(w)
	if wm := o.Watermark(); moved != 2 || wm != cts-1 {
		t.Fatalf("after the settle: %d moves, watermark %d; want 2 and the landed safe snapshot %d", moved, wm, cts-1)
	}
	o.Land(o.View())
	if pub, safe := o.Published(); pub != o.Clock() || safe != o.Clock() || o.Watermark() != o.Clock() {
		t.Fatalf("quiesced view (%d, %d), watermark %d; want all at the clock %d", pub, safe, o.Watermark(), o.Clock())
	}
	o.Advance()
	if pub, _ := o.Published(); moved != 3 || pub != o.Clock()-1 {
		t.Fatalf("Advance: %d moves, view at %d; want 3 and the clock %d left unpublished", moved, pub, o.Clock())
	}
}

func TestLockCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b LockMode
		want bool
	}{
		{LockIR, LockIR, true}, {LockIR, LockIX, true}, {LockIR, LockR, true}, {LockIR, LockX, false},
		{LockIX, LockIX, true}, {LockIX, LockR, false}, {LockIX, LockX, false},
		{LockR, LockR, true}, {LockR, LockX, false},
		{LockX, LockX, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := compatible(c.b, c.a); got != c.want {
			t.Errorf("compatible(%v,%v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestSharedLocksCoexistExclusiveWaits(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	lm := NewLockManager(env)
	var xAt time.Duration
	r1, r2 := o.Begin(Locking), o.Begin(Locking)
	w := o.Begin(Locking)
	env.Spawn("r1", func(p *sim.Proc) {
		if err := lm.Lock(p, r1, "k", LockR, time.Minute); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second)
		lm.ReleaseAll(r1)
	})
	env.Spawn("r2", func(p *sim.Proc) {
		if err := lm.Lock(p, r2, "k", LockR, time.Minute); err != nil {
			t.Error(err)
		}
		p.Sleep(4 * time.Second)
		lm.ReleaseAll(r2)
	})
	env.Spawn("w", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if err := lm.Lock(p, w, "k", LockX, time.Minute); err != nil {
			t.Error(err)
		}
		xAt = p.Now()
		lm.ReleaseAll(w)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if xAt != 4*time.Second {
		t.Fatalf("X granted at %v, want 4s (after both readers)", xAt)
	}
}

func TestLockTimeout(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	lm := NewLockManager(env)
	holder, waiter := o.Begin(Locking), o.Begin(Locking)
	var got error
	env.Spawn("holder", func(p *sim.Proc) {
		lm.Lock(p, holder, "k", LockX, time.Minute)
		p.Sleep(time.Hour)
		lm.ReleaseAll(holder)
	})
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		got = lm.Lock(p, waiter, "k", LockX, time.Second)
	})
	if err := env.RunUntil(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if got != ErrLockTimeout {
		t.Fatalf("err = %v, want ErrLockTimeout", got)
	}
}

func TestLockUpgrade(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	lm := NewLockManager(env)
	a, b := o.Begin(Locking), o.Begin(Locking)
	var upgradedAt time.Duration
	env.Spawn("a", func(p *sim.Proc) {
		lm.Lock(p, a, "k", LockR, time.Minute)
		p.Sleep(time.Second)
		// Upgrade R -> X must wait for b's R to go away.
		if err := lm.Lock(p, a, "k", LockX, time.Minute); err != nil {
			t.Error(err)
		}
		upgradedAt = p.Now()
		lm.ReleaseAll(a)
	})
	env.Spawn("b", func(p *sim.Proc) {
		lm.Lock(p, b, "k", LockR, time.Minute)
		p.Sleep(3 * time.Second)
		lm.ReleaseAll(b)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if upgradedAt != 3*time.Second {
		t.Fatalf("upgrade at %v, want 3s", upgradedAt)
	}
}

func TestIntentLocksAllowFineGrainedSharing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	lm := NewLockManager(env)
	a, b := o.Begin(Locking), o.Begin(Locking)
	ok := true
	env.Spawn("a", func(p *sim.Proc) {
		if err := lm.Lock(p, a, "part", LockIX, time.Second); err != nil {
			ok = false
		}
		if err := lm.Lock(p, a, "part/k1", LockX, time.Second); err != nil {
			ok = false
		}
		p.Sleep(time.Second)
		lm.ReleaseAll(a)
	})
	env.Spawn("b", func(p *sim.Proc) {
		// IX on the same partition is fine; X on a different record too.
		if err := lm.Lock(p, b, "part", LockIX, time.Second); err != nil {
			ok = false
		}
		if err := lm.Lock(p, b, "part/k2", LockX, time.Second); err != nil {
			ok = false
		}
		lm.ReleaseAll(b)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("intent-locked fine-grained access should not conflict")
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	lm := NewLockManager(env)
	a, b := o.Begin(Locking), o.Begin(Locking)
	got := false
	env.Spawn("a", func(p *sim.Proc) {
		lm.Lock(p, a, "k", LockX, time.Minute)
		p.Sleep(time.Second)
		lm.ReleaseAll(a)
	})
	env.Spawn("b", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if err := lm.Lock(p, b, "k", LockX, time.Minute); err == nil {
			got = true
		}
		lm.ReleaseAll(b)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("waiter never granted after ReleaseAll")
	}
}

func TestMVCCSnapshotReadSeesOldVersion(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	var done bool
	env.Spawn("test", func(p *sim.Proc) {
		reader := o.Begin(SnapshotIsolation)
		writer := o.Begin(SnapshotIsolation)

		// Writer updates key "a" (old leaf was committed at ts 1).
		oldLeaf := &Version{TS: 1, Val: []byte("v1")}
		if err := vs.AcquireWriteIntent(p, writer, "a", oldLeaf.TS, time.Second); err != nil {
			t.Error(err)
		}
		vs.StagePending(writer, "a", false, []byte("v2"))

		// Reader must not see the pending write.
		v, ok := vs.ReadVisible(reader, "a", oldLeaf)
		if !ok || string(v.Val) != "v1" {
			t.Errorf("reader saw %q, want v1", v.Val)
		}
		// Writer sees its own write.
		v, ok = vs.ReadVisible(writer, "a", oldLeaf)
		if !ok || string(v.Val) != "v2" {
			t.Errorf("writer saw %q, want v2", v.Val)
		}

		cts := o.CommitTS(writer)
		newLeaf := vs.CommitKey(writer, "a", oldLeaf, cts)
		o.SettleCommit(writer) // commit record "durable": later snapshots may see it
		if newLeaf.TS != cts || string(newLeaf.Val) != "v2" {
			t.Errorf("committed leaf = %+v", newLeaf)
		}
		// Reader's snapshot predates the commit: still v1, via history.
		v, ok = vs.ReadVisible(reader, "a", &newLeaf)
		if !ok || string(v.Val) != "v1" {
			t.Errorf("after commit, reader saw %q, want v1", v.Val)
		}
		// A new transaction sees v2.
		late := o.Begin(SnapshotIsolation)
		v, ok = vs.ReadVisible(late, "a", &newLeaf)
		if !ok || string(v.Val) != "v2" {
			t.Errorf("late reader saw %q, want v2", v.Val)
		}
		done = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test body did not finish")
	}
}

func TestMVCCFirstCommitterWins(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	env.Spawn("test", func(p *sim.Proc) {
		t1 := o.Begin(SnapshotIsolation)
		t2 := o.Begin(SnapshotIsolation)
		leaf := &Version{TS: 1, Val: []byte("v0")}
		if err := vs.AcquireWriteIntent(p, t1, "k", leaf.TS, time.Second); err != nil {
			t.Error(err)
		}
		vs.StagePending(t1, "k", false, []byte("t1"))
		cts := o.CommitTS(t1)
		nl := vs.CommitKey(t1, "k", leaf, cts)
		// t2 began before t1 committed: write must conflict.
		err := vs.AcquireWriteIntent(p, t2, "k", nl.TS, time.Second)
		if err != ErrWriteConflict {
			t.Errorf("err = %v, want ErrWriteConflict", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCWriterWaitsForWriter(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	var secondErr error
	var grantedAt time.Duration
	t1 := o.Begin(SnapshotIsolation)
	env.Spawn("t1", func(p *sim.Proc) {
		vs.AcquireWriteIntent(p, t1, "k", 0, time.Second)
		vs.StagePending(t1, "k", false, []byte("x"))
		p.Sleep(2 * time.Second)
		// Abort: t2 should then acquire without conflict.
		vs.AbortKey(t1, "k")
		o.Abort(t1)
	})
	env.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		t2 := o.Begin(SnapshotIsolation)
		secondErr = vs.AcquireWriteIntent(p, t2, "k", 0, time.Minute)
		grantedAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if secondErr != nil {
		t.Fatalf("second writer err = %v", secondErr)
	}
	if grantedAt != 2*time.Second {
		t.Fatalf("granted at %v, want 2s", grantedAt)
	}
}

func TestMVCCDeleteVisibility(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	env.Spawn("test", func(p *sim.Proc) {
		oldReader := o.Begin(SnapshotIsolation)
		deleter := o.Begin(SnapshotIsolation)
		leaf := &Version{TS: 1, Val: []byte("alive")}
		vs.AcquireWriteIntent(p, deleter, "k", leaf.TS, time.Second)
		vs.StagePending(deleter, "k", true, nil)
		cts := o.CommitTS(deleter)
		tomb := vs.CommitKey(deleter, "k", leaf, cts)
		o.SettleCommit(deleter)
		if !tomb.Deleted {
			t.Error("committed version should be a tombstone")
		}
		// Old reader still sees the record.
		if v, ok := vs.ReadVisible(oldReader, "k", &tomb); !ok || string(v.Val) != "alive" {
			t.Errorf("old reader = %q, %v", v.Val, ok)
		}
		// New reader does not.
		late := o.Begin(SnapshotIsolation)
		if _, ok := vs.ReadVisible(late, "k", &tomb); ok {
			t.Error("late reader saw deleted record")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCGCFreesOldVersions(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	env.Spawn("test", func(p *sim.Proc) {
		var leaf *Version
		for i := 0; i < 5; i++ {
			w := o.Begin(SnapshotIsolation)
			ts := Timestamp(0)
			if leaf != nil {
				ts = leaf.TS
			}
			if err := vs.AcquireWriteIntent(p, w, "k", ts, time.Second); err != nil {
				t.Fatal(err)
			}
			vs.StagePending(w, "k", false, []byte("version-payload"))
			nl := vs.CommitKey(w, "k", leaf, o.CommitTS(w))
			o.SettleCommit(w)
			leaf = &nl
		}
		if vs.VersionBytes() == 0 {
			t.Fatal("no version bytes retained")
		}
		freed := vs.GC(o.Watermark())
		if freed == 0 {
			t.Fatal("GC freed nothing with no active readers")
		}
		if vs.VersionBytes() != 0 {
			t.Fatalf("version bytes after GC = %d", vs.VersionBytes())
		}
		if vs.Entries() != 0 {
			t.Fatalf("entries after GC = %d", vs.Entries())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCGCKeepsVersionsForActiveSnapshot(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	env.Spawn("test", func(p *sim.Proc) {
		leaf := Version{TS: 1, Val: []byte("v1")}
		reader := o.Begin(SnapshotIsolation) // snapshot before the update
		w := o.Begin(SnapshotIsolation)
		vs.AcquireWriteIntent(p, w, "k", leaf.TS, time.Second)
		vs.StagePending(w, "k", false, []byte("v2"))
		nl := vs.CommitKey(w, "k", &leaf, o.CommitTS(w))
		vs.GC(o.Watermark()) // reader still active: v1 must survive
		if v, ok := vs.ReadVisible(reader, "k", &nl); !ok || string(v.Val) != "v1" {
			t.Errorf("reader lost its version to GC: %q %v", v.Val, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnUndoRunsInReverse(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	txn := o.Begin(SnapshotIsolation)
	var order []int
	txn.PushUndo(func(*sim.Proc) { order = append(order, 1) })
	txn.PushUndo(func(*sim.Proc) { order = append(order, 2) })
	env.Spawn("abort", func(p *sim.Proc) {
		txn.RunUndo(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order = %v", order)
	}
}

// TestChangedSinceRecentCommitSet checks the watermark-pruned recent-commit
// set that bounds ChangedSince's fallback walk: a commit past a snapshot is
// detected inside its key range only, stays detected after unrelated GC, and
// is pruned — with the answer unchanged for live snapshots — once the
// watermark passes it.
func TestChangedSinceRecentCommitSet(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	commit := func(key string) {
		env.Spawn("w", func(p *sim.Proc) {
			txn := o.Begin(SnapshotIsolation)
			if err := vs.AcquireWriteIntent(p, txn, key, 0, time.Second); err != nil {
				t.Error(err)
				return
			}
			vs.StagePending(txn, key, false, []byte("v"))
			vs.CommitKey(txn, key, nil, o.CommitTS(txn))
			o.SettleCommit(txn)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	commit("a")
	mover := o.Begin(SnapshotIsolation)
	commit("m")

	if !vs.ChangedSince(mover, []byte("l"), []byte("n"), 0) {
		t.Fatal("commit past the snapshot inside [l, n) not detected")
	}
	if vs.ChangedSince(mover, []byte("b"), []byte("c"), 0) {
		t.Fatal("false positive outside the commit's key range")
	}
	// GC at the current watermark (mover still active): "a" predates every
	// snapshot and is pruned; "m" must survive and still be detected.
	vs.GC(o.Watermark())
	if vs.RecentCommits() != 1 {
		t.Fatalf("recent-commit set = %d after GC, want 1 (only the post-snapshot commit)", vs.RecentCommits())
	}
	if !vs.ChangedSince(mover, nil, nil, 0) {
		t.Fatal("post-snapshot commit lost by GC pruning")
	}
	// Once the mover finishes, the watermark passes "m": the set empties and
	// a fresh snapshot sees no change.
	o.Abort(mover)
	vs.GC(o.Watermark())
	if vs.RecentCommits() != 0 {
		t.Fatalf("recent-commit set = %d after full drain, want 0", vs.RecentCommits())
	}
	fresh := o.Begin(SnapshotIsolation)
	if vs.ChangedSince(fresh, nil, nil, 0) {
		t.Fatal("fresh snapshot sees a change after all commits predate it")
	}
	o.Abort(fresh)
}

// TestReadOfUnsettledCommitTakesDependency: a version whose commit is past its
// commit point but not yet settled is visible to a snapshot that covers it —
// the staged value before the install, the leaf after — and whoever resolves
// to it, by reading, scanning or overwriting, depends on its writer. A writer
// that began before that commit point still loses first-committer-wins; a
// reader at its safe snapshot sees the older version and depends on nothing;
// once settled, nobody takes a dependency.
func TestReadOfUnsettledCommitTakesDependency(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	vs.Commits = NewCommitTable()
	env.Spawn("test", func(p *sim.Proc) {
		leaf := &Version{TS: 1, Val: []byte("v0")}
		early := o.Begin(SnapshotIsolation) // before the writer's commit point
		w := o.Begin(SnapshotIsolation)
		if err := vs.AcquireWriteIntent(p, w, "k", leaf.TS, time.Second); err != nil {
			t.Fatal(err)
		}
		vs.StagePending(w, "k", false, []byte("w"))
		cts := o.CommitTS(w)
		vs.Commits.Add(cts, w)

		staged := o.Begin(SnapshotIsolation) // covers the commit, install still pending
		if v, ok := vs.ReadVisible(staged, "k", leaf); !ok || string(v.Val) != "w" || v.TS != cts {
			t.Errorf("snapshot %d over the unsettled commit %d read %q@%d, want the staged value", staged.Begin, cts, v.Val, v.TS)
		}
		if len(staged.Deps) != 1 || staged.Deps[0] != w {
			t.Errorf("deps after reading the staged value = %v, want the writer", staged.Deps)
		}
		scanned := o.Begin(SnapshotIsolation)
		if got := vs.CommittedPending(scanned, nil, nil); len(got) != 1 || len(scanned.Deps) != 1 || scanned.Deps[0] != w {
			t.Errorf("scan merged %d staged writes with deps %v, want one of each", len(got), scanned.Deps)
		}

		nl := vs.CommitKey(w, "k", leaf, cts) // installed; the force is still out
		r := o.Begin(SnapshotIsolation)
		if v, ok := vs.ReadVisible(r, "k", &nl); !ok || string(v.Val) != "w" {
			t.Errorf("reader over the unsettled commit saw %q, want %q", v.Val, "w")
		}
		vs.ReadVisible(r, "k", &nl) // a second read adds nothing
		if len(r.Deps) != 1 || r.Deps[0] != w {
			t.Errorf("deps after two reads = %v, want the writer once", r.Deps)
		}
		if err := vs.AcquireWriteIntent(p, r, "k", nl.TS, time.Second); err != nil {
			t.Errorf("writer begun after the commit point: %v, want the intent", err)
		}
		vs.AbortKey(r, "k")
		blind := o.Begin(SnapshotIsolation)
		if err := vs.AcquireWriteIntent(p, blind, "k", nl.TS, time.Second); err != nil || len(blind.Deps) != 1 {
			t.Errorf("blind overwrite: err %v deps %v, want the intent and the dependency", err, blind.Deps)
		}
		vs.AbortKey(blind, "k")
		if err := vs.AcquireWriteIntent(p, early, "k", nl.TS, time.Second); err != ErrWriteConflict {
			t.Errorf("writer begun before the commit point: %v, want ErrWriteConflict", err)
		}

		safe := o.Begin(SnapshotIsolation)
		safe.Begin = safe.Safe // what a reader that settles nothing reads at
		if v, ok := vs.ReadVisible(safe, "k", &nl); !ok || string(v.Val) != "v0" || safe.Deps != nil {
			t.Errorf("safe snapshot %d read %q with deps %v, want %q and none", safe.Safe, v.Val, safe.Deps, "v0")
		}

		// A dependent parks until the fate is sealed, either way.
		var woke []bool
		for _, dep := range []*Txn{w, blind} {
			dep := dep
			env.Spawn("dependent", func(dp *sim.Proc) { woke = append(woke, dep.AwaitSettled(dp)) })
		}
		blind.State = TxnCommitted // stands in for a second unsettled commit
		p.Sleep(time.Millisecond)
		if len(woke) != 0 {
			t.Errorf("dependents returned %v before any fate was sealed", woke)
		}
		o.SettleCommit(w)
		o.Abort(blind)
		vs.Commits.Del(cts)
		p.Yield()
		if len(woke) != 2 || !woke[0] || woke[1] {
			t.Errorf("dependents woke with %v, want [true false]", woke)
		}
		late := o.Begin(SnapshotIsolation)
		if v, ok := vs.ReadVisible(late, "k", &nl); !ok || string(v.Val) != "w" || late.Deps != nil {
			t.Errorf("after the settle: read %q deps %v, want %q and none", v.Val, late.Deps, "w")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestScanTakesDependenciesInKeyOrder: a scan that merges several staged
// writes of unsettled commits records its dependencies in key order, whatever
// order the intent map yields them in — Commit settles Deps front to back and
// skips the ones that settled meanwhile, so their order decides how many
// waits a run counts (chaos KV seeds 7 and 14 printed two hashes each).
func TestScanTakesDependenciesInKeyOrder(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	vs.Commits = NewCommitTable()
	env.Spawn("test", func(p *sim.Proc) {
		var writers []*Txn
		for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
			w := o.Begin(SnapshotIsolation)
			if err := vs.AcquireWriteIntent(p, w, key, 0, time.Second); err != nil {
				t.Fatal(err)
			}
			vs.StagePending(w, key, false, []byte(key))
			vs.Commits.Add(o.CommitTS(w), w)
			writers = append(writers, w)
		}
		for try := 0; try < 20; try++ {
			r := o.Begin(SnapshotIsolation)
			vs.CommittedPending(r, nil, nil)
			if len(r.Deps) != len(writers) {
				t.Fatalf("scan over %d unsettled staged writes took %d dependencies", len(writers), len(r.Deps))
			}
			for i, w := range writers {
				if r.Deps[i] != w {
					t.Fatalf("try %d: dependency %d is transaction %d, want %d (key order)", try, i, r.Deps[i].ID, w.ID)
				}
			}
			o.Abort(r)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGCHonoursSafeSnapshotsAndUnsettledWriters: the watermark is bounded by
// the safe snapshot of every active transaction — which may be far below its
// Begin — and by every unsettled commit, so the version a safe-snapshot reader
// needs survives a vacuum, and an entry whose last writer is unsettled is not
// collected.
func TestGCHonoursSafeSnapshotsAndUnsettledWriters(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	o := NewOracle()
	vs := NewVersionStore(env)
	env.Spawn("test", func(p *sim.Proc) {
		leaf := Version{TS: 1, Val: []byte("v1")}
		w := o.Begin(SnapshotIsolation)
		vs.AcquireWriteIntent(p, w, "k", leaf.TS, time.Second)
		vs.StagePending(w, "k", false, []byte("v2"))
		cts := o.CommitTS(w)
		nl := vs.CommitKey(w, "k", &leaf, cts) // unsettled

		if wm := o.Watermark(); wm != cts-1 {
			t.Fatalf("watermark with nothing active = %d, want %d (one below the unsettled commit)", wm, cts-1)
		}
		vs.GC(o.Watermark())
		if vs.Entries() != 1 || vs.VersionBytes() == 0 {
			t.Fatalf("GC collected an entry whose last writer is unsettled: %d entries, %d version bytes", vs.Entries(), vs.VersionBytes())
		}
		r := o.Begin(SnapshotIsolation) // Begin covers the commit, Safe does not
		o.SettleCommit(w)
		for i := 0; i < 3; i++ {
			o.Abort(o.Begin(SnapshotIsolation)) // the clock moves on
		}
		if wm := o.Watermark(); wm != r.Safe || r.Safe != cts-1 {
			t.Fatalf("watermark = %d with safe snapshot %d active, want %d", wm, r.Safe, cts-1)
		}
		vs.GC(o.Watermark())
		r.Begin = r.Safe
		if v, ok := vs.ReadVisible(r, "k", &nl); !ok || string(v.Val) != "v1" {
			t.Fatalf("safe-snapshot reader lost its version to GC: got %q", v.Val)
		}
		o.Abort(r)
		vs.GC(o.Watermark())
		if vs.Entries() != 0 || vs.VersionBytes() != 0 {
			t.Fatalf("with everything settled and nobody active: %d entries, %d version bytes left", vs.Entries(), vs.VersionBytes())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// intentRig is a store and an oracle for the wait-rule tests, with a helper
// that stages a write.
type intentRig struct {
	env *sim.Env
	o   *Oracle
	vs  *VersionStore
}

func newIntentRig() *intentRig {
	env := sim.NewEnv(1)
	return &intentRig{env: env, o: NewOracle(), vs: NewVersionStore(env)}
}

func (r *intentRig) stage(t *testing.T, p *sim.Proc, txn *Txn, key string) {
	t.Helper()
	if err := r.vs.AcquireWriteIntent(p, txn, key, 0, time.Second); err != nil {
		t.Fatalf("txn %d on %q: %v", txn.ID, key, err)
	}
	r.vs.StagePending(txn, key, false, []byte("x"))
}

// TestIntentRuleCommittedHolder covers rules 1 and 2: a holder past its commit
// point that is still installing. A writer whose snapshot predates that
// commit point loses first-committer-wins at once, without waiting for the
// install; one whose snapshot covers it waits for the release and then gets
// the key, depending on the commit it overwrites.
func TestIntentRuleCommittedHolder(t *testing.T) {
	r := newIntentRig()
	defer r.env.Close()
	r.vs.Commits = NewCommitTable()
	var grantedAt time.Duration
	r.env.Spawn("test", func(p *sim.Proc) {
		early := r.o.Begin(SnapshotIsolation)
		w := r.o.Begin(SnapshotIsolation)
		r.stage(t, p, w, "k")
		cts := r.o.CommitTS(w) // the install is still to come
		r.vs.Commits.Add(cts, w)
		late := r.o.Begin(SnapshotIsolation)

		if err := r.vs.AcquireWriteIntent(p, early, "k", 0, time.Second); err != ErrWriteConflict || p.Now() != 0 {
			t.Errorf("rule 1: %v at %v, want ErrWriteConflict at once", err, p.Now())
		}
		r.env.Spawn("late", func(lp *sim.Proc) {
			if err := r.vs.AcquireWriteIntent(lp, late, "k", 0, time.Second); err != nil {
				t.Errorf("rule 2: %v, want the intent", err)
			}
			grantedAt = lp.Now()
		})
		p.Sleep(5 * time.Millisecond) // the install
		r.vs.CommitKey(w, "k", nil, cts)
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	want := IntentStats{Waited: 1, DiedCommitted: 1}
	if grantedAt != 5*time.Millisecond || *r.vs.Intents != want {
		t.Fatalf("rule 2 granted at %v with counters %+v, want 5ms and %+v", grantedAt, *r.vs.Intents, want)
	}
}

// TestIntentRuleRunningHolder covers rule 4: a writer queues behind a running
// holder until the holder's commit point or abort. An abort hands it the key;
// a commit answers with rule 1 at the commit point, before the holder's
// install releases the intent.
func TestIntentRuleRunningHolder(t *testing.T) {
	for _, commit := range []bool{false, true} {
		r := newIntentRig()
		var got error
		var at time.Duration
		r.env.Spawn("holder", func(p *sim.Proc) {
			h := r.o.Begin(SnapshotIsolation)
			r.stage(t, p, h, "k")
			w := r.o.Begin(SnapshotIsolation)
			r.env.Spawn("waiter", func(wp *sim.Proc) {
				got = r.vs.AcquireWriteIntent(wp, w, "k", 0, time.Second)
				at = wp.Now()
			})
			p.Sleep(3 * time.Millisecond)
			if commit {
				cts := r.o.CommitTS(h)
				p.Sleep(5 * time.Millisecond) // the install
				r.vs.CommitKey(h, "k", nil, cts)
				return
			}
			r.vs.AbortKey(h, "k")
			r.o.Abort(h)
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		r.env.Close()
		want, wantErr := IntentStats{Waited: 1}, error(nil)
		if commit {
			want.DiedCommitted, wantErr = 1, ErrWriteConflict
		}
		if got != wantErr || at != 3*time.Millisecond || *r.vs.Intents != want {
			t.Errorf("holder commits=%v: waiter got %v at %v with %+v, want %v at 3ms with %+v",
				commit, got, at, *r.vs.Intents, wantErr, want)
		}
	}
}

// TestIntentRuleBlockedHolder covers rule 3 and the deadlock it prevents: two
// transactions that each hold the key the other wants decide in zero
// simulated time — the second request finds its holder parked behind the
// first and dies — and the survivor gets the key when the victim aborts. No
// request times out.
func TestIntentRuleBlockedHolder(t *testing.T) {
	r := newIntentRig()
	defer r.env.Close()
	a, b := r.o.Begin(SnapshotIsolation), r.o.Begin(SnapshotIsolation)
	var errA, errB error
	var doneA, doneB time.Duration
	r.env.Spawn("a", func(p *sim.Proc) {
		r.stage(t, p, a, "k1")
		p.Yield() // b takes k2
		errA = r.vs.AcquireWriteIntent(p, a, "k2", 0, time.Second)
		doneA = p.Now()
	})
	r.env.Spawn("b", func(p *sim.Proc) {
		r.stage(t, p, b, "k2")
		p.Yield()
		p.Yield() // a is parked on k2
		if a.waiting == 0 {
			t.Error("a is not marked blocked while parked on k2")
		}
		errB = r.vs.AcquireWriteIntent(p, b, "k1", 0, time.Second)
		doneB = p.Now()
		r.vs.AbortKey(b, "k2")
		r.o.Abort(b)
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if errB != ErrWriteConflict || errA != nil || doneA != 0 || doneB != 0 {
		t.Fatalf("cycle: a got %v at %v, b got %v at %v; want a the key and b ErrWriteConflict, both at 0",
			errA, doneA, errB, doneB)
	}
	if want := (IntentStats{Waited: 1, DiedBlocked: 1}); *r.vs.Intents != want {
		t.Fatalf("counters %+v, want %+v", *r.vs.Intents, want)
	}
	if a.waiting != 0 || b.waiting != 0 {
		t.Fatalf("blocked marks left set: a %d, b %d", a.waiting, b.waiting)
	}
}

// TestBlockedMarkClearedOnEveryExit: the mark rule 3 reads is set only while
// a transaction is parked in an intent or a lock wait, and cleared however
// the wait ends — granted, timed out, or with the waiter aborted meanwhile.
func TestBlockedMarkClearedOnEveryExit(t *testing.T) {
	r := newIntentRig()
	defer r.env.Close()
	lm := NewLockManager(r.env)
	waits := []struct {
		name string
		wait func(p *sim.Proc, txn *Txn, timeout time.Duration) error
	}{
		{"intent", func(p *sim.Proc, txn *Txn, timeout time.Duration) error {
			return r.vs.AcquireWriteIntent(p, txn, "k", 0, timeout)
		}},
		{"lock", func(p *sim.Proc, txn *Txn, timeout time.Duration) error {
			return lm.Lock(p, txn, "k", LockX, timeout)
		}},
	}
	r.env.Spawn("test", func(p *sim.Proc) {
		for _, wt := range waits {
			name, w := wt.name, wt.wait
			for _, exit := range []string{"grant", "timeout", "aborted"} {
				h, txn := r.o.Begin(SnapshotIsolation), r.o.Begin(SnapshotIsolation)
				if err := w(p, h, time.Second); err != nil {
					t.Fatal(err)
				}
				release := func() {
					r.vs.AbortKey(h, "k")
					r.o.Abort(h)
					lm.ReleaseAll(h)
				}
				var got error
				r.env.Spawn("waiter", func(wp *sim.Proc) { got = w(wp, txn, 10*time.Millisecond) })
				p.Sleep(time.Millisecond)
				if txn.waiting != 1 {
					t.Errorf("%s/%s: waiting = %d while parked, want 1", name, exit, txn.waiting)
				}
				want := error(nil)
				switch exit {
				case "grant":
					release()
				case "timeout":
					p.Sleep(20 * time.Millisecond)
					want = ErrLockTimeout
					release()
				case "aborted":
					r.o.Abort(txn)
					release()
					want = ErrTxnNotActive
				}
				p.Sleep(time.Millisecond)
				if got != want || txn.waiting != 0 {
					t.Errorf("%s/%s: got %v with waiting = %d, want %v and 0", name, exit, got, txn.waiting, want)
				}
				r.vs.AbortKey(txn, "k")
				r.o.Abort(txn)
				lm.ReleaseAll(txn)
			}
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}
