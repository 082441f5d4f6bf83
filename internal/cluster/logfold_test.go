package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// TestLogFoldMatchesWholeLogRead drives one node's log through random
// appends, commits, aborts, prepares, flushes, checkpoints, truncations and
// crash + restart. After every step the node's kept fold, caught up, must
// answer Txn, Winner, InDoubt, Resolved, InFlightSince and LastCheckpoint
// exactly as a table built by Add over the whole retained log does, and the
// recovery bases must be what the whole-log base fold (refFoldBases) makes of
// every checkpoint.
func TestLogFoldMatchesWholeLogRead(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkLogFold(t, seed) })
	}
}

func checkLogFold(t *testing.T, seed int64) {
	tc := newTestCluster(t, table.Physiological, 2, 40)
	defer tc.env.Close()
	c, n := tc.c, tc.c.Nodes[0]
	n.Log.SetSegmentBytes(512) // a few records per segment: truncation cuts often
	rng := rand.New(rand.NewSource(seed))
	var parts []uint64
	for id := range n.Parts {
		parts = append(parts, uint64(id))
	}
	slices.Sort(parts)
	parts = append(parts, 999) // a partition the node does not host
	ref := make(map[table.PartID][]basePair)
	for id, pairs := range n.bases {
		ref[id] = slices.Clone(pairs)
	}
	var scanned []wal.Record // what the checkpoint's scan reads
	c.Point = func(pn *DataNode, name string) {
		if pn == n && name == "ckpt.begin" {
			scanned, _, _ = wholeLog(n.Log)
		}
	}

	var ids []cc.TxnID
	var live []cc.TxnID // logged, neither closed nor prepared
	var prepared []cc.TxnID
	take := func(from *[]cc.TxnID) cc.TxnID {
		i := rng.Intn(len(*from))
		id := (*from)[i]
		*from = slices.Delete(*from, i, i+1)
		return id
	}
	image := func(step int) (uint64, []byte, []byte) {
		val := table.EncodeValue(cc.Version{TS: cc.Timestamp(step + 1), Val: []byte(fmt.Sprintf("v%d", step))})
		return parts[rng.Intn(len(parts))], ik(rng.Int63n(20)), val
	}

	tc.run(t, func(p *sim.Proc) {
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(100); {
			case k < 40: // DML, by a new transaction or a live one
				if len(live) == 0 || rng.Intn(4) == 0 {
					id := cc.TxnID(1<<40 + step)
					ids, live = append(ids, id), append(live, id)
				}
				id := live[rng.Intn(len(live))]
				part, key, val := image(step)
				typ := []wal.RecType{wal.RecUpdate, wal.RecInsert, wal.RecDelete}[rng.Intn(3)]
				n.Log.Append(wal.Record{Txn: id, Type: typ, Part: part, Key: key, After: val})
			case k < 52 && len(live)+len(prepared) > 0: // commit
				from := &live
				if len(live) == 0 || len(prepared) > 0 && rng.Intn(2) == 0 {
					from = &prepared
				}
				n.Log.Append(wal.Record{Txn: take(from), Type: wal.RecCommit})
			case k < 60 && len(live) > 0: // abort
				n.Log.Append(wal.Record{Txn: take(&live), Type: wal.RecAbort})
			case k < 68 && len(live) > 0: // prepare, with one redo image
				id := take(&live)
				part, key, val := image(step)
				n.Log.Append(wal.Record{Txn: id, Type: wal.RecPrepDML, Part: part, Key: key, After: val})
				n.Log.Append(wal.Record{Txn: id, Type: wal.RecPrepare})
				prepared = append(prepared, id)
			case k < 78:
				n.Log.Flush(p, n.Log.TailLSN()-1)
			case k < 88:
				st, err := c.CheckpointNode(p, n, 0)
				if err != nil || st.EndLSN == 0 {
					t.Fatalf("step %d: checkpoint %+v: %v", step, st, err)
				}
				_, tab, _ := wholeLog(n.Log)
				refFoldBases(ref, scanned, tab.LastCheckpoint())
			case k < 94:
				head, tail := uint64(1), n.Log.TailLSN()
				if recs, _, _ := wholeLog(n.Log); len(recs) > 0 {
					head = recs[0].LSN
				}
				n.truncate(head + uint64(rng.Int63n(int64(tail-head+1))))
			default: // crash and restart: every transaction in flight dies
				c.CrashNode(n)
				if _, _, err := c.RestartNode(p, n); err != nil {
					t.Fatalf("step %d: restart: %v", step, err)
				}
				live, prepared = nil, nil
			}
			f, err := n.readLog()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			_, whole, err := wholeLog(n.Log)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, step, f.a, whole, ids, n.deadBelow)
			if !reflect.DeepEqual(n.bases, ref) {
				t.Fatalf("step %d: recovery bases differ from the whole-log fold", step)
			}
		}
	})
}

// sameTable fails the test unless got answers every question a checkpoint, a
// restart or the reconcile asks exactly as want does.
func sameTable(t *testing.T, step int, got, want *wal.Analysis, ids []cc.TxnID, deadBelow uint64) {
	t.Helper()
	for _, id := range ids {
		g, w := got.Txn(id), want.Txn(id)
		if (g == nil) != (w == nil) || g != nil && !reflect.DeepEqual(*g, *w) {
			t.Fatalf("step %d: txn %d row %+v, want %+v", step, id, g, w)
		}
		if got.Winner(id) != want.Winner(id) {
			t.Fatalf("step %d: txn %d winner %v, want %v", step, id, got.Winner(id), want.Winner(id))
		}
		gr, gl := got.Resolved(id)
		wr, wl := want.Resolved(id)
		if gr != wr || gl != wl {
			t.Fatalf("step %d: txn %d resolved %v at %d, want %v at %d", step, id, gr, gl, wr, wl)
		}
	}
	if g, w := got.InDoubt(), want.InDoubt(); !slices.Equal(g, w) {
		t.Fatalf("step %d: in doubt %v, want %v", step, g, w)
	}
	for _, since := range []uint64{0, deadBelow} {
		if g, w := got.InFlightSince(since), want.InFlightSince(since); !slices.Equal(g, w) {
			t.Fatalf("step %d: in flight since %d: %v, want %v", step, since, g, w)
		}
	}
	if g, w := got.LastCheckpoint(), want.LastCheckpoint(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: last checkpoint %+v, want %+v", step, g, w)
	}
}

// wholeLog reads l's whole retained log, up to the first damaged frame: its
// records, and the transaction table Add builds of them.
func wholeLog(l *wal.Log) ([]wal.Record, *wal.Analysis, error) {
	var recs []wal.Record
	a := wal.NewAnalysis()
	it := l.Iter()
	for r := (wal.Record{}); it.Next(&r); {
		recs = append(recs, r)
		a.Add(&r)
	}
	return recs, a, it.Err()
}

// refFoldBases is the base fold over the whole log a checkpoint's scan read:
// the latest image of every key — a RecBase or a winner's DML — whose
// partition the checkpoint covers, folded into that partition's base when it
// lies below the partition's redo point.
func refFoldBases(bases map[table.PartID][]basePair, recs []wal.Record, ck *wal.Checkpoint) {
	a := wal.NewAnalysis()
	for i := range recs {
		a.Add(&recs[i])
	}
	redoOf := make(map[uint64]uint64)
	for _, cp := range ck.Parts {
		redoOf[cp.ID] = cp.Redo
	}
	latest := make(map[uint64]map[string]basePair)
	for _, r := range recs {
		dml := r.Type == wal.RecUpdate || r.Type == wal.RecInsert || r.Type == wal.RecDelete
		if _, hosted := redoOf[r.Part]; !hosted || r.Type != wal.RecBase && !(dml && a.Winner(r.Txn)) {
			continue
		}
		if latest[r.Part] == nil {
			latest[r.Part] = make(map[string]basePair)
		}
		latest[r.Part][string(r.Key)] = basePair{key: r.Key, val: r.After, lsn: r.LSN}
	}
	for part, imgs := range latest {
		id := table.PartID(part)
		pairs := bases[id]
		keys := make([]string, 0, len(imgs))
		for k := range imgs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			im := imgs[k]
			if im.lsn >= redoOf[part] {
				continue
			}
			j := -1
			for i := range pairs {
				if string(pairs[i].key) == k {
					j = i
				}
			}
			switch {
			case j < 0:
				pairs = append(pairs, basePair{key: []byte(k), val: im.val, lsn: im.lsn})
			case pairs[j].lsn < im.lsn:
				pairs[j].val, pairs[j].lsn = im.val, im.lsn
			}
		}
		bases[id] = pairs
	}
}

// TestCheckpointReadsOnlyItsDelta: a restart reads its recovered log once,
// into the transaction table the node keeps — decoding each retained frame
// exactly once, with no second whole-log read for the checkpoint or the
// replay's records. The first checkpoint after it catches that table up on
// the frames appended since the restart's read; only its base fold reads
// from the log head, having no earlier redo point. The next checkpoint
// decodes the frames appended since the last read and, for the base fold,
// those from the previous checkpoint's redo point on — nothing below it. Its
// count is the same whether the retained history below is one or eight
// times as long.
func TestCheckpointReadsOnlyItsDelta(t *testing.T) {
	run := func(history int) (full, delta int) {
		w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.DataReplicas = 1 })
		defer w.env.Close()
		c, n := w.c, w.n2 // node 1's follower: its wrappers pin the history
		var part uint64
		for id := range n.Parts {
			part = uint64(id)
		}
		txn := cc.TxnID(1 << 40)
		commit := func(k int) { // three frames: two updates and the commit
			txn++
			val := table.EncodeValue(cc.Version{TS: 1, Val: []byte("v")})
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Part: part, Key: ik(int64(50 + k%40)), After: val})
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Part: part, Key: ik(int64(51 + k%40)), After: val})
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecCommit})
		}
		checkpoint := func(p *sim.Proc) *wal.Checkpoint {
			if st, err := c.CheckpointNode(p, n, 0); err != nil || st.EndLSN == 0 {
				t.Fatalf("checkpoint %+v: %v", st, err)
			}
			_, tab, _ := wholeLog(n.Log)
			return tab.LastCheckpoint()
		}
		w.env.Spawn("run", func(p *sim.Proc) {
			for k := 0; k < 200*history; k++ {
				commit(k)
			}
			n.Log.Flush(p, n.Log.TailLSN()-1)
			c.CrashNode(n)
			mustRestart(t, p, c, n)
			f := n.fold
			if f == nil || f.gen != n.Log.Gen() {
				t.Fatal("the restart's transaction table is not the one the node keeps")
			}
			recs, _, _ := wholeLog(n.Log)
			head, read := recs[0].LSN, 0
			for _, r := range recs {
				if r.LSN < f.a.Next() {
					read++
				}
			}
			if f.decoded != read || read < 600*history {
				t.Fatalf("history x%d: the restart decoded %d frames, want each of the %d it read once", history, f.decoded, read)
			}
			restartNext := f.a.Next()
			ck := checkpoint(p)
			if n.fold != f {
				t.Fatal("the first checkpoint after the restart did not catch the restart's table up")
			}
			full = f.decoded
			if want := read + int(ck.Begin-restartNext+1) + int(ck.Begin-head+1); full != want {
				t.Errorf("history x%d: the restart and the first checkpoint decoded %d frames, want %d: the restart's %d, the %d appended since and the base fold's %d from the head",
					history, full, want, read, ck.Begin-restartNext+1, ck.Begin-head+1)
			}
			for k := 0; k < 20; k++ {
				commit(k)
			}
			before, next := f.decoded, f.a.Next()
			ck2 := checkpoint(p)
			delta = n.fold.decoded - before
			if want := int(ck2.Begin-next+1) + int(ck2.Begin-ck.Redo+1); delta != want {
				t.Errorf("history x%d: the checkpoint decoded %d frames, want %d: the %d since the last read and the %d from the previous redo point %d",
					history, delta, want, ck2.Begin-next+1, ck2.Begin-ck.Redo+1, ck.Redo)
			}
		})
		if err := w.env.Run(); err != nil {
			t.Fatal(err)
		}
		return full, delta
	}
	full1, delta1 := run(1)
	full8, delta8 := run(8)
	// The restart's read and the first checkpoint's base fold both read the
	// whole log: seven times the shorter history's 600 frames more, twice
	// over.
	if full8-full1 < 2*7*600 {
		t.Fatalf("the restart and the first checkpoint after it decoded %d frames over the longer history, %d over the shorter: the history was not retained", full8, full1)
	}
	if delta1 != delta8 {
		t.Fatalf("the next checkpoint decoded %d frames over one history, %d over one eight times as long", delta1, delta8)
	}
}

// TestReconcileReadsTheKeptTable: participant 2 takes a checkpoint, then its
// commit record of a distributed transaction lands above it while the leader
// is down, so its ack is lost. The election's reconcile must ack the branch
// from participant 2's kept transaction table, caught up on the frames
// appended since the checkpoint — the same fold, not a new read of the log.
func TestReconcileReadsTheKeptTable(t *testing.T) {
	w := newIndoubtWorldWith(t, 4, func(cfg *Config) { cfg.MasterReplicas = 2 })
	defer w.env.Close()
	c := w.c
	leader := c.Master.Node
	var kept *logFold
	var next uint64
	var decoded int
	w.env.Spawn("checkpoint", func(p *sim.Proc) {
		if st, err := c.CheckpointNode(p, w.n2, 0); err != nil || st.EndLSN == 0 {
			t.Errorf("checkpoint %+v: %v", st, err)
		}
		kept, next, decoded = w.n2.fold, w.n2.fold.a.Next(), w.n2.fold.decoded
	})
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	c.Point = func(n *DataNode, name string) {
		if n != w.n2 || name != "commit.decided" {
			return
		}
		c.Point = nil
		c.CrashNode(leader) // participant 2's ack finds the coordinator down
		w.env.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(electionDelay + reconcileDelay/2) // elected, not yet reconciled
			if c.Master.down || c.Master.InDoubtDecisionCount() != 1 {
				t.Errorf("setup: down=%v, %d decisions outstanding after the election, want 1",
					c.Master.down, c.Master.InDoubtDecisionCount())
			}
			if w.n2.fold != kept || kept.a.Next() != next {
				t.Error("setup: participant 2's log was read between its checkpoint and the reconcile")
			}
		})
	}
	if !w.runCommit(t) {
		t.Fatal("the commit was not acknowledged")
	}
	w.env.Spawn("settle", func(p *sim.Proc) { p.Sleep(time.Second) })
	if err := w.env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		t.Fatalf("%d decisions outstanding after the reconcile", n)
	}
	if w.n2.fold != kept {
		t.Fatal("the reconcile read participant 2's log anew instead of catching its kept table up")
	}
	if got, want := kept.decoded-decoded, int(kept.a.Next()-next); kept.a.Next() <= next || got != want {
		t.Fatalf("the reconcile decoded %d frames catching up from LSN %d to %d, want %d", got, next, kept.a.Next(), want)
	}
}
