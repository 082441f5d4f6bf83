package wattdb_test

import (
	"fmt"
	"testing"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/buffer"
	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
	"wattdb/internal/table"
	"wattdb/internal/wal"
)

// Micro-benchmarks for the hot paths underneath every figure benchmark:
// kernel wakeups, buffer-pool hits, batched cursor scans, and the full
// TableScan operator stack. Run with -benchmem: the pool-hit and cursor
// benchmarks must report 0 allocs/op (regression-guarded by
// TestPinHitZeroAlloc and TestCursorNextBatchZeroAlloc in their packages).

// BenchmarkSimWakeup measures one timer wakeup round-trip through the
// kernel: schedule a typed resume event, park, dispatch, hand control back.
func BenchmarkSimWakeup(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	env.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	st := env.Stats()
	b.ReportMetric(float64(st.Wakeups)/float64(b.N), "wakeups/op")
}

// benchBackend serves reads/writes from in-memory segments with no
// simulated latency.
type benchBackend struct {
	segs map[storage.SegID]*storage.Segment
}

func (m *benchBackend) ReadPage(p *sim.Proc, id storage.PageID, dst []byte) error {
	copy(dst, m.segs[id.Seg].Page(id.Page))
	return nil
}

func (m *benchBackend) WritePage(p *sim.Proc, id storage.PageID, src []byte) error {
	copy(m.segs[id.Seg].Page(id.Page), src)
	return nil
}

// BenchmarkPoolPinHit measures Pin/Unpin of a resident idle frame — the
// buffer pool's hit path, which must be allocation-free.
func BenchmarkPoolPinHit(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	seg := storage.NewSegment(1, 4096, 8)
	no, _ := seg.AllocPage()
	be := &benchBackend{segs: map[storage.SegID]*storage.Segment{1: seg}}
	pool := buffer.NewPool(env, be, 4096, 8)
	env.Spawn("bench", func(p *sim.Proc) {
		id := storage.PageID{Seg: 1, Page: no}
		f, err := pool.Pin(p, id)
		if err != nil {
			b.Error(err)
			return
		}
		pool.Unpin(f, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := pool.Pin(p, id)
			if err != nil {
				b.Error(err)
				return
			}
			pool.Unpin(g, false)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCursorScan measures a full key-order scan of a 10k-record tree
// via the batched cursor API (ns/op is per record).
func BenchmarkCursorScan(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	seg := storage.NewSegment(1, 4096, 4096)
	tr := btree.New(btree.MemPager{Seg: seg}, 0, nil)
	const records = 10000
	env.Spawn("bench", func(p *sim.Proc) {
		for i := int64(0); i < records; i++ {
			if _, err := tr.Put(p, keycodec.Int64Key(i), []byte("0123456789abcdef"), 0); err != nil {
				b.Error(err)
				return
			}
		}
		c, err := tr.Seek(p, nil)
		if err != nil {
			b.Error(err)
			return
		}
		out := make([]btree.KV, 64)
		b.ResetTimer()
		scanned := 0
		for scanned < b.N {
			if err := c.SeekTo(p, nil); err != nil {
				b.Error(err)
				return
			}
			for {
				m, err := c.NextBatch(p, out)
				if err != nil {
					b.Error(err)
					return
				}
				if m == 0 {
					break
				}
				scanned += m
			}
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

type benchFactory struct {
	nextID   storage.SegID
	pageSize int
	segPages int
}

func (f *benchFactory) NewSegment(*sim.Proc) (*storage.Segment, error) {
	f.nextID++
	return storage.NewSegment(f.nextID, f.pageSize, f.segPages), nil
}
func (f *benchFactory) Pager(seg *storage.Segment) btree.Pager { return btree.MemPager{Seg: seg} }
func (f *benchFactory) DropSegment(*sim.Proc, storage.SegID)   {}

type benchNullDevice struct{}

func (benchNullDevice) Append(*sim.Proc, int64) {}

// benchLogDevice models a log device with a fixed forced-write latency.
type benchLogDevice struct {
	writes int64
	delay  time.Duration
}

func (d *benchLogDevice) Append(p *sim.Proc, bytes int64) {
	d.writes++
	p.Sleep(d.delay)
}

// BenchmarkGroupCommit measures forced log-device writes under concurrent
// committers against the byte-encoded WAL: TPC-C-style workers each append
// a few DML frames plus a commit record and force the log. Group commit
// must coalesce committers parked behind the same in-flight device write,
// so the forced-writes/commit metric stays well below 1.0 at EQUAL
// durability (every committer still returns only after its LSN is on the
// platter). ns/op is per committed transaction.
func BenchmarkGroupCommit(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	dev := &benchLogDevice{delay: 150 * time.Microsecond}
	l := wal.NewLog(env, dev)
	const workers = 16
	per := b.N/workers + 1
	key := keycodec.Int64Key(42)
	val := []byte("0123456789abcdef0123456789abcdef")
	commits := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		w := w
		env.Spawn("committer", func(p *sim.Proc) {
			p.Sleep(time.Duration(w*37) * time.Microsecond) // desynchronize
			for i := 0; i < per; i++ {
				txn := cc.TxnID(w*per + i + 1)
				l.Append(wal.Record{Type: wal.RecUpdate, Txn: txn, Part: 1, Key: key, After: val})
				l.Append(wal.Record{Type: wal.RecUpdate, Txn: txn, Part: 1, Key: key, After: val})
				lsn := l.Append(wal.Record{Type: wal.RecCommit, Txn: txn})
				l.Flush(p, lsn)
				if l.FlushedLSN() < lsn {
					b.Error("commit acknowledged before its LSN was durable")
					return
				}
				commits++
				p.Sleep(time.Duration(20+w) * time.Microsecond) // think time
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(dev.writes)/float64(commits), "forced-writes/commit")
}

// BenchmarkEncodeKeyPrefix compares the variadic key-prefix encoder (whose
// interface conversions box every int64 argument) against the typed
// 1/2-argument fast paths used by the TPC-C range-bound hot paths. The fast
// paths must report 0 allocs/op.
func BenchmarkEncodeKeyPrefix(b *testing.B) {
	schema := &table.Schema{
		ID: 1, Name: "t", KeyCols: 2,
		Columns: []table.Column{{Name: "w", Type: table.ColInt64}, {Name: "d", Type: table.ColInt64}},
	}
	buf := make([]byte, 0, 16)
	b.Run("variadic2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = schema.AppendKeyPrefix(buf[:0], int64(i), int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = schema.AppendKeyPrefix2(buf[:0], int64(i), int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = schema.AppendKeyPrefix1(buf[:0], int64(i))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = buf
}

// scanWorld builds a single-node 5k-row partition for the operator-stack
// benchmarks.
func scanWorld(b *testing.B) (*sim.Env, *cc.Oracle, *table.Partition, *hw.Node) {
	env := sim.NewEnv(1)
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	n1 := hw.NewNode(env, 1, cal, net)
	n1.ForceActive()
	oracle := cc.NewOracle()
	schema := &table.Schema{
		ID: 1, Name: "t", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
	deps := table.Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, benchNullDevice{}),
		Factory:     &benchFactory{pageSize: 4096, segPages: 256},
		LockTimeout: time.Second,
		PageSize:    4096,
		Compute:     n1.Compute,
		CPUPerOp:    cal.CPUBTreeOp,
		CPUPerTuple: cal.CPUTupleScan,
	}
	part := table.NewPartition(1, schema, table.Physiological, nil, nil, deps)
	const rows = 5000
	env.Spawn("load", func(p *sim.Proc) {
		txn := oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < rows; i++ {
			key, _ := schema.Key(table.Row{int64(i), "payload"})
			payload, _ := schema.EncodeRow(table.Row{int64(i), "payload"})
			if err := part.Put(p, txn, key, payload); err != nil {
				b.Error(err)
				return
			}
		}
		if err := table.CommitTxn(p, txn, part); err != nil {
			b.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	return env, oracle, part, n1
}

// BenchmarkScanPipeline measures a TableScan -> Project -> Filter pipeline
// over the columnar batch representation, draining a 5k-row partition with
// vector size 64 (ns/op is per scanned row). Must report 0 allocs/op
// (regression-guarded by TestScanPipelineZeroAlloc in internal/exec).
func BenchmarkScanPipeline(b *testing.B) {
	env, oracle, part, node := scanWorld(b)
	defer env.Close()
	const rows = 5000
	env.Spawn("bench", func(p *sim.Proc) {
		txn := oracle.Begin(cc.SnapshotIsolation)
		plan := &exec.Filter{
			Child: &exec.Project{
				Child:     &exec.TableScan{Part: part, Txn: txn, Vector: 64},
				Node:      node,
				Cols:      []int{0},
				CPUPerRow: time.Microsecond,
			},
			Node:      node,
			Pred:      func(bt *table.Batch, i int) bool { return bt.Int(0, i)%2 == 0 },
			CPUPerRow: time.Microsecond,
		}
		if _, err := exec.Drain(p, plan); err != nil { // warm operator state
			b.Error(err)
			return
		}
		b.ResetTimer()
		scanned := 0
		for scanned < b.N {
			if _, err := exec.Drain(p, plan); err != nil {
				b.Error(err)
				return
			}
			scanned += rows
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSource replays a pre-built batch in vector-sized slices — the join
// benchmarks' input operator. It declares its ordering so merge joins can
// assert sorted inputs.
type benchSource struct {
	data   *table.Batch
	vector int
	ord    []int

	out *table.Batch
	pos int
}

func (s *benchSource) Open(*sim.Proc) error {
	if s.out == nil {
		s.out = table.NewBatch(s.data.Schema)
	}
	s.pos = 0
	return nil
}

func (s *benchSource) Next(*sim.Proc) (*table.Batch, error) {
	if s.pos >= s.data.Len() {
		return nil, nil
	}
	end := s.pos + s.vector
	if end > s.data.Len() {
		end = s.data.Len()
	}
	s.out.Reset()
	for i := s.pos; i < end; i++ {
		s.out.AppendFrom(s.data, i)
	}
	s.pos = end
	return s.out, nil
}

func (s *benchSource) Close(*sim.Proc) {}

func (s *benchSource) Ordering() []int { return s.ord }

// joinInputs builds a 1024-row build/left side and an 8192-row probe/right
// side whose keys all match (8 probe rows per build key), both in key order.
func joinInputs(b *testing.B) (*sim.Env, *hw.Node, *table.Batch, *table.Batch) {
	env := sim.NewEnv(1)
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	node := hw.NewNode(env, 1, cal, net)
	node.ForceActive()
	ls := &table.Schema{
		ID: 1, Name: "L", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "lv", Type: table.ColFloat64}},
	}
	rs := &table.Schema{
		ID: 2, Name: "R", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "rv", Type: table.ColString}},
	}
	const buildN, probeN = 1024, 8192
	left := table.NewBatch(ls)
	for i := 0; i < buildN; i++ {
		if err := left.AppendRow(table.Row{int64(i), float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	right := table.NewBatch(rs)
	for i := 0; i < probeN; i++ {
		if err := right.AppendRow(table.Row{int64(i / (probeN / buildN)), "payload"}); err != nil {
			b.Fatal(err)
		}
	}
	return env, node, left, right
}

// BenchmarkHashJoin measures the vectorized hash join: 1k-row build side,
// 8k-row probe, every probe row matching (ns/op is per joined output row).
// Must report 0 allocs/op in steady state (regression-guarded by
// TestHashJoinProbeZeroAlloc in internal/exec).
func BenchmarkHashJoin(b *testing.B) {
	env, node, left, right := joinInputs(b)
	defer env.Close()
	join := &exec.HashJoin{
		Build:     &benchSource{data: left, vector: 64},
		Probe:     &benchSource{data: right, vector: 64},
		Node:      node,
		BuildKeys: []int{0},
		ProbeKeys: []int{0},
		CPUPerRow: time.Microsecond,
		Vector:    64,
	}
	env.Spawn("bench", func(p *sim.Proc) {
		warm, err := exec.Drain(p, join)
		if err != nil {
			b.Error(err)
			return
		}
		if warm != right.Len() {
			b.Errorf("joined %d rows, want %d", warm, right.Len())
			return
		}
		b.ResetTimer()
		joined := 0
		for joined < b.N {
			n, err := exec.Drain(p, join)
			if err != nil {
				b.Error(err)
				return
			}
			joined += n
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMergeJoin measures the merge join over pre-ordered inputs: same
// shape as BenchmarkHashJoin, with both sides key-sorted and the ordering
// asserted from plan metadata (ns/op is per joined output row). Must report
// 0 allocs/op in steady state (TestMergeJoinZeroAlloc).
func BenchmarkMergeJoin(b *testing.B) {
	env, node, left, right := joinInputs(b)
	defer env.Close()
	join := &exec.MergeJoin{
		Left:      &benchSource{data: left, vector: 64, ord: []int{0}},
		Right:     &benchSource{data: right, vector: 64, ord: []int{0}},
		Node:      node,
		LeftKeys:  []int{0},
		RightKeys: []int{0},
		CPUPerRow: time.Microsecond,
		Vector:    64,
	}
	env.Spawn("bench", func(p *sim.Proc) {
		warm, err := exec.Drain(p, join)
		if err != nil {
			b.Error(err)
			return
		}
		if warm != right.Len() {
			b.Errorf("joined %d rows, want %d", warm, right.Len())
			return
		}
		b.ResetTimer()
		joined := 0
		for joined < b.N {
			n, err := exec.Drain(p, join)
			if err != nil {
				b.Error(err)
				return
			}
			joined += n
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExchangeParallelScan measures the scatter-gather merge: 8k rows
// split over 1/2/4/8 partitions, each on its own node, drained through the
// exchange (ns/op is per merged row). The sim-us/drain metric is the
// virtual time one drain takes — it must shrink as partitions are added
// (the 4-partition >= 2x speedup is regression-guarded by
// TestExchangeParallelScanSpeedup in internal/exec).
func BenchmarkExchangeParallelScan(b *testing.B) {
	const totalRows = 8192
	for _, nparts := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parts-%d", nparts), func(b *testing.B) {
			env := sim.NewEnv(1)
			defer env.Close()
			cal := hw.TestCalibration()
			net := hw.NewNetwork(env, cal)
			oracle := cc.NewOracle()
			schema := &table.Schema{
				ID: 1, Name: "sharded", KeyCols: 1,
				Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColInt64}},
			}
			rowsPer := totalRows / nparts
			var parts []*table.Partition
			for i := 0; i < nparts; i++ {
				node := hw.NewNode(env, i+1, cal, net)
				node.ForceActive()
				deps := table.Deps{
					Env:         env,
					Oracle:      oracle,
					Locks:       cc.NewLockManager(env),
					Log:         wal.NewLog(env, benchNullDevice{}),
					Factory:     &benchFactory{pageSize: 4096, segPages: 256},
					LockTimeout: time.Second,
					PageSize:    4096,
					Compute:     node.Compute,
					CPUPerOp:    cal.CPUBTreeOp,
					CPUPerTuple: cal.CPUTupleScan,
				}
				parts = append(parts, table.NewPartition(table.PartID(i+1), schema, table.Physiological, nil, nil, deps))
			}
			env.Spawn("load", func(p *sim.Proc) {
				for i, part := range parts {
					txn := oracle.Begin(cc.SnapshotIsolation)
					for j := 0; j < rowsPer; j++ {
						k := int64(i*rowsPer + j)
						key, _ := schema.Key(table.Row{k, k * 2})
						payload, _ := schema.EncodeRow(table.Row{k, k * 2})
						if err := part.Put(p, txn, key, payload); err != nil {
							b.Error(err)
							return
						}
					}
					if err := table.CommitTxn(p, txn, part); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			txn := oracle.Begin(cc.SnapshotIsolation)
			var plans []exec.Operator
			for _, part := range parts {
				plans = append(plans, &exec.TableScan{Part: part, Txn: txn, Vector: 64})
			}
			ex := &exec.Exchange{Plans: plans, Env: env}
			var simPerDrain time.Duration
			env.Spawn("bench", func(p *sim.Proc) {
				warm, err := exec.Drain(p, ex) // warm the free list and workers
				if err != nil {
					b.Error(err)
					return
				}
				if warm != totalRows {
					b.Errorf("drained %d rows, want %d", warm, totalRows)
					return
				}
				b.ResetTimer()
				start := env.Now()
				drained, drains := 0, 0
				for drained < b.N {
					n, err := exec.Drain(p, ex)
					if err != nil {
						b.Error(err)
						return
					}
					drained += n
					drains++
				}
				if drains > 0 {
					simPerDrain = (env.Now() - start) / time.Duration(drains)
				}
			})
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(simPerDrain.Microseconds()), "sim-us/drain")
		})
	}
}

// BenchmarkChangedSince measures the record mover's pre-advance change check
// against a store with many quiescent entries and one commit newer than the
// mover's snapshot — the case that previously fell back to an O(entries)
// walk and is now bounded by the watermark-pruned recent-commit set.
func BenchmarkChangedSince(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	oracle := cc.NewOracle()
	vs := cc.NewVersionStore(env)
	const entries = 50_000
	env.Spawn("setup", func(p *sim.Proc) {
		for i := 0; i < entries; i++ {
			txn := oracle.Begin(cc.SnapshotIsolation)
			key := string(keycodec.Int64Key(int64(i)))
			if err := vs.AcquireWriteIntent(p, txn, key, 0, time.Second); err != nil {
				b.Error(err)
				return
			}
			vs.StagePending(txn, key, false, []byte("v"))
			vs.CommitKey(txn, key, nil, oracle.CommitTS(txn))
			oracle.SettleCommit(txn)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	// Vacuum: the historical bulk drops out of the recent-commit set.
	vs.GC(oracle.Watermark())
	// The mover's snapshot, then one newer commit to defeat the fast path.
	mover := oracle.Begin(cc.SnapshotIsolation)
	env.Spawn("fresh-commit", func(p *sim.Proc) {
		txn := oracle.Begin(cc.SnapshotIsolation)
		key := string(keycodec.Int64Key(int64(entries)))
		if err := vs.AcquireWriteIntent(p, txn, key, 0, time.Second); err != nil {
			b.Error(err)
			return
		}
		vs.StagePending(txn, key, false, []byte("v"))
		vs.CommitKey(txn, key, nil, oracle.CommitTS(txn))
		oracle.SettleCommit(txn)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	lo, hi := keycodec.Int64Key(0), keycodec.Int64Key(int64(entries/2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs.ChangedSince(mover, lo, hi, 0) {
			b.Fatal("fresh commit is outside [lo, hi); ChangedSince must be false")
		}
	}
	b.ReportMetric(float64(vs.RecentCommits()), "recent-set")
}

// BenchmarkTableScanBatch measures the full operator stack — TableScan over
// partition, MVCC visibility, batched B*-tree cursor, columnar decode —
// draining a 5k-row partition with vector size 64 (ns/op is per drained
// row).
func BenchmarkTableScanBatch(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	n1 := hw.NewNode(env, 1, cal, net)
	n1.ForceActive()
	oracle := cc.NewOracle()
	schema := &table.Schema{
		ID: 1, Name: "t", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
	deps := table.Deps{
		Env:         env,
		Oracle:      oracle,
		Locks:       cc.NewLockManager(env),
		Log:         wal.NewLog(env, benchNullDevice{}),
		Factory:     &benchFactory{pageSize: 4096, segPages: 256},
		LockTimeout: time.Second,
		PageSize:    4096,
		Compute:     n1.Compute,
		CPUPerOp:    cal.CPUBTreeOp,
		CPUPerTuple: cal.CPUTupleScan,
	}
	part := table.NewPartition(1, schema, table.Physiological, nil, nil, deps)
	const rows = 5000
	env.Spawn("load", func(p *sim.Proc) {
		txn := oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < rows; i++ {
			key, _ := schema.Key(table.Row{int64(i), "payload"})
			payload, _ := schema.EncodeRow(table.Row{int64(i), "payload"})
			if err := part.Put(p, txn, key, payload); err != nil {
				b.Error(err)
				return
			}
		}
		if err := table.CommitTxn(p, txn, part); err != nil {
			b.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	env.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		drained := 0
		for drained < b.N {
			scan := &exec.TableScan{
				Part:   part,
				Txn:    oracle.Begin(cc.SnapshotIsolation),
				Vector: 64,
			}
			n, err := exec.Drain(p, scan)
			if err != nil {
				b.Error(err)
				return
			}
			if n != rows {
				b.Errorf("drained %d rows, want %d", n, rows)
				return
			}
			drained += n
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointScan measures one fuzzy checkpoint (cluster.CheckpointNode)
// on a follower whose log retains a history of 4 096 frames (x1) or 32 768
// (x8) — its first ship wrapper keeps it from recycling any of them — with 60
// new frames of committed updates before each checkpoint. The checkpoint
// catches its kept transaction table up on the frames since the last one and
// folds the recovery bases from the last redo point on, so ns/op and
// allocs/op are the same at both lengths.
func BenchmarkCheckpointScan(b *testing.B) {
	for _, x := range []int{1, 8} {
		b.Run(fmt.Sprintf("retained=x%d", x), func(b *testing.B) {
			env, c := replicatedPair(b)
			defer env.Close()
			c.SetupReplicationDrain() // node 0's base images: node 1's first wrappers
			n := c.Nodes[1]
			commits := commitAppender(n)
			env.Spawn("bench", func(p *sim.Proc) {
				commits(4096 * x / 3)
				if _, err := c.CheckpointNode(p, n, 0); err != nil { // the first reads it all
					b.Error(err)
					return
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					commits(20)
					if st, err := c.CheckpointNode(p, n, 0); err != nil || st.EndLSN == 0 {
						b.Errorf("checkpoint %+v: %v", st, err)
						return
					}
				}
			})
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFollowerRestart measures one power failure and restart
// (cluster.CrashNode, cluster.RestartNode) of node 1, whose log holds node
// 0's shipped stream of 4 096 committed-update frames (x1) or 32 768 (x8),
// wrapped and durable, beside its own bulk-load base images. The restart reads
// its own log, and its two resyncs each walk an origin's retained log and the
// follower's whole copy of it, and the one from node 0 ships that origin's
// log again, so ns/op and allocs/op grow with the history — the cost replica
// images (ROADMAP item 5) are to bound. Every op restarts a cluster of its
// own, built with the timer stopped.
func BenchmarkFollowerRestart(b *testing.B) {
	for _, x := range []int{1, 8} {
		b.Run(fmt.Sprintf("retained=x%d", x), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env, c := replicatedPair(b)
				commitAppender(c.Nodes[0])(4096 * x / 3)
				c.SetupReplicationDrain() // node 0's whole log: node 1's wrappers
				f := c.Nodes[1]
				b.StartTimer()
				env.Spawn("restart", func(p *sim.Proc) {
					c.CrashNode(f)
					if _, _, err := c.RestartNode(p, f); err != nil {
						b.Error(err)
					}
				})
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				env.Close()
				b.StartTimer()
			}
		})
	}
}

// replicatedPair is the two-node cluster of the log benchmarks: each node
// follows the other (DataReplicas 1), and a kv table of 200 rows, split at key
// 100 between node 0 and node 1, is bulk-loaded and not yet shipped.
func replicatedPair(b *testing.B) (*sim.Env, *cluster.Cluster) {
	env := sim.NewEnv(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.DataReplicas = 2, 1
	c := cluster.New(env, cfg)
	c.Nodes[1].HW.ForceActive()
	schema := &table.Schema{
		ID: 1, Name: "kv", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
	mid := keycodec.Int64Key(100)
	if _, err := c.Master.CreateTable(schema, table.Physiological, []cluster.RangeSpec{
		{High: mid, Owner: c.Nodes[0]}, {Low: mid, Owner: c.Nodes[1]},
	}); err != nil {
		b.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		i := int64(0)
		if err := c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i == 200 {
				return nil, nil, false
			}
			row := table.Row{i, "v"}
			key, _ := schema.Key(row)
			payload, _ := schema.EncodeRow(row)
			i++
			return key, payload, true
		}); err != nil {
			b.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	return env, c
}

// commitAppender returns a function that appends k committed transactions to
// n's log, three frames each: an update and an insert of one key of n's
// partition in replicatedPair, and the commit.
func commitAppender(n *cluster.DataNode) func(k int) {
	var part uint64
	for id := range n.Parts {
		part = uint64(id)
	}
	val := table.EncodeValue(cc.Version{TS: 1, Val: []byte("v")})
	txn := cc.TxnID(1 << 40)
	return func(k int) {
		for ; k > 0; k-- {
			txn++
			key := keycodec.Int64Key(100*int64(n.ID) + int64(txn%100))
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Part: part, Key: key, After: val})
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecInsert, Part: part, Key: key, After: val})
			n.Log.Append(wal.Record{Txn: txn, Type: wal.RecCommit})
		}
	}
}
