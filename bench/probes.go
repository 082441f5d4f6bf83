package main

import (
	"fmt"
	"runtime"
	"sort"
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

// Host-time probes (P): each drives one layer's exported API in isolation
// for a fixed number of iterations, sized after the root micro-benchmarks.
// Set-up is excluded; the body runs probeReps times with time.Now around it
// and the median per-operation time is reported. Spans cannot attribute host
// time (a span's host interval contains every process the scheduler
// interleaved), so these are the ledger's only per-layer host numbers.

const probeReps = 5

// probe prepares its state and returns the timed body. The body runs the
// fixed iteration count and returns how many operations that was; for
// probes measured in simulated time or allocations it returns the value to
// report per operation instead of relying on the wall clock.
type probe struct {
	name string
	unit probeUnit
	prep func() (body func() float64, cleanup func())
}

type probeUnit int

const (
	hostNs    probeUnit = iota // body returns ops; report median host ns/op
	hostAlloc                  // body returns ops; report median mallocs/op
	ownValue                   // body returns the value itself (simulated time)
)

// runProbes runs the whole probe set and returns one value per probeDefs
// entry.
func runProbes() (ledger, error) {
	out := ledger{}
	for _, pr := range probes {
		body, cleanup := pr.prep()
		var vals []float64
		for i := 0; i < probeReps; i++ {
			var m0, m1 runtime.MemStats
			if pr.unit == hostAlloc {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			v := body()
			dt := time.Since(t0)
			switch pr.unit {
			case hostNs:
				v = float64(dt.Nanoseconds()) / v
			case hostAlloc:
				runtime.ReadMemStats(&m1)
				v = float64(m1.Mallocs-m0.Mallocs) / v
			}
			vals = append(vals, v)
		}
		cleanup()
		if probeErr != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, probeErr)
		}
		sort.Float64s(vals)
		out[pr.name] = vals[len(vals)/2]
	}
	return out, nil
}

// probeErr holds the first error a probe body hit; bodies run inside
// simulation processes, so they record instead of returning.
var probeErr error

func probeFail(err error) {
	if err != nil && probeErr == nil {
		probeErr = err
	}
}

// inSim runs fn as one simulation process to completion.
func inSim(env *sim.Env, fn func(p *sim.Proc)) {
	env.Spawn("probe", fn)
	probeFail(env.Run())
}

// --- shared fixtures --------------------------------------------------------

// memBackend serves page reads and writes from in-memory segments with no
// simulated latency.
type memBackend struct {
	segs map[storage.SegID]*storage.Segment
}

func (m *memBackend) ReadPage(_ *sim.Proc, id storage.PageID, dst []byte) error {
	copy(dst, m.segs[id.Seg].Page(id.Page))
	return nil
}

func (m *memBackend) WritePage(_ *sim.Proc, id storage.PageID, src []byte) error {
	copy(m.segs[id.Seg].Page(id.Page), src)
	return nil
}

type memFactory struct{ nextID storage.SegID }

func (f *memFactory) NewSegment(*sim.Proc) (*storage.Segment, error) {
	f.nextID++
	return storage.NewSegment(f.nextID, 4096, 256), nil
}
func (f *memFactory) Pager(seg *storage.Segment) btree.Pager { return btree.MemPager{Seg: seg} }
func (f *memFactory) DropSegment(*sim.Proc, storage.SegID)   {}

type nullDevice struct{}

func (nullDevice) Append(*sim.Proc, int64) {}

var probeSchema = &table.Schema{
	ID: 1, Name: "t", KeyCols: 1,
	Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
}

// world is a one-node engine without device latency: a partition over
// in-memory segments, its own oracle and log.
type world struct {
	env    *sim.Env
	oracle *cc.Oracle
	node   *hw.Node
	log    *wal.Log
	deps   table.Deps
}

func newWorld() *world {
	env := sim.NewEnv(1)
	cal := hw.TestCalibration()
	node := hw.NewNode(env, 1, cal, hw.NewNetwork(env, cal))
	node.ForceActive()
	w := &world{env: env, oracle: cc.NewOracle(), node: node, log: wal.NewLog(env, nullDevice{})}
	w.deps = table.Deps{
		Env: env, Oracle: w.oracle, Locks: cc.NewLockManager(env), Log: w.log,
		Factory: &memFactory{}, LockTimeout: time.Second, PageSize: 4096,
		Compute: node.Compute, CPUPerOp: cal.CPUBTreeOp, CPUPerTuple: cal.CPUTupleScan,
	}
	return w
}

func (w *world) partition(id table.PartID) *table.Partition {
	return table.NewPartition(id, probeSchema, table.Physiological, nil, nil, w.deps)
}

// loaded returns a partition holding rows committed rows.
func (w *world) loaded(rows int) *table.Partition {
	part := w.partition(1)
	inSim(w.env, func(p *sim.Proc) {
		txn := w.oracle.Begin(cc.SnapshotIsolation)
		for i := 0; i < rows; i++ {
			payload, _ := probeSchema.EncodeRow(table.Row{int64(i), "payload"})
			if err := part.Put(p, txn, keycodec.Int64Key(int64(i)), payload); err != nil {
				probeFail(err)
				return
			}
		}
		probeFail(table.CommitTxn(p, txn, part))
	})
	return part
}

// batchSource replays a pre-built batch in vector-sized slices.
type batchSource struct {
	data   *table.Batch
	vector int
	ord    []int
	out    *table.Batch
	pos    int
}

func (s *batchSource) Open(*sim.Proc) error {
	if s.out == nil {
		s.out = table.NewBatch(s.data.Schema)
	}
	s.pos = 0
	return nil
}

func (s *batchSource) Next(*sim.Proc) (*table.Batch, error) {
	if s.pos >= s.data.Len() {
		return nil, nil
	}
	end := min(s.pos+s.vector, s.data.Len())
	s.out.Reset()
	for i := s.pos; i < end; i++ {
		s.out.AppendFrom(s.data, i)
	}
	s.pos = end
	return s.out, nil
}

func (s *batchSource) Close(*sim.Proc) {}
func (s *batchSource) Ordering() []int { return s.ord }

// joinInputs builds a 1024-row left side and an 8192-row right side whose
// keys all match, both in key order.
func joinInputs() (left, right *table.Batch) {
	ls := &table.Schema{ID: 1, Name: "L", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "lv", Type: table.ColFloat64}}}
	rs := &table.Schema{ID: 2, Name: "R", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "rv", Type: table.ColString}}}
	left, right = table.NewBatch(ls), table.NewBatch(rs)
	for i := 0; i < 1024; i++ {
		probeFail(left.AppendRow(table.Row{int64(i), float64(i)}))
	}
	for i := 0; i < 8192; i++ {
		probeFail(right.AppendRow(table.Row{int64(i / 8), "payload"}))
	}
	return left, right
}

// drainProbe times passes full drains of a plan and reports per output row.
func drainProbe(env *sim.Env, plan exec.Operator, passes int) (func() float64, func()) {
	inSim(env, func(p *sim.Proc) { _, err := exec.Drain(p, plan); probeFail(err) }) // warm operator state
	return func() float64 {
		rows := 0
		inSim(env, func(p *sim.Proc) {
			for i := 0; i < passes; i++ {
				n, err := exec.Drain(p, plan)
				probeFail(err)
				rows += n
			}
		})
		return float64(rows)
	}, env.Close
}

// --- the probe set ----------------------------------------------------------

var probes = []probe{
	{name: "sim.probe_wakeup_ns", prep: func() (func() float64, func()) {
		env := sim.NewEnv(1)
		const n = 100_000
		return func() float64 {
			inSim(env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Nanosecond)
				}
			})
			return n
		}, env.Close
	}},
	{name: "buffer.probe_pin_hit_ns", prep: func() (func() float64, func()) {
		env := sim.NewEnv(1)
		seg := storage.NewSegment(1, 4096, 8)
		no, _ := seg.AllocPage()
		pool := buffer.NewPool(env, &memBackend{segs: map[storage.SegID]*storage.Segment{1: seg}}, 4096, 8)
		id := storage.PageID{Seg: 1, Page: no}
		const n = 1_000_000
		return func() float64 {
			inSim(env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					f, err := pool.Pin(p, id)
					if err != nil {
						probeFail(err)
						return
					}
					pool.Unpin(f, false)
				}
			})
			return n
		}, env.Close
	}},
	{name: "btree.probe_get_ns", prep: func() (func() float64, func()) {
		env, tr := probeTree(10_000)
		const n = 100_000
		return func() float64 {
			inSim(env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					_, _, err := tr.Get(p, keycodec.Int64Key(int64(i*7919%10_000)))
					probeFail(err)
				}
			})
			return n
		}, env.Close
	}},
	{name: "btree.probe_put_ns", prep: func() (func() float64, func()) {
		env := sim.NewEnv(1)
		const n = 20_000
		return func() float64 { // a fresh tree per repetition: inserts, not overwrites
			tr := btree.New(btree.MemPager{Seg: storage.NewSegment(1, 4096, 4096)}, 0, nil)
			inSim(env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					_, err := tr.Put(p, keycodec.Int64Key(int64(i*7919%n)), []byte("0123456789abcdef"), 0)
					probeFail(err)
				}
			})
			return n
		}, env.Close
	}},
	{name: "btree.probe_scan_ns_per_row", prep: func() (func() float64, func()) {
		env, tr := probeTree(10_000)
		out := make([]btree.KV, 64)
		return func() float64 {
			rows := 0
			inSim(env, func(p *sim.Proc) {
				c, err := tr.Seek(p, nil)
				if err != nil {
					probeFail(err)
					return
				}
				for pass := 0; pass < 50; pass++ {
					probeFail(c.SeekTo(p, nil))
					for {
						m, err := c.NextBatch(p, out)
						probeFail(err)
						if m == 0 {
							break
						}
						rows += m
					}
				}
			})
			return float64(rows)
		}, env.Close
	}},
	{name: "cc.probe_intent_commit_ns", prep: func() (func() float64, func()) {
		env := sim.NewEnv(1)
		oracle := cc.NewOracle()
		vs := cc.NewVersionStore(env)
		const n = 20_000
		keys := make([]string, n)
		for i := range keys {
			keys[i] = string(keycodec.Int64Key(int64(i)))
		}
		return func() float64 {
			inSim(env, func(p *sim.Proc) {
				for _, key := range keys {
					commitKey(p, oracle, vs, key)
				}
			})
			vs.GC(oracle.Watermark())
			return n
		}, env.Close
	}},
	{name: "cc.probe_changed_since_ns", prep: func() (func() float64, func()) {
		// BenchmarkChangedSince's shape: many quiescent entries, one commit
		// newer than the mover's snapshot and outside the probed range.
		env := sim.NewEnv(1)
		oracle := cc.NewOracle()
		vs := cc.NewVersionStore(env)
		const entries = 20_000
		commit := func(p *sim.Proc, i int) { commitKey(p, oracle, vs, string(keycodec.Int64Key(int64(i)))) }
		inSim(env, func(p *sim.Proc) {
			for i := 0; i < entries; i++ {
				commit(p, i)
			}
		})
		vs.GC(oracle.Watermark())
		mover := oracle.Begin(cc.SnapshotIsolation)
		inSim(env, func(p *sim.Proc) { commit(p, entries) })
		lo, hi := keycodec.Int64Key(0), keycodec.Int64Key(entries/2)
		const n = 200_000
		return func() float64 {
			for i := 0; i < n; i++ {
				if vs.ChangedSince(mover, lo, hi, 0) {
					probeFail(fmt.Errorf("ChangedSince saw a commit outside its range"))
				}
			}
			return n
		}, env.Close
	}},
	{name: "wal.probe_append_ns", prep: func() (func() float64, func()) {
		env := sim.NewEnv(1)
		key := keycodec.Int64Key(42)
		val := []byte("0123456789abcdef0123456789abcdef")
		const n = 100_000
		return func() float64 { // a fresh log per repetition, so retained bytes do not grow
			l := wal.NewLog(env, nullDevice{})
			for i := 0; i < n; i++ {
				l.Append(wal.Record{Type: wal.RecUpdate, Txn: cc.TxnID(i + 1), Part: 1, Key: key, After: val})
			}
			return n
		}, env.Close
	}},
	{name: "wal.probe_replay_ns_per_record", prep: func() (func() float64, func()) {
		w := newWorld()
		const rows = 5000
		w.loaded(rows) // leaves rows update records and a commit in w.log
		next := table.PartID(1)
		return func() float64 {
			redone := 0
			next++
			// The log names partition 1; replay it into a fresh partition.
			target := w.partition(next)
			inSim(w.env, func(p *sim.Proc) {
				n, _, err := wal.Recover(p, w.log.Iter(), map[uint64]wal.Target{1: target})
				probeFail(err)
				redone = n
			})
			return float64(redone)
		}, w.env.Close
	}},
	{name: "table.probe_get_ns", prep: func() (func() float64, func()) {
		w := newWorld()
		part := w.loaded(5000)
		const n = 50_000
		return func() float64 {
			inSim(w.env, func(p *sim.Proc) {
				txn := w.oracle.Begin(cc.SnapshotIsolation)
				for i := 0; i < n; i++ {
					_, _, err := part.Get(p, txn, keycodec.Int64Key(int64(i*7919%5000)))
					probeFail(err)
				}
				w.oracle.Abort(txn)
			})
			return n
		}, w.env.Close
	}},
	{name: "table.probe_put_ns", prep: func() (func() float64, func()) {
		w := newWorld()
		part := w.loaded(5000)
		payload, _ := probeSchema.EncodeRow(table.Row{int64(0), "updated"})
		const n = 5000
		return func() float64 { // one update per txn: put, commit
			inSim(w.env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					txn := w.oracle.Begin(cc.SnapshotIsolation)
					if err := part.Put(p, txn, keycodec.Int64Key(int64(i)), payload); err != nil {
						probeFail(err)
						return
					}
					probeFail(table.CommitTxn(p, txn, part))
				}
				_, err := part.Vacuum(p, w.oracle.Watermark())
				probeFail(err)
			})
			return n
		}, w.env.Close
	}},
	{name: "table.probe_scan_ns_per_row", prep: func() (func() float64, func()) {
		w := newWorld()
		part := w.loaded(5000)
		return func() float64 {
			rows := 0
			inSim(w.env, func(p *sim.Proc) {
				for pass := 0; pass < 20; pass++ {
					txn := w.oracle.Begin(cc.SnapshotIsolation)
					probeFail(part.Scan(p, txn, nil, nil, func(k, v []byte) bool { rows++; return true }))
					w.oracle.Abort(txn)
				}
			})
			return float64(rows)
		}, w.env.Close
	}},
	{name: "exec.probe_scan_agg_ns_per_row", prep: func() (func() float64, func()) {
		w := newWorld()
		part := w.loaded(5000)
		plan := &exec.GroupAgg{
			Child: &exec.TableScan{Part: part, Txn: w.oracle.Begin(cc.SnapshotIsolation), Vector: 64},
			Node:  w.node, GroupCol: 0, SumCol: -1, CPUPerRow: time.Microsecond, Vector: 64,
		}
		inSim(w.env, func(p *sim.Proc) { _, err := exec.Drain(p, plan); probeFail(err) })
		return func() float64 { // per scanned row, not per output group
			inSim(w.env, func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					_, err := exec.Drain(p, plan)
					probeFail(err)
				}
			})
			return 20 * 5000
		}, w.env.Close
	}},
	{name: "exec.probe_hashjoin_ns_per_row", prep: func() (func() float64, func()) {
		w := newWorld()
		left, right := joinInputs()
		return drainProbe(w.env, &exec.HashJoin{
			Build: &batchSource{data: left, vector: 64}, Probe: &batchSource{data: right, vector: 64},
			Node: w.node, BuildKeys: []int{0}, ProbeKeys: []int{0}, CPUPerRow: time.Microsecond, Vector: 64,
		}, 10)
	}},
	{name: "exec.probe_mergejoin_ns_per_row", prep: func() (func() float64, func()) {
		w := newWorld()
		left, right := joinInputs()
		return drainProbe(w.env, &exec.MergeJoin{
			Left:  &batchSource{data: left, vector: 64, ord: []int{0}},
			Right: &batchSource{data: right, vector: 64, ord: []int{0}},
			Node:  w.node, LeftKeys: []int{0}, RightKeys: []int{0}, CPUPerRow: time.Microsecond, Vector: 64,
		}, 10)
	}},
	{name: "exec.probe_exchange_sim_us_per_drain", unit: ownValue, prep: func() (func() float64, func()) {
		// Simulated time one scatter-gather drain of 8192 rows takes over 4
		// partitions on 4 nodes (BenchmarkExchangeParallelScan/parts-4).
		env := sim.NewEnv(1)
		cal := hw.TestCalibration()
		net := hw.NewNetwork(env, cal)
		oracle := cc.NewOracle()
		var plans []exec.Operator
		var parts []*table.Partition
		for i := 0; i < 4; i++ {
			node := hw.NewNode(env, i+1, cal, net)
			node.ForceActive()
			deps := table.Deps{Env: env, Oracle: oracle, Locks: cc.NewLockManager(env),
				Log: wal.NewLog(env, nullDevice{}), Factory: &memFactory{}, LockTimeout: time.Second,
				PageSize: 4096, Compute: node.Compute, CPUPerOp: cal.CPUBTreeOp, CPUPerTuple: cal.CPUTupleScan}
			part := table.NewPartition(table.PartID(i+1), probeSchema, table.Physiological, nil, nil, deps)
			inSim(env, func(p *sim.Proc) {
				load := oracle.Begin(cc.SnapshotIsolation)
				for j := 0; j < 2048; j++ {
					k := int64(i*2048 + j)
					payload, _ := probeSchema.EncodeRow(table.Row{k, "payload"})
					probeFail(part.Put(p, load, keycodec.Int64Key(k), payload))
				}
				probeFail(table.CommitTxn(p, load, part))
			})
			parts = append(parts, part)
		}
		txn := oracle.Begin(cc.SnapshotIsolation)
		for _, part := range parts {
			plans = append(plans, &exec.TableScan{Part: part, Txn: txn, Vector: 64})
		}
		ex := &exec.Exchange{Plans: plans, Env: env}
		inSim(env, func(p *sim.Proc) { _, err := exec.Drain(p, ex); probeFail(err) })
		return func() float64 {
			start := env.Now()
			inSim(env, func(p *sim.Proc) { _, err := exec.Drain(p, ex); probeFail(err) })
			return float64((env.Now() - start).Microseconds())
		}, env.Close
	}},
	{name: "cluster.probe_session_rw_allocs", unit: hostAlloc, prep: func() (func() float64, func()) {
		// Host allocations of one read-write session on a one-node cluster:
		// begin, get, put, commit.
		env := sim.NewEnv(1)
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 1
		c := cluster.New(env, cfg)
		_, err := c.Master.CreateTable(probeSchema, table.Physiological,
			[]cluster.RangeSpec{{Owner: c.Nodes[0]}})
		probeFail(err)
		inSim(env, func(p *sim.Proc) {
			i := 0
			probeFail(c.Master.BulkLoad(p, probeSchema.Name, func() ([]byte, []byte, bool) {
				if i >= 1000 {
					return nil, nil, false
				}
				payload, _ := probeSchema.EncodeRow(table.Row{int64(i), "payload"})
				i++
				return keycodec.Int64Key(int64(i - 1)), payload, true
			}))
		})
		payload, _ := probeSchema.EncodeRow(table.Row{int64(0), "updated"})
		const n = 2000
		return func() float64 {
			inSim(env, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					key := keycodec.Int64Key(int64(i % 1000))
					s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
					_, _, err := s.Get(p, probeSchema.Name, key)
					probeFail(err)
					probeFail(s.Put(p, probeSchema.Name, key, payload))
					probeFail(s.Commit(p))
				}
			})
			return n
		}, env.Close
	}},
	{name: "keycodec.probe_encode_ns", prep: func() (func() float64, func()) {
		schema := &table.Schema{ID: 1, Name: "t", KeyCols: 2,
			Columns: []table.Column{{Name: "w", Type: table.ColInt64}, {Name: "d", Type: table.ColInt64}}}
		buf := make([]byte, 0, 16)
		const n = 2_000_000
		return func() float64 {
			for i := 0; i < n; i++ {
				var err error
				buf, err = schema.AppendKeyPrefix2(buf[:0], int64(i), int64(i+1))
				probeFail(err)
			}
			return n
		}, func() {}
	}},
}

// commitKey writes one key in its own transaction: intent, stage, commit,
// settle.
func commitKey(p *sim.Proc, oracle *cc.Oracle, vs *cc.VersionStore, key string) {
	txn := oracle.Begin(cc.SnapshotIsolation)
	if err := vs.AcquireWriteIntent(p, txn, key, 0, time.Second); err != nil {
		probeFail(err)
		return
	}
	vs.StagePending(txn, key, false, []byte("v"))
	vs.CommitKey(txn, key, nil, oracle.CommitTS(txn))
	oracle.SettleCommit(txn)
}

// probeTree returns a tree of n 16-byte records over an in-memory pager.
func probeTree(n int) (*sim.Env, *btree.Tree) {
	env := sim.NewEnv(1)
	tr := btree.New(btree.MemPager{Seg: storage.NewSegment(1, 4096, 4096)}, 0, nil)
	inSim(env, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			_, err := tr.Put(p, keycodec.Int64Key(int64(i)), []byte("0123456789abcdef"), 0)
			probeFail(err)
		}
	})
	return env, tr
}
