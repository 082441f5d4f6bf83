package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wattdb/internal/buffer"
	"wattdb/internal/cc"
	"wattdb/internal/chbench"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// Retries bounds re-execution after conflicts and lock timeouts, as
// tpcc.Client does: a transaction is attempted 1+retries times.
const retries = 3

// lockTimeout is the cluster's lock and write-intent wait bound — its
// deadlock defence. At the 2 s default of cluster.DefaultConfig two
// transactions that hold each other's write intent park the hot TPC-C rows
// for 2 s and every client queues behind them; a window sees a handful of
// such whole-system stalls, so throughput, joules per transaction and the
// failed share move 10-30 % from seed to seed (measured: tpcc_commit
// 302-373 txn/s over ten seeds, htap_offload 159-296) and no 3-5 % bound
// can be checked. At ~7x the median transaction latency the same deadlocks
// cost 100 ms and throughput repeats within 2 % across seeds.
const lockTimeout = 100 * time.Millisecond

// Analytics operator costs: chbench's own per-row cost and Fig HTAP's
// batch size. At Fig HTAP's 20 us per row a query takes seconds, the
// streams' pace never binds and a window holds some twenty queries.
const (
	analyticsCPUPerRow = 200 * time.Nanosecond
	analyticsVector    = 128
)

// txnRec is one finished OLTP transaction (all attempts).
type txnRec struct {
	start     time.Duration // first attempt start, or due time (kv)
	end       time.Duration
	committed bool
	attempts  int
	conflicts int // attempts ended by cc.ErrWriteConflict
	timeouts  int // attempts ended by cc.ErrLockTimeout
	twoPC     bool
	num       int32    // the trace's transaction number
	id        cc.TxnID // the final attempt's transaction
	commitTS  cc.Timestamp
	bd        *sim.Breakdown // traced runs only
}

type queryRec struct {
	name       string
	start, end time.Duration
	rows       int
}

// counters is one reading of the public counters the per-layer (C) metrics
// are deltas of. Readings are taken from outside the simulation, between
// two RunUntil calls, so they cost no simulated time.
type counters struct {
	kernel   sim.Stats
	logDisk  diskReading
	dataDisk diskReading
	netMsgs  int64
	netBytes int64
	cpuBusy  []float64 // per node
	energy   float64
	pool     buffer.Stats
	tbl      table.Stats
	flushes  []int64 // wal.Log.Flushes per node
	retained int64   // wal.Log.RetainedBytes over all nodes
	follower int     // follower-served reads
}

type diskReading struct {
	reads, writes int64
	bytesW        int64
	busy          float64
}

// run is one execution of a workload at one seed.
type run struct {
	spec  spec
	seed  int64
	env   *sim.Env
	c     *cluster.Cluster
	dep   *tpcc.Deployment // TPC-C workloads
	kv    *kvState         // kv_recover
	tr    *tracer          // nil on plain runs
	stop  bool
	warm  time.Duration
	end   time.Duration
	setup time.Duration // host time of build + load + replication drain

	txns    []txnRec
	queries []queryRec
	nextTxn int32

	// Pool and partition counters die with a crashed node's DRAM; crash()
	// folds the last reading in here so window deltas stay monotone.
	lostPool buffer.Stats
	lostTbl  table.Stats

	migrating     bool
	migStart      time.Duration
	migEnd        time.Duration
	migTable      map[string]time.Duration
	migratedBytes int64
	migrErr       error

	ckpts       []ckptRec
	restarts    []restartRec
	leaderDown  time.Duration // when the scripted leader crash landed
	firstCommit time.Duration // first commit of a txn begun after it
	faultErr    error
	unexpected  error // first transaction error the workload does not explain
	followerGap int   // kv: keys a follower-served scan misses after the run

	before, after counters
	hostWindow    time.Duration
	mallocs       uint64
	allocBytes    uint64
}

type ckptRec struct {
	dur   time.Duration
	pages int
}

type restartRec struct {
	kind string // plain | leader | rebuild
	dur  time.Duration
	rec  cluster.RecoveryStats
}

// build constructs the cluster, loads the data and seeds the replicas. It is
// the part of a run setup_s measures.
func build(s spec, seed int64) (*run, error) {
	t0 := time.Now()
	r := &run{spec: s, seed: seed, warm: s.Warmup, end: s.Warmup + s.Measure,
		migTable: map[string]time.Duration{}}
	r.env = sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = s.Nodes
	cfg.Cal = hw.TestCalibration()
	cfg.Cal.BufferFrames = s.Frames
	cfg.MasterReplicas = s.MasterReplicas
	cfg.DataReplicas = s.DataReplicas
	cfg.LockTimeout = lockTimeout
	r.c = cluster.New(r.env, cfg)
	for _, n := range r.c.Nodes[1:s.Active] {
		n.HW.ForceActive()
	}
	var loadErr error
	if s.Warehouses > 0 {
		tcfg := tpcc.Config{
			Warehouses:           s.Warehouses,
			DistrictsPerW:        districtsPerW,
			CustomersPerDistrict: customersPerDistrict,
			Items:                items,
			InitialOrdersPerDist: initialOrdersPerDist,
			Seed:                 seed,
		}
		W := s.Warehouses
		dep, err := tpcc.Deploy(r.c.Master, tcfg, table.Physiological, []tpcc.WarehouseRange{
			{FromW: 1, ToW: W / 2, Owner: r.c.Nodes[0]},
			{FromW: W/2 + 1, ToW: W, Owner: r.c.Nodes[1]},
		}, r.c.Nodes)
		if err != nil {
			return nil, err
		}
		r.dep = dep
		r.env.Spawn("load", func(p *sim.Proc) { loadErr = dep.Load(p) })
	} else {
		kv, err := newKV(r.c, s.KVKeys)
		if err != nil {
			return nil, err
		}
		r.kv = kv
		r.env.Spawn("load", func(p *sim.Proc) { loadErr = kv.load(p, r.c.Master) })
	}
	if err := r.env.Run(); err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	r.c.SetupReplicationDrain()
	r.setup = time.Since(t0)
	return r, nil
}

// execute runs a built workload: spawn the load and the daemons, warm up,
// measure the window from outside, then stop the clients and drain.
func (r *run) execute() error {
	s := r.spec
	if s.Warehouses > 0 {
		for i := 0; i < s.Clients; i++ {
			r.spawnTPCCClient(i)
		}
	} else {
		for i := 0; i < s.Clients; i++ {
			r.spawnKVWorker(i)
		}
	}
	for q := 0; q < s.Analytics; q++ {
		r.spawnAnalytics(q)
	}
	r.spawnDaemons()
	if s.Rebalance {
		r.spawnRebalance()
	}
	if s.Faults {
		r.spawnFaults()
	}
	r.c.Meter.Start()

	if err := r.env.RunUntil(r.warm); err != nil {
		return err
	}
	r.before = r.read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h0 := time.Now()
	if err := r.env.RunUntil(r.end); err != nil {
		return err
	}
	r.hostWindow = time.Since(h0)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.after = r.read()

	// Drain: clients finish the transaction in flight and exit; a migration
	// or restart still running completes.
	r.stop = true
	for deadline := r.end + 60*time.Second; r.env.Now() < deadline; {
		if err := r.env.RunUntil(r.env.Now() + time.Second); err != nil {
			return err
		}
		if !r.busy() {
			break
		}
	}
	switch {
	case r.unexpected != nil:
		return r.unexpected
	case r.migrErr != nil:
		return fmt.Errorf("migration: %w", r.migrErr)
	case r.faultErr != nil:
		return fmt.Errorf("fault script: %w", r.faultErr)
	case r.busy():
		return errors.New("drain: migration or restart still running 60 s after the window")
	}
	return nil
}

// busy reports whether scripted background work is still in flight.
func (r *run) busy() bool {
	if r.migrating {
		return true
	}
	for _, n := range r.c.Nodes {
		if n.Down() {
			return true
		}
	}
	return r.spec.Faults && len(r.restarts) < len(faultKinds)
}

// close releases the run's goroutines.
func (r *run) close() { r.env.Close() }

// --- counters ---------------------------------------------------------------

func (r *run) read() counters {
	c := r.c
	// Integrate energy up to this instant, not the meter's last 1 s tick.
	c.Meter.Sample()
	out := counters{kernel: r.env.Stats(), energy: c.Meter.EnergyJoules(),
		pool: r.lostPool, tbl: r.lostTbl}
	_, _, out.follower, _ = c.ReplicationStats()
	for _, n := range c.Nodes {
		addDisk(&out.logDisk, n.HW.LogDisk())
		for _, d := range n.HW.DataDisks() {
			addDisk(&out.dataDisk, d)
		}
		out.netMsgs += c.Net.Messages(n.ID)
		out.netBytes += c.Net.BytesSent(n.ID)
		out.cpuBusy = append(out.cpuBusy, n.HW.CPU.BusyIntegral())
		out.flushes = append(out.flushes, n.Log.Flushes)
		out.retained += n.Log.RetainedBytes()
		addPool(&out.pool, n.Pool.Stats())
		for _, pt := range n.Parts {
			addTable(&out.tbl, pt.Stats())
		}
	}
	return out
}

func addDisk(into *diskReading, d *hw.Disk) {
	rd, wr := d.Ops()
	_, bw := d.Bytes()
	into.reads += rd
	into.writes += wr
	into.bytesW += bw
	into.busy += d.BusyIntegral()
}

func addPool(into *buffer.Stats, s buffer.Stats) {
	into.Hits += s.Hits
	into.Misses += s.Misses
	into.Evictions += s.Evictions
	into.Flushes += s.Flushes
	into.LatchWaits += s.LatchWaits
}

func addTable(into *table.Stats, s table.Stats) {
	into.Reads += s.Reads
	into.Writes += s.Writes
	into.ScannedTuples += s.ScannedTuples
	into.Commits += s.Commits
	into.Aborts += s.Aborts
}

// --- TPC-C clients ----------------------------------------------------------

// spawnTPCCClient is tpcc.Client's loop, seeded identically, owned by the
// benchmark so it can stamp spans around the calls into the cluster layer.
func (r *run) spawnTPCCClient(id int) {
	rng := rand.New(rand.NewSource(r.dep.Cfg.Seed*7919 + int64(id)))
	r.env.Spawn(fmt.Sprintf("client-%d", id), func(p *sim.Proc) {
		if r.spec.Interval > 0 {
			p.Sleep(time.Duration(rng.Int63n(int64(r.spec.Interval))))
		}
		for !r.stop {
			start := p.Now()
			typ := tpcc.PickTxn(rng)
			w := 1 + rng.Intn(r.dep.Cfg.Warehouses)
			home := r.homeOf(w)
			r.transact(p, rng, start, home, false, func(sess *cluster.Session) error {
				return r.dep.Exec(p, sess, typ, w, rng)
			})
			if think := r.spec.Interval - (p.Now() - start); think > 0 {
				p.Sleep(think)
			}
		}
	})
}

// homeOf resolves the node owning warehouse w through the master's
// partition table, so clients follow a migration.
func (r *run) homeOf(w int) *cluster.DataNode {
	tm, err := r.c.Master.Table(tpcc.TWarehouse)
	if err != nil {
		return r.c.Master.Node
	}
	e, err := tm.Route(keycodec.Int64Key(int64(w)))
	if err != nil {
		return r.c.Master.Node
	}
	return e.Owner
}

// isRefusal reports whether err is how the cluster refuses work during an
// outage: a participant or the coordinator is down, or a recovered partition
// no longer holds the snapshot.
func isRefusal(err error) bool {
	var (
		node cluster.ErrNodeDown
		mast cluster.ErrMasterDown
		part table.ErrPartitionDown
		snap table.ErrSnapshotTooOld
	)
	return errors.As(err, &node) || errors.As(err, &mast) || errors.As(err, &part) || errors.As(err, &snap)
}

// transact runs one transaction with retries: begin, body, commit, each
// under a span on traced runs. It records the transaction and returns the
// record. twoPC says whether the caller knows the commit to be two-phase
// (TPC-C cannot tell beforehand; markTwoPhase finds out afterwards).
func (r *run) transact(p *sim.Proc, rng *rand.Rand, start time.Duration, home *cluster.DataNode,
	twoPC bool, body func(sess *cluster.Session) error) txnRec {
	txn := r.nextTxn
	r.nextTxn++
	rec := txnRec{start: start, num: txn, twoPC: twoPC}
	root := r.tr.open(spanTxn, txn, noSpan, start)
	if r.tr != nil {
		rec.bd = &sim.Breakdown{}
		p.Breakdown = rec.bd
	}
	refused := false
	for rec.attempts <= retries {
		rec.attempts++
		sp := r.tr.open(spanBegin, txn, root, p.Now())
		sess := r.c.Master.Begin(p, cc.SnapshotIsolation, home)
		r.tr.close(sp, p.Now())
		rec.id = sess.Txn.ID
		begun := p.Now()

		sp = r.tr.open(spanExec, txn, root, p.Now())
		err := body(sess)
		r.tr.close(sp, p.Now())
		if err == nil {
			sp = r.tr.open(spanCommit, txn, root, p.Now())
			err = sess.Commit(p)
			r.tr.close(sp, p.Now())
			if err != nil {
				r.tr.fail(sp)
			}
		}
		if err == nil {
			rec.committed, rec.commitTS = true, sess.Txn.Commit
			if r.leaderDown > 0 && r.firstCommit == 0 && begun > r.leaderDown {
				r.firstCommit = p.Now()
			}
			break
		}
		sess.Abort(p)
		switch {
		case errors.Is(err, cc.ErrWriteConflict):
			rec.conflicts++
		case errors.Is(err, cc.ErrLockTimeout):
			rec.timeouts++
		default:
			// Refused: a node or the coordinator is down. Only the fault
			// script explains that; anywhere else the run is wrong.
			refused = true
			if !(r.spec.Faults && isRefusal(err)) && r.unexpected == nil {
				r.unexpected = fmt.Errorf("transaction %d at %v: %w", txn, p.Now(), err)
			}
		}
		if refused {
			break
		}
		p.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
	}
	p.Breakdown = nil
	rec.end = p.Now()
	r.tr.close(root, rec.end)
	r.txns = append(r.txns, rec)
	return rec
}

// --- analytics streams ------------------------------------------------------

// spawnAnalytics runs one chbench stream homed on spare node 2 with the
// follower-read hint: the suite's plans round-robin, one per QueryPace, so
// the amount of host work does not grow when queries get faster.
func (r *run) spawnAnalytics(q int) {
	home := r.c.Nodes[2]
	runner := &chbench.Runner{Dep: r.dep, Node: home.HW, CPUPerRow: analyticsCPUPerRow, Vector: analyticsVector}
	suite := runner.Queries()
	r.env.Spawn(fmt.Sprintf("analytics-%d", q), func(p *sim.Proc) {
		// Streams start half a pace apart and walk the suite from different
		// offsets so the two never run the same plan at the same instant.
		p.Sleep(time.Duration(q) * r.spec.QueryPace / time.Duration(r.spec.Analytics))
		for i := q * len(suite) / r.spec.Analytics; !r.stop; i++ {
			start := p.Now()
			query := suite[i%len(suite)]
			sp := r.tr.open(spanQuery, r.nextTxn, noSpan, start)
			r.nextTxn++
			sess := r.c.Master.Begin(p, cc.SnapshotIsolation, home)
			sess.PreferFollower = true
			rows, err := exec.Drain(p, query.Plan(sess))
			sess.Abort(p)
			r.tr.close(sp, p.Now())
			if err == nil {
				r.queries = append(r.queries, queryRec{name: query.Name, start: start, end: p.Now(), rows: rows})
			}
			if think := r.spec.QueryPace - (p.Now() - start); think > 0 {
				p.Sleep(think)
			}
		}
	})
}

// --- daemons ----------------------------------------------------------------

func (r *run) spawnDaemons() {
	s := r.spec
	if s.ShipDrain > 0 {
		r.env.Spawn("ship-drain", func(p *sim.Proc) {
			for !r.stop {
				p.Sleep(s.ShipDrain)
				sp := r.tr.open(spanShipDrain, noTxn, noSpan, p.Now())
				r.c.DrainShipQueues(p)
				r.tr.close(sp, p.Now())
			}
		})
	}
	if s.Vacuum > 0 {
		for _, n := range r.c.Nodes[:4] {
			n.StartVacuum(s.Vacuum)
		}
	}
	if s.Checkpoint > 0 {
		for _, n := range r.c.Nodes {
			n := n
			r.env.Spawn(fmt.Sprintf("ckpt-%d", n.ID), func(p *sim.Proc) {
				for !r.stop {
					p.Sleep(s.Checkpoint)
					if n.Down() || n.DiskLost() {
						continue
					}
					start := p.Now()
					sp := r.tr.open(spanCkpt, noTxn, noSpan, start)
					st, err := r.c.CheckpointNode(p, n, 0)
					r.tr.close(sp, p.Now())
					if err != nil {
						r.faultErr = fmt.Errorf("checkpoint node %d: %w", n.ID, err)
						return
					}
					if st.EndLSN != 0 && start >= r.warm && p.Now() < r.end {
						r.ckpts = append(r.ckpts, ckptRec{dur: p.Now() - start, pages: st.Flushed})
					}
				}
			})
		}
	}
}

// --- rebalance (Sect. 5.1 / Fig 6) ------------------------------------------

// spawnRebalance boots nodes 2,3 at the window start and moves the upper
// half of each owner's warehouses — 50 % of every partitioned table — onto
// them, as experiments.RunTimeline does.
func (r *run) spawnRebalance() {
	c, env := r.c, r.env
	env.Spawn("rebalance", func(p *sim.Proc) {
		p.Sleep(r.warm)
		r.migrating = true
		r.migStart = p.Now()
		ready := sim.NewSignal(env)
		pending := 2
		for _, n := range c.Nodes[2:4] {
			n := n
			env.Spawn("boot", func(bp *sim.Proc) {
				n.PowerOn(bp)
				pending--
				if pending == 0 {
					ready.Fire()
				}
			})
		}
		for pending > 0 {
			ready.Wait(p)
		}
		W := int64(r.spec.Warehouses)
		q1 := keycodec.Int64Key(W/4 + 1)
		q2 := keycodec.Int64Key(W/2 + 1)
		q3 := keycodec.Int64Key(3*W/4 + 1)
		for _, tbl := range tpcc.PartitionedTables() {
			for _, mv := range []struct {
				lo, hi []byte
				dst    *cluster.DataNode
			}{{q1, q2, c.Nodes[2]}, {q3, nil, c.Nodes[3]}} {
				start := p.Now()
				sp := r.tr.open(spanMigrate, noTxn, noSpan, start)
				err := c.Master.MigrateRangeFraction(p, tbl, mv.lo, mv.hi, 0.5, mv.dst)
				r.tr.close(sp, p.Now())
				if err != nil {
					r.migrErr = fmt.Errorf("%s -> node %d: %w", tbl, mv.dst.ID, err)
					r.migrating = false
					return
				}
				r.migTable[tbl] += p.Now() - start
			}
		}
		r.migEnd = p.Now()
		r.migrating = false
		for _, n := range c.Nodes[2:4] {
			for _, pt := range n.Parts {
				if pt.Replica {
					continue
				}
				for _, h := range pt.Segments() {
					r.migratedBytes += h.Seg.UsedBytes()
				}
			}
		}
	})
}

// --- scripted faults (kv_recover) -------------------------------------------

// crash power-fails n after folding its volatile counters into the run.
func (r *run) crash(n *cluster.DataNode, destroy bool) {
	addPool(&r.lostPool, n.Pool.Stats())
	for _, pt := range n.Parts {
		addTable(&r.lostTbl, pt.Stats())
	}
	if destroy {
		r.c.DestroyDisk(n)
	} else {
		r.c.CrashNode(n)
	}
}

var faultKinds = [...]string{"plain", "leader", "rebuild"}

// spawnFaults runs the three outages: a plain crash of node 1, a crash of
// the seated coordinator, and a crash of node 1 that also destroys its disk
// (rebuild from replicas). Each victim restarts faultDowntime later.
func (r *run) spawnFaults() {
	r.env.Spawn("faults", func(p *sim.Proc) {
		for i, kind := range faultKinds {
			at := r.warm + time.Duration(float64(r.spec.Measure)*faultAt[i])
			if wait := at - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			n := r.c.Nodes[1]
			if kind == "leader" {
				n = r.c.Nodes[r.c.Master.LeaderID()]
				r.leaderDown = p.Now()
			}
			if n.Down() {
				r.faultErr = fmt.Errorf("%s fault: node %d is still down from the previous outage", kind, n.ID)
				return
			}
			r.crash(n, kind == "rebuild")
			p.Sleep(faultDowntime)
			start := p.Now()
			sp := r.tr.open(spanRestart, noTxn, noSpan, start)
			_, _, err := r.c.RestartNode(p, n)
			r.tr.close(sp, p.Now())
			if err != nil {
				r.faultErr = fmt.Errorf("%s restart of node %d: %w", kind, n.ID, err)
				return
			}
			r.restarts = append(r.restarts, restartRec{kind: kind, dur: p.Now() - start, rec: n.LastRecovery})
		}
	})
}
