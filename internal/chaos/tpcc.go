package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// RunTPCC executes one chaos run over the TPC-C workload: clients drive the
// five transactions against a warehouse-partitioned deployment while the
// seeded fault plan power-fails nodes (anywhere, including mid-commit),
// stalls disks, spikes the network, and migrates warehouse ranges between
// nodes. An oracle applies every acknowledged transaction's Effect to an
// in-memory model and checks the TPC-C consistency invariants at the end:
//
//   - W_YTD = 300000 + Σ acknowledged payments, and equals the sum of its
//     districts' D_YTD (cross-row consistency within a warehouse);
//   - D_NEXT_O_ID advanced exactly past the acknowledged NewOrders, whose
//     ORDERS rows exist with their order-line counts — and no others
//     (NewOrder atomicity across partitions: district, orders, new_order,
//     order_line, and possibly remote stock commit or vanish together);
//   - NEW_ORDER holds exactly the undelivered orders (initial + acknowledged
//     NewOrders − acknowledged Deliveries);
//   - every touched STOCK row carries the summed quantities, order counts,
//     and remote counts of the acknowledged order lines that hit it.
//
// The same determinism contract as the KV harness applies: one seed → one
// fault schedule → one state hash.
func RunTPCC(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv(cfg.Seed)
	defer env.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = cfg.Nodes
	ccfg.MasterReplicas = 2
	ccfg.DataReplicas = 2
	c := cluster.New(env, ccfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}

	// A trimmed TPC-C keeps the run fast while preserving every access
	// path; four warehouses split two nodes, with spare nodes as migration
	// targets. Districts stay at the spec's 10 because the load's base
	// values encode W_YTD = 10 × D_YTD — the very invariant the oracle
	// checks.
	tcfg := tpcc.Config{
		Warehouses:           4,
		DistrictsPerW:        10,
		CustomersPerDistrict: 30,
		Items:                100,
		InitialOrdersPerDist: 30,
		Seed:                 cfg.Seed,
	}
	h := &tpccHarness{
		cfg:    cfg,
		tcfg:   tcfg,
		env:    env,
		c:      c,
		master: c.Master,
		stopAt: cfg.Duration,
		rep:    &Report{Seed: cfg.Seed, Scheme: cfg.Scheme},
		model:  newTPCCModel(tcfg),
	}
	dep, err := tpcc.Deploy(c.Master, tcfg, cfg.Scheme, []tpcc.WarehouseRange{
		{FromW: 1, ToW: 2, Owner: c.Nodes[0]},
		{FromW: 3, ToW: tcfg.Warehouses, Owner: c.Nodes[1]},
	}, c.Nodes)
	if err != nil {
		return h.rep, err
	}
	dep.RecordEffects = true
	h.dep = dep
	var loadErr error
	env.Spawn("tpcc-chaos-load", func(p *sim.Proc) { loadErr = dep.Load(p) })
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	if loadErr != nil {
		return h.rep, loadErr
	}
	c.SetupReplicationDrain()

	for w := 0; w < cfg.Workers; w++ {
		h.spawnWorker(w)
	}
	for q := 0; q < cfg.HTAP; q++ {
		h.spawnAnalytics(q)
	}
	spawnReplicationDaemons(env, c, &h.stop)
	spawnCheckpointers(env, c, &h.stop)
	h.runner().spawnExecutor(buildTPCCPlan(cfg, tcfg))

	if err := env.RunUntil(cfg.Duration); err != nil {
		return h.rep, err
	}
	h.stop = true
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	for _, n := range c.Nodes {
		if n.Down() {
			node := n
			env.Spawn("tpcc-chaos-final-restart", func(p *sim.Proc) {
				if _, _, err := c.RestartNode(p, node); err != nil {
					h.violate(fmt.Sprintf("final restart of node %d: %v", node.ID, err))
					return
				}
				h.rep.Restarts++
				noteRecovery(h.rep, h.violate, node)
			})
		}
	}
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	finalReplicationSweep(env, c, h.violate)
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	h.rep.Rebuilds, h.rep.ScrubRepairs, h.rep.FollowerReads, h.rep.DiskLosses = c.ReplicationStats()
	h.rep.DepWaits, h.rep.DepLost = c.DepWaits, c.DepLost
	for _, n := range c.Nodes {
		h.rep.Checkpoints += n.Checkpoints
	}

	// Coordinator-failover oracles (same contract as the KV harness).
	if c.Master.Fenced() {
		h.violate("coordinator still fenced after drain (no leader elected)")
	}
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		h.violate(fmt.Sprintf("decision map leak: %d commit decisions never fully acknowledged", n))
	}
	h.rep.Failovers = c.Master.Failovers()

	h.model.settle(h.violate)
	finalState := h.finalCheck()
	for _, name := range tpcc.PartitionedTables() {
		h.checkTableRanges(name)
	}
	h.rep.SimTime = env.Now()
	h.rep.StateHash = stateHash(h.rep, finalState)
	return h.rep, nil
}

type tpccHarness struct {
	cfg    Config
	tcfg   tpcc.Config
	env    *sim.Env
	c      *cluster.Cluster
	master *cluster.Master
	dep    *tpcc.Deployment
	model  *tpccModel

	stop   bool
	stopAt time.Duration
	rep    *Report
}

func (h *tpccHarness) violate(msg string) {
	if len(h.rep.Violations) < maxViolations {
		h.rep.Violations = append(h.rep.Violations, msg)
	}
}

func (h *tpccHarness) logFault(format string, args ...interface{}) {
	h.rep.Faults = append(h.rep.Faults,
		fmt.Sprintf("t=%7.3fs  ", h.env.Now().Seconds())+fmt.Sprintf(format, args...))
}

// homeFor picks the session home for warehouse w: its owning node when
// powered, otherwise any alive node (remote execution pays the network).
func (h *tpccHarness) homeFor(w int, rng *rand.Rand) *cluster.DataNode {
	if tm, err := h.master.Table(tpcc.TWarehouse); err == nil {
		if e, err := tm.Route(keycodec.Int64Key(int64(w))); err == nil {
			if !e.Owner.Down() && e.Owner.HW.State() == hwActive {
				return e.Owner
			}
		}
	}
	var alive []*cluster.DataNode
	for _, n := range h.c.Nodes {
		if !n.Down() && n.HW.State() == hwActive {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	return alive[rng.Intn(len(alive))]
}

func (h *tpccHarness) spawnWorker(w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + int64(w)))
	h.env.Spawn(fmt.Sprintf("tpcc-chaos-worker-%d", w), func(p *sim.Proc) {
		p.Sleep(time.Duration(w) * 3 * time.Millisecond) // desynchronize
		for !h.stop && p.Now() < h.stopAt {
			wh := 1 + rng.Intn(h.tcfg.Warehouses)
			home := h.homeFor(wh, rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			typ := tpcc.PickTxn(rng)
			sess := h.master.Begin(p, ccSnapshot, home)
			err := h.dep.Exec(p, sess, typ, wh, rng)
			switch {
			case err != nil:
				h.dep.TakeEffect(sess.Txn.ID)
				sess.Abort(p)
				h.rep.FailedOps++
			case typ == tpcc.TxnOrderStatus || typ == tpcc.TxnStockLevel:
				// Read-only: nothing to acknowledge, but the reads are only
				// final once the commits they covered are settled.
				h.dep.TakeEffect(sess.Txn.ID)
				if sess.Commit(p) != nil {
					sess.Abort(p)
					h.rep.FailedOps++
					break
				}
				h.rep.Reads++
			default:
				if cerr := sess.Commit(p); cerr != nil {
					h.dep.TakeEffect(sess.Txn.ID)
					sess.Abort(p)
					h.rep.Aborts++
					break
				}
				// Acknowledged: fold the effect into the model before any
				// further blocking call.
				h.model.apply(h.dep.TakeEffect(sess.Txn.ID), h.violate)
				h.rep.Commits++
			}
			p.Sleep(time.Duration(2+rng.Intn(6)) * time.Millisecond)
		}
	})
}

// spawnAnalytics starts one HTAP reader over the TPC-C schema: each query
// picks a random district and runs the order/order-line/new-order scans of
// a CH-style aggregate inside one snapshot. The cumulative model cannot
// time-align a mid-run snapshot, so the reader checks the invariants that
// must hold *within* any single snapshot regardless of what has committed:
// every visible order id is below the district's D_NEXT_O_ID, every
// visible order's ORDER_LINE count equals its O_OL_CNT (a torn NewOrder is
// visible otherwise), and every NEW_ORDER entry references a visible
// order. Even-numbered readers set the PreferFollower offloading hint so
// replica snapshot reads run under the fault plan.
func (h *tpccHarness) spawnAnalytics(q int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*2_000_003 + int64(q)))
	h.env.Spawn(fmt.Sprintf("tpcc-chaos-htap-%d", q), func(p *sim.Proc) {
		p.Sleep(time.Duration(7+5*q) * time.Millisecond) // desynchronize
		for !h.stop && p.Now() < h.stopAt {
			w := 1 + rng.Intn(h.tcfg.Warehouses)
			d := 1 + rng.Intn(h.tcfg.DistrictsPerW)
			home := h.homeFor(w, rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			s := h.master.Begin(p, ccSnapshot, home)
			s.PreferFollower = q%2 == 0
			var broken []string
			rows, ok := h.analyticsQuery(p, s, int64(w), int64(d), func(msg string) { broken = append(broken, msg) })
			if ok && s.Commit(p) == nil {
				for _, msg := range broken {
					h.violate(msg)
				}
				h.rep.AnalyticsQueries++
				h.rep.AnalyticsRows += rows
			} else {
				s.Abort(p)
				h.rep.FailedOps++
			}
			p.Sleep(time.Duration(40+rng.Intn(60)) * time.Millisecond)
		}
	})
}

// analyticsQuery runs one district's snapshot aggregate and checks its
// internal invariants. It returns the rows it read, and false when a fault
// aborted the query (down node, timeout) — invariant breaks go through
// violate instead, which the caller holds back until the session's Commit has
// made the reads final.
func (h *tpccHarness) analyticsQuery(p *sim.Proc, s *cluster.Session, w, d int64, violate func(string)) (int64, bool) {
	dS := h.dep.Schemas[tpcc.TDistrict]
	oS := h.dep.Schemas[tpcc.TOrders]
	olS := h.dep.Schemas[tpcc.TOrderLine]
	noS := h.dep.Schemas[tpcc.TNewOrder]

	dKey, err := dS.EncodeKeyPrefix(w, d)
	if err != nil {
		violate(fmt.Sprintf("htap: district key [%d,%d]: %v", w, d, err))
		return 0, false
	}
	raw, ok, err := s.Get(p, tpcc.TDistrict, dKey)
	if err != nil || !ok {
		return 0, false
	}
	dRow, derr := dS.DecodeRow(raw)
	if derr != nil {
		violate(fmt.Sprintf("htap@%v district[%d,%d]: undecodable row: %v", p.Now(), w, d, derr))
		return 0, false
	}
	nextO := dRow[5].(int64)
	rows := int64(1)

	lo, _ := oS.EncodeKeyPrefix2(w, d)
	hi, _ := oS.EncodeKeyPrefix2(w, d+1)
	olCnt := map[int64]int64{} // visible orders -> O_OL_CNT
	err = s.Scan(p, tpcc.TOrders, lo, hi, func(_, payload []byte) bool {
		row, derr := oS.DecodeRow(payload)
		if derr != nil {
			violate(fmt.Sprintf("htap@%v orders[%d,%d]: undecodable row: %v", p.Now(), w, d, derr))
			return false
		}
		o := row[2].(int64)
		if o >= nextO {
			violate(fmt.Sprintf("htap@%v orders[%d,%d] snap %d: order %d visible but D_NEXT_O_ID=%d",
				p.Now(), w, d, s.Txn.Begin, o, nextO))
		}
		if _, dup := olCnt[o]; dup {
			violate(fmt.Sprintf("htap@%v orders[%d,%d] snap %d: order %d returned twice (doubly owned)",
				p.Now(), w, d, s.Txn.Begin, o))
		}
		olCnt[o] = row[6].(int64)
		rows++
		return true
	})
	if err != nil {
		return 0, false
	}

	olLo, _ := olS.EncodeKeyPrefix2(w, d)
	olHi, _ := olS.EncodeKeyPrefix2(w, d+1)
	lineCount := map[int64]int64{}
	err = s.Scan(p, tpcc.TOrderLine, olLo, olHi, func(_, payload []byte) bool {
		row, derr := olS.DecodeRow(payload)
		if derr != nil {
			violate(fmt.Sprintf("htap@%v order_line[%d,%d]: undecodable row: %v", p.Now(), w, d, derr))
			return false
		}
		lineCount[row[2].(int64)]++
		rows++
		return true
	})
	if err != nil {
		return 0, false
	}
	orderIDs := make([]int64, 0, len(olCnt))
	for o := range olCnt {
		orderIDs = append(orderIDs, o)
	}
	sortInt64s(orderIDs)
	for _, o := range orderIDs {
		if got, want := lineCount[o], olCnt[o]; got != want {
			violate(fmt.Sprintf("htap@%v order_line[%d,%d] snap %d: order %d has %d lines, O_OL_CNT=%d (torn NewOrder visible)",
				p.Now(), w, d, s.Txn.Begin, o, got, want))
		}
	}
	lineIDs := make([]int64, 0, len(lineCount))
	for o := range lineCount {
		lineIDs = append(lineIDs, o)
	}
	sortInt64s(lineIDs)
	for _, o := range lineIDs {
		if _, ok := olCnt[o]; !ok {
			violate(fmt.Sprintf("htap@%v order_line[%d,%d] snap %d: %d lines for order %d with no ORDERS row",
				p.Now(), w, d, s.Txn.Begin, lineCount[o], o))
		}
	}

	noLo, _ := noS.EncodeKeyPrefix2(w, d)
	noHi, _ := noS.EncodeKeyPrefix2(w, d+1)
	err = s.Scan(p, tpcc.TNewOrder, noLo, noHi, func(_, payload []byte) bool {
		row, derr := noS.DecodeRow(payload)
		if derr != nil {
			violate(fmt.Sprintf("htap@%v new_order[%d,%d]: undecodable row: %v", p.Now(), w, d, derr))
			return false
		}
		o := row[2].(int64)
		if _, ok := olCnt[o]; !ok {
			violate(fmt.Sprintf("htap@%v new_order[%d,%d] snap %d: pending order %d has no ORDERS row",
				p.Now(), w, d, s.Txn.Begin, o))
		}
		rows++
		return true
	})
	if err != nil {
		return 0, false
	}
	return rows, true
}

// buildTPCCPlan derives the fault schedule from the seed alone. Every plan
// migrates warehouse 2 off node 0 and power-fails the migration target while
// the move is in flight, plus cfg.Faults random crash/stall/spike/migrate
// events.
func buildTPCCPlan(cfg Config, tcfg tpcc.Config) []faultEvent {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x79cc_c0de_79cc_c0de))
	window := cfg.Duration
	var plan []faultEvent

	migAt := window/3 + time.Duration(rng.Int63n(int64(window/6)))
	target := 2 // first node without initial data
	plan = append(plan, faultEvent{at: migAt, kind: faultMigrate, loK: 2, hiK: 3, target: target})
	plan = append(plan, faultEvent{
		at:   migAt + 30*time.Millisecond + time.Duration(rng.Int63n(int64(120*time.Millisecond))),
		kind: faultCrash,
		node: target,
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	})
	// Every plan also power-fails the coordinator during the migration window
	// plus cfg.CoordFaults more times at random instants (see buildPlan).
	plan = append(plan, faultEvent{
		at:   migAt + 40*time.Millisecond + time.Duration(rng.Int63n(int64(150*time.Millisecond))),
		kind: faultCrashCoord,
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	})
	for i := 0; i < cfg.CoordFaults; i++ {
		plan = append(plan, faultEvent{
			at:   window/10 + time.Duration(rng.Int63n(int64(window*8/10))),
			kind: faultCrashCoord,
			dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
		})
	}
	// Guaranteed log-medium damage on the warehouse-hosting nodes: one torn
	// final frame, one bit-flipped boundary frame (see tornCrashEvents).
	plan = append(plan, tornCrashEvents(rng, window, 2)...)
	// Guaranteed full-disk-loss + acked-history-rot pairs (see buildPlan).
	for i := 0; i < cfg.DiskFaults; i++ {
		plan = append(plan, diskFaultEvents(rng, window, cfg.Nodes)...)
	}
	// Guaranteed mid-checkpoint power failures (see buildPlan).
	plan = append(plan, ckptCrashEvents(rng, window, cfg.Nodes, cfg.CkptFaults)...)
	for i := 0; i < cfg.Faults; i++ {
		at := window/10 + time.Duration(rng.Int63n(int64(window*8/10)))
		switch rng.Intn(8) {
		case 0:
			plan = append(plan, faultEvent{at: at, kind: faultCrash, node: rng.Intn(cfg.Nodes),
				dur: 12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second)))})
		case 4:
			plan = append(plan, tornCrash(rng, at, faultCrashTorn, cfg.Nodes))
		case 5:
			plan = append(plan, tornCrash(rng, at, faultCrashFlip, cfg.Nodes))
		case 1:
			plan = append(plan, faultEvent{at: at, kind: faultDiskStall, node: rng.Intn(cfg.Nodes),
				disk: rng.Intn(3), extra: time.Duration(2+rng.Intn(8)) * time.Millisecond,
				dur: time.Duration(3+rng.Intn(5)) * time.Second})
		case 2:
			plan = append(plan, faultEvent{at: at, kind: faultNetSpike,
				extra: time.Duration(1+rng.Intn(4)) * time.Millisecond,
				dur:   time.Duration(2+rng.Intn(4)) * time.Second})
		case 3:
			// Move the last warehouse to the last node.
			plan = append(plan, faultEvent{at: at, kind: faultMigrate,
				loK: int64(tcfg.Warehouses), hiK: int64(tcfg.Warehouses) + 1, target: cfg.Nodes - 1})
		case 6:
			plan = append(plan, destroyDisk(rng, at, cfg.Nodes))
		case 7:
			plan = append(plan, rotAcked(rng, at, cfg.Nodes))
		}
	}
	// Drawn last, so that every event above is what it was before plans
	// carried this one.
	plan = append(plan, depCrashEvent(rng, window))
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// runner wires the TPC-C harness into the shared fault executor; its
// migrations move the warehouse range of every partitioned table.
func (h *tpccHarness) runner() *faultRunner {
	return &faultRunner{
		env:      h.env,
		c:        h.c,
		rep:      h.rep,
		logFault: h.logFault,
		violate:  h.violate,
		migrate: func(ev faultEvent, done func()) {
			h.env.Spawn("tpcc-chaos-migrate", func(mp *sim.Proc) {
				h.logFault("migration w[%d,%d) -> node %d starting", ev.loK, ev.hiK, ev.target)
				lo, hi := keycodec.Int64Key(ev.loK), keycodec.Int64Key(ev.hiK)
				failed := false
				for _, name := range tpcc.PartitionedTables() {
					if err := h.master.MigrateRange(mp, name, lo, hi, h.c.Nodes[ev.target]); err != nil {
						h.logFault("migration w[%d,%d) table %s aborted: %v", ev.loK, ev.hiK, name, err)
						failed = true
						break
					}
				}
				if !failed {
					h.logFault("migration w[%d,%d) -> node %d complete", ev.loK, ev.hiK, ev.target)
				}
				done()
			})
		},
	}
}

// checkTableRanges verifies a table's partition table is contiguous and
// covers the whole key space.
func (h *tpccHarness) checkTableRanges(name string) {
	tm, err := h.master.Table(name)
	if err != nil {
		h.violate(err.Error())
		return
	}
	entries := tm.Entries()
	if len(entries) == 0 {
		h.violate(fmt.Sprintf("%s: partition table empty", name))
		return
	}
	if entries[0].Low != nil {
		h.violate(fmt.Sprintf("%s: first range does not start at -inf", name))
	}
	if entries[len(entries)-1].High != nil {
		h.violate(fmt.Sprintf("%s: last range does not end at +inf", name))
	}
	for i := 1; i < len(entries); i++ {
		if string(entries[i-1].High) != string(entries[i].Low) {
			h.violate(fmt.Sprintf("%s: gap/overlap between entry %d and %d", name, i-1, i))
		}
	}
}

// --- Oracle model ------------------------------------------------------------

type distKey struct{ w, d int64 }
type orderKey struct{ w, d, o int64 }
type stockKey struct{ w, i int64 }

type stockState struct {
	ytd    float64
	cnt    int64
	remote int64
}

// tpccModel is the harness's in-memory model of the warehouse invariants,
// fed exclusively by acknowledged transactions' Effects.
type tpccModel struct {
	cfg       tpcc.Config
	wYTD      map[int64]float64
	dYTD      map[distKey]float64
	nextOID   map[distKey]int64
	orders    map[orderKey]int64 // acknowledged NewOrders -> ol count
	newOrders map[orderKey]bool  // undelivered orders
	stock     map[stockKey]*stockState
	// earlyDelivered: orders an acknowledged Delivery removed before the
	// acknowledgment of the NewOrder that created them arrived. Group commit
	// wakes every committer of one flush batch at the same instant, so ack
	// order can invert commit-timestamp order; the engine still serialized
	// them (the Delivery read the committed order). Each entry must be
	// matched by a NewOrder ack before the run ends.
	earlyDelivered map[orderKey]bool
}

func newTPCCModel(cfg tpcc.Config) *tpccModel {
	m := &tpccModel{
		cfg:            cfg,
		wYTD:           map[int64]float64{},
		dYTD:           map[distKey]float64{},
		nextOID:        map[distKey]int64{},
		orders:         map[orderKey]int64{},
		newOrders:      map[orderKey]bool{},
		stock:          map[stockKey]*stockState{},
		earlyDelivered: map[orderKey]bool{},
	}
	O := cfg.InitialOrdersPerDist
	newOrderStart := O - O/3 + 1 // mirror of the generator's undelivered tail
	for w := int64(1); w <= int64(cfg.Warehouses); w++ {
		m.wYTD[w] = 300000.0
		for d := int64(1); d <= int64(cfg.DistrictsPerW); d++ {
			dk := distKey{w, d}
			m.dYTD[dk] = 30000.0
			m.nextOID[dk] = int64(O + 1)
			for o := int64(newOrderStart); o <= int64(O); o++ {
				m.newOrders[orderKey{w, d, o}] = true
			}
		}
	}
	return m
}

func (m *tpccModel) stockAt(k stockKey) *stockState {
	s := m.stock[k]
	if s == nil {
		s = &stockState{}
		m.stock[k] = s
	}
	return s
}

// apply folds one acknowledged transaction into the model.
func (m *tpccModel) apply(eff *tpcc.Effect, violate func(string)) {
	if eff == nil {
		return
	}
	switch eff.Type {
	case tpcc.TxnNewOrder:
		ok := orderKey{eff.W, eff.D, eff.OID}
		if _, dup := m.orders[ok]; dup {
			violate(fmt.Sprintf("oracle: duplicate acknowledged order %v (D_NEXT_O_ID not serialized)", ok))
			return
		}
		m.orders[ok] = eff.OlCnt
		if m.earlyDelivered[ok] {
			// A Delivery of this order acked first (same flush batch); the
			// pending entry was already consumed.
			delete(m.earlyDelivered, ok)
		} else {
			m.newOrders[ok] = true
		}
		dk := distKey{eff.W, eff.D}
		if next := eff.OID + 1; next > m.nextOID[dk] {
			m.nextOID[dk] = next
		}
		for _, l := range eff.Lines {
			s := m.stockAt(stockKey{l.SupplyW, l.Item})
			s.ytd += float64(l.Qty)
			s.cnt++
			if l.SupplyW != eff.W {
				s.remote++
			}
		}
	case tpcc.TxnPayment:
		m.wYTD[eff.W] += eff.Amount
		m.dYTD[distKey{eff.W, eff.D}] += eff.Amount
	case tpcc.TxnDelivery:
		for _, del := range eff.Delivered {
			ok := orderKey{eff.W, del.D, del.OID}
			if !m.newOrders[ok] {
				if _, acked := m.orders[ok]; !acked && del.OID > int64(m.cfg.InitialOrdersPerDist) && !m.earlyDelivered[ok] {
					// The creating NewOrder committed (the Delivery read it)
					// but its ack has not landed yet — remember the debt; the
					// NewOrder ack must settle it before the run ends.
					m.earlyDelivered[ok] = true
					continue
				}
				violate(fmt.Sprintf("oracle: order %v delivered twice or never pending", ok))
				continue
			}
			delete(m.newOrders, ok)
		}
	}
}

// settle reports any delivery debt left at the end of the run: an order a
// Delivery removed whose NewOrder ack never arrived means an unacknowledged
// transaction's effects were read — an atomicity breach.
func (m *tpccModel) settle(violate func(string)) {
	keys := make([]orderKey, 0, len(m.earlyDelivered))
	for ok := range m.earlyDelivered {
		keys = append(keys, ok)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.w != b.w {
			return a.w < b.w
		}
		if a.d != b.d {
			return a.d < b.d
		}
		return a.o < b.o
	})
	for _, ok := range keys {
		violate(fmt.Sprintf("oracle: order %v delivered but its NewOrder was never acknowledged", ok))
	}
}

// approxEqual compares monetary sums: acknowledgment order and commit order
// may differ, so float addition may associate differently.
func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-6*math.Max(1.0, math.Max(math.Abs(a), math.Abs(b)))
}

// finalCheck reads the cluster's end state and verifies every modeled
// invariant. It returns the canonical state dump for the run hash.
func (h *tpccHarness) finalCheck() string {
	var dump strings.Builder
	m := h.model
	h.env.Spawn("tpcc-chaos-final-check", func(p *sim.Proc) {
		home := h.c.Nodes[0]
		if home.Down() {
			h.violate("final check: node 0 still down")
			return
		}
		s := h.master.Begin(p, ccSnapshot, home)
		defer s.Abort(p)
		wS := h.dep.Schemas[tpcc.TWarehouse]
		dS := h.dep.Schemas[tpcc.TDistrict]
		oS := h.dep.Schemas[tpcc.TOrders]
		olS := h.dep.Schemas[tpcc.TOrderLine]
		noS := h.dep.Schemas[tpcc.TNewOrder]
		stS := h.dep.Schemas[tpcc.TStock]

		readRow := func(schema *table.Schema, tbl string, keyVals ...any) (table.Row, bool) {
			key, err := schema.EncodeKeyPrefix(keyVals...)
			if err != nil {
				h.violate(fmt.Sprintf("final: key %s %v: %v", tbl, keyVals, err))
				return nil, false
			}
			raw, ok, err := s.Get(p, tbl, key)
			if err != nil || !ok {
				h.violate(fmt.Sprintf("final: %s %v unreadable: ok=%v err=%v", tbl, keyVals, ok, err))
				return nil, false
			}
			row, derr := schema.DecodeRow(raw)
			if derr != nil {
				h.violate(fmt.Sprintf("final: %s %v undecodable: %v", tbl, keyVals, derr))
				return nil, false
			}
			return row, true
		}

		for w := int64(1); w <= int64(m.cfg.Warehouses); w++ {
			wRow, ok := readRow(wS, tpcc.TWarehouse, w)
			if !ok {
				continue
			}
			wYTD := wRow[3].(float64)
			if !approxEqual(wYTD, m.wYTD[w]) {
				h.violate(fmt.Sprintf("W_YTD[%d] = %.4f, oracle says %.4f (lost or phantom payment)", w, wYTD, m.wYTD[w]))
			}
			fmt.Fprintf(&dump, "w=%d ytd=%.4f\n", w, wYTD)
			dSum := 0.0
			for d := int64(1); d <= int64(m.cfg.DistrictsPerW); d++ {
				dk := distKey{w, d}
				dRow, ok := readRow(dS, tpcc.TDistrict, w, d)
				if !ok {
					continue
				}
				dYTD := dRow[4].(float64)
				dSum += dYTD
				if !approxEqual(dYTD, m.dYTD[dk]) {
					h.violate(fmt.Sprintf("D_YTD[%d,%d] = %.4f, oracle says %.4f", w, d, dYTD, m.dYTD[dk]))
				}
				if next := dRow[5].(int64); next != m.nextOID[dk] {
					h.violate(fmt.Sprintf("D_NEXT_O_ID[%d,%d] = %d, oracle says %d", w, d, next, m.nextOID[dk]))
				}
				h.checkDistrictOrders(p, s, oS, olS, noS, w, d, &dump)
			}
			if !approxEqual(dSum, wYTD) {
				h.violate(fmt.Sprintf("warehouse %d: sum(D_YTD)=%.4f != W_YTD=%.4f", w, dSum, wYTD))
			}
		}
		// Touched stock rows, in deterministic order.
		sks := make([]stockKey, 0, len(m.stock))
		for k := range m.stock {
			sks = append(sks, k)
		}
		sort.Slice(sks, func(i, j int) bool {
			if sks[i].w != sks[j].w {
				return sks[i].w < sks[j].w
			}
			return sks[i].i < sks[j].i
		})
		for _, sk := range sks {
			want := m.stock[sk]
			row, ok := readRow(stS, tpcc.TStock, sk.w, sk.i)
			if !ok {
				continue
			}
			if got := row[3].(float64); !approxEqual(got, want.ytd) {
				h.violate(fmt.Sprintf("S_YTD[%d,%d] = %.4f, oracle says %.4f (order line lost across partitions)",
					sk.w, sk.i, got, want.ytd))
			}
			if got := row[4].(int64); got != want.cnt {
				h.violate(fmt.Sprintf("S_ORDER_CNT[%d,%d] = %d, oracle says %d", sk.w, sk.i, got, want.cnt))
			}
			if got := row[5].(int64); got != want.remote {
				h.violate(fmt.Sprintf("S_REMOTE_CNT[%d,%d] = %d, oracle says %d", sk.w, sk.i, got, want.remote))
			}
			fmt.Fprintf(&dump, "stock=%d,%d ytd=%.1f cnt=%d\n", sk.w, sk.i, want.ytd, want.cnt)
		}
	})
	if err := h.env.Run(); err != nil {
		h.violate(fmt.Sprintf("final check crashed: %v", err))
	}
	return dump.String()
}

// checkDistrictOrders verifies one district's ORDERS / ORDER_LINE /
// NEW_ORDER contents against the model: acknowledged NewOrders (and only
// those) exist beyond the loaded range, each with its full line count, and
// NEW_ORDER holds exactly the undelivered set.
func (h *tpccHarness) checkDistrictOrders(p *sim.Proc, s *cluster.Session,
	oS, olS, noS *table.Schema, w, d int64, dump *strings.Builder) {
	m := h.model
	O := int64(m.cfg.InitialOrdersPerDist)

	lo, _ := oS.EncodeKeyPrefix2(w, d)
	hi, _ := oS.EncodeKeyPrefix2(w, d+1)
	gotOrders := map[int64]int64{} // o -> ol_cnt
	var orderIDs []int64
	err := s.Scan(p, tpcc.TOrders, lo, hi, func(_, payload []byte) bool {
		row, derr := oS.DecodeRow(payload)
		if derr != nil {
			h.violate(fmt.Sprintf("orders[%d,%d]: undecodable row: %v", w, d, derr))
			return false
		}
		o := row[2].(int64)
		if _, dup := gotOrders[o]; dup {
			h.violate(fmt.Sprintf("orders[%d,%d]: order %d returned twice (doubly owned)", w, d, o))
		}
		gotOrders[o] = row[6].(int64)
		orderIDs = append(orderIDs, o)
		return true
	})
	if err != nil {
		h.violate(fmt.Sprintf("orders[%d,%d] scan failed: %v", w, d, err))
		return
	}
	// Loaded orders must all survive; orders beyond them are exactly the
	// acknowledged NewOrders with their line counts.
	for o := int64(1); o <= O; o++ {
		if _, ok := gotOrders[o]; !ok {
			h.violate(fmt.Sprintf("orders[%d,%d]: loaded order %d lost", w, d, o))
		}
	}
	for _, o := range orderIDs {
		if o <= O {
			continue
		}
		want, acked := m.orders[orderKey{w, d, o}]
		if !acked {
			h.violate(fmt.Sprintf("orders[%d,%d]: order %d visible but never acknowledged (NewOrder atomicity)", w, d, o))
			continue
		}
		if gotOrders[o] != want {
			h.violate(fmt.Sprintf("orders[%d,%d]: order %d O_OL_CNT=%d, oracle says %d", w, d, o, gotOrders[o], want))
		}
	}
	acked := make([]int64, 0)
	for ok := range m.orders {
		if ok.w == w && ok.d == d {
			acked = append(acked, ok.o)
		}
	}
	sortInt64s(acked)
	for _, o := range acked {
		if _, ok := gotOrders[o]; !ok {
			h.violate(fmt.Sprintf("orders[%d,%d]: acknowledged order %d lost (durability)", w, d, o))
		}
	}

	// One ORDER_LINE scan per district: count lines per order.
	olLo, _ := olS.EncodeKeyPrefix2(w, d)
	olHi, _ := olS.EncodeKeyPrefix2(w, d+1)
	lineCount := map[int64]int64{}
	err = s.Scan(p, tpcc.TOrderLine, olLo, olHi, func(_, payload []byte) bool {
		row, derr := olS.DecodeRow(payload)
		if derr != nil {
			h.violate(fmt.Sprintf("order_line[%d,%d]: undecodable row: %v", w, d, derr))
			return false
		}
		lineCount[row[2].(int64)]++
		return true
	})
	if err != nil {
		h.violate(fmt.Sprintf("order_line[%d,%d] scan failed: %v", w, d, err))
		return
	}
	for _, o := range acked {
		if got, want := lineCount[o], m.orders[orderKey{w, d, o}]; got != want {
			h.violate(fmt.Sprintf("order_line[%d,%d]: order %d has %d lines, oracle says %d (partial install)",
				w, d, o, got, want))
		}
	}

	// NEW_ORDER must hold exactly the undelivered set.
	noLo, _ := noS.EncodeKeyPrefix2(w, d)
	noHi, _ := noS.EncodeKeyPrefix2(w, d+1)
	gotNO := map[int64]bool{}
	err = s.Scan(p, tpcc.TNewOrder, noLo, noHi, func(_, payload []byte) bool {
		row, derr := noS.DecodeRow(payload)
		if derr != nil {
			h.violate(fmt.Sprintf("new_order[%d,%d]: undecodable row: %v", w, d, derr))
			return false
		}
		o := row[2].(int64)
		if gotNO[o] {
			h.violate(fmt.Sprintf("new_order[%d,%d]: order %d returned twice", w, d, o))
		}
		gotNO[o] = true
		return true
	})
	if err != nil {
		h.violate(fmt.Sprintf("new_order[%d,%d] scan failed: %v", w, d, err))
		return
	}
	wantNO := make([]int64, 0)
	for ok := range m.newOrders {
		if ok.w == w && ok.d == d {
			wantNO = append(wantNO, ok.o)
		}
	}
	sortInt64s(wantNO)
	for _, o := range wantNO {
		if !gotNO[o] {
			h.violate(fmt.Sprintf("new_order[%d,%d]: undelivered order %d missing", w, d, o))
		}
	}
	if len(gotNO) != len(wantNO) {
		got := make([]int64, 0, len(gotNO))
		for o := range gotNO {
			got = append(got, o)
		}
		sortInt64s(got)
		for _, o := range got {
			if !m.newOrders[orderKey{w, d, o}] {
				h.violate(fmt.Sprintf("new_order[%d,%d]: order %d present but delivered or never acknowledged", w, d, o))
			}
		}
	}
	fmt.Fprintf(dump, "d=%d,%d next=%d orders=%d pending=%d\n", w, d, m.nextOID[distKey{w, d}], len(gotOrders), len(gotNO))
}
