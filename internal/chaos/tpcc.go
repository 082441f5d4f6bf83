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
// The same determinism contract as the KV workload applies: one seed → one
// fault schedule → one state hash.
func RunTPCC(cfg Config) (*Report, error) { return run(cfg, &tpccWorkload{}) }

// tpccWarehouses is the trimmed TPC-C's warehouse count (deploy).
const tpccWarehouses = 4

type tpccWorkload struct {
	*harness
	tcfg  tpcc.Config
	dep   *tpcc.Deployment
	model *tpccModel
}

// deploy sets up a trimmed TPC-C that keeps the run fast while preserving
// every access path; four warehouses split two nodes, with spare nodes as
// migration targets. Districts stay at the spec's 10 because the load's base
// values encode W_YTD = 10 × D_YTD — the very invariant the oracle checks.
func (tp *tpccWorkload) deploy(h *harness) error {
	tp.harness = h
	tp.tcfg = tpcc.Config{
		Warehouses:           tpccWarehouses,
		DistrictsPerW:        10,
		CustomersPerDistrict: 30,
		Items:                100,
		InitialOrdersPerDist: 30,
		Seed:                 h.cfg.Seed,
	}
	tp.model = newTPCCModel(tp.tcfg)
	dep, err := tpcc.Deploy(h.master, tp.tcfg, h.cfg.Scheme, []tpcc.WarehouseRange{
		{FromW: 1, ToW: 2, Owner: h.c.Nodes[0]},
		{FromW: 3, ToW: tp.tcfg.Warehouses, Owner: h.c.Nodes[1]},
	}, h.c.Nodes)
	if err != nil {
		return err
	}
	dep.RecordEffects = true
	tp.dep = dep
	return nil
}

func (tp *tpccWorkload) load(p *sim.Proc) error { return tp.dep.Load(p) }

func (tp *tpccWorkload) spawnClients() {
	for w := 0; w < workers; w++ {
		tp.spawnWorker(w)
	}
	for q := 0; q < tp.mix.faults(mixHTAP, heavyReaders); q++ {
		tp.spawnAnalytics(q)
	}
}

// plan moves warehouse 2 off node 0 in every run, and the last warehouse to
// the last node when the seed draws it.
func (tp *tpccWorkload) plan() []faultEvent {
	const last = tpccWarehouses
	return buildPlan(tp.cfg, 0x79cc_c0de_79cc_c0de, migration{2, 3}, migration{last, last + 1})
}

func (tp *tpccWorkload) tables() []string { return tpcc.PartitionedTables() }

// migrate moves the warehouse range of every partitioned table.
func (tp *tpccWorkload) migrate(mp *sim.Proc, ev faultEvent) {
	tp.logFault("migration w[%d,%d) -> node %d starting", ev.loK, ev.hiK, ev.target)
	lo, hi := keycodec.Int64Key(ev.loK), keycodec.Int64Key(ev.hiK)
	for _, name := range tp.tables() {
		if err := tp.master.MigrateRange(mp, name, lo, hi, tp.c.Nodes[ev.target]); err != nil {
			tp.logFault("migration w[%d,%d) table %s aborted: %v", ev.loK, ev.hiK, name, err)
			return
		}
	}
	tp.logFault("migration w[%d,%d) -> node %d complete", ev.loK, ev.hiK, ev.target)
}

func (tp *tpccWorkload) postRestart(*sim.Proc, *cluster.DataNode) {}

// homeFor picks the session home for warehouse w: its owning node when
// powered, otherwise any alive node (remote execution pays the network).
func (tp *tpccWorkload) homeFor(w int, rng *rand.Rand) *cluster.DataNode {
	if tm, err := tp.master.Table(tpcc.TWarehouse); err == nil {
		if e, err := tm.Route(keycodec.Int64Key(int64(w))); err == nil {
			if !e.Owner.Down() && e.Owner.HW.State() == hwActive {
				return e.Owner
			}
		}
	}
	return tp.aliveNode(rng)
}

func (tp *tpccWorkload) spawnWorker(w int) {
	rng := rand.New(rand.NewSource(tp.cfg.Seed*1_000_003 + int64(w)))
	tp.env.Spawn(fmt.Sprintf("tpcc-chaos-worker-%d", w), func(p *sim.Proc) {
		p.Sleep(time.Duration(w) * 3 * time.Millisecond) // desynchronize
		for !tp.stop && p.Now() < tp.stopAt {
			wh := 1 + rng.Intn(tp.tcfg.Warehouses)
			home := tp.homeFor(wh, rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			typ := tpcc.PickTxn(rng)
			sess := tp.begin(p, home)
			err := tp.dep.Exec(p, sess, typ, wh, rng)
			eff := tp.dep.TakeEffect(sess.Txn.ID)
			switch {
			case err != nil:
				tp.failOp(p, sess)
			case typ == tpcc.TxnOrderStatus || typ == tpcc.TxnStockLevel:
				// Read-only: nothing to acknowledge, but the reads are only
				// final once the commits they covered are settled.
				if tp.finishRead(p, sess) {
					tp.rep.Reads++
				}
			default:
				if sess.Commit(p) != nil {
					sess.Abort(p)
					tp.rep.Aborts++
					break
				}
				// Acknowledged: fold the effect into the model before any
				// further blocking call.
				tp.ack(sess)
				tp.model.apply(eff, tp.violate)
				tp.rep.Commits++
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
func (tp *tpccWorkload) spawnAnalytics(q int) {
	rng := rand.New(rand.NewSource(tp.cfg.Seed*2_000_003 + int64(q)))
	tp.env.Spawn(fmt.Sprintf("tpcc-chaos-htap-%d", q), func(p *sim.Proc) {
		p.Sleep(time.Duration(7+5*q) * time.Millisecond) // desynchronize
		for !tp.stop && p.Now() < tp.stopAt {
			w := 1 + rng.Intn(tp.tcfg.Warehouses)
			d := 1 + rng.Intn(tp.tcfg.DistrictsPerW)
			home := tp.homeFor(w, rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			s := tp.begin(p, home)
			s.PreferFollower = q%2 == 0
			var broken []string
			rows, ok := tp.analyticsQuery(p, s, int64(w), int64(d), func(msg string) { broken = append(broken, msg) })
			if !ok {
				tp.failOp(p, s)
			} else if tp.finishRead(p, s) {
				for _, msg := range broken {
					tp.violate(msg)
				}
				tp.rep.AnalyticsQueries++
				tp.rep.AnalyticsRows += rows
			}
			p.Sleep(time.Duration(40+rng.Intn(60)) * time.Millisecond)
		}
	})
}

// districtScan is what one snapshot shows of a district's ORDERS, ORDER_LINE
// and NEW_ORDER rows; the id lists are distinct and in scan order.
type districtScan struct {
	olCnt   map[int64]int64 // visible order -> O_OL_CNT
	orders  []int64
	lines   map[int64]int64 // order -> ORDER_LINE rows
	lined   []int64
	pending []int64 // NEW_ORDER entries
	rows    int64   // rows read
}

// scanDistrict reads district [w,d]'s three order tables through s. A row
// that does not decode, or an order ORDERS or NEW_ORDER returns twice, goes
// to violate; a scan that fails (down node, timeout) is the error.
func (tp *tpccWorkload) scanDistrict(p *sim.Proc, s *cluster.Session, w, d int64, violate func(string)) (*districtScan, error) {
	ds := &districtScan{olCnt: map[int64]int64{}, lines: map[int64]int64{}}
	scan := func(tbl string, each func(row table.Row, o int64)) error {
		schema := tp.dep.Schemas[tbl]
		lo, _ := schema.EncodeKeyPrefix2(w, d)
		hi, _ := schema.EncodeKeyPrefix2(w, d+1)
		err := s.Scan(p, tbl, lo, hi, func(_, payload []byte) bool {
			row, derr := schema.DecodeRow(payload)
			if derr != nil {
				violate(fmt.Sprintf("%s[%d,%d] snap %d: undecodable row: %v", tbl, w, d, s.Txn.Begin, derr))
				return false
			}
			ds.rows++
			each(row, row[2].(int64))
			return true
		})
		if err != nil {
			return fmt.Errorf("%s[%d,%d] scan failed: %w", tbl, w, d, err)
		}
		return nil
	}
	twice := func(tbl string, o int64) {
		violate(fmt.Sprintf("%s[%d,%d] snap %d: order %d returned twice (doubly owned)", tbl, w, d, s.Txn.Begin, o))
	}
	if err := scan(tpcc.TOrders, func(row table.Row, o int64) {
		if _, dup := ds.olCnt[o]; dup {
			twice(tpcc.TOrders, o)
		} else {
			ds.orders = append(ds.orders, o)
		}
		ds.olCnt[o] = row[6].(int64)
	}); err != nil {
		return nil, err
	}
	if err := scan(tpcc.TOrderLine, func(_ table.Row, o int64) {
		if ds.lines[o] == 0 {
			ds.lined = append(ds.lined, o)
		}
		ds.lines[o]++
	}); err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	if err := scan(tpcc.TNewOrder, func(_ table.Row, o int64) {
		if seen[o] {
			twice(tpcc.TNewOrder, o)
		} else {
			ds.pending = append(ds.pending, o)
		}
		seen[o] = true
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

// analyticsQuery runs one district's snapshot aggregate and checks its
// internal invariants. It returns the rows it read, and false when a fault
// aborted the query (down node, timeout) — invariant breaks go through
// violate instead, which the caller holds back until the session's Commit has
// made the reads final.
func (tp *tpccWorkload) analyticsQuery(p *sim.Proc, s *cluster.Session, w, d int64, violate func(string)) (int64, bool) {
	dS := tp.dep.Schemas[tpcc.TDistrict]
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
	ds, err := tp.scanDistrict(p, s, w, d, violate)
	if err != nil {
		return 0, false
	}
	at := fmt.Sprintf("htap@%v [%d,%d] snap %d", p.Now(), w, d, s.Txn.Begin)
	for _, o := range ds.orders {
		if o >= nextO {
			violate(fmt.Sprintf("%s: order %d visible but D_NEXT_O_ID=%d", at, o, nextO))
		}
		if got, want := ds.lines[o], ds.olCnt[o]; got != want {
			violate(fmt.Sprintf("%s: order %d has %d lines, O_OL_CNT=%d (torn NewOrder visible)", at, o, got, want))
		}
	}
	for _, o := range ds.lined {
		if _, ok := ds.olCnt[o]; !ok {
			violate(fmt.Sprintf("%s: %d lines for order %d with no ORDERS row", at, ds.lines[o], o))
		}
	}
	for _, o := range ds.pending {
		if _, ok := ds.olCnt[o]; !ok {
			violate(fmt.Sprintf("%s: pending order %d has no ORDERS row", at, o))
		}
	}
	return 1 + ds.rows, true
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
func (tp *tpccWorkload) finalCheck(p *sim.Proc, s *cluster.Session) string {
	var dump strings.Builder
	m := tp.model
	m.settle(tp.violate)
	readRow := func(tbl string, keyVals ...any) (table.Row, bool) {
		schema := tp.dep.Schemas[tbl]
		key, err := schema.EncodeKeyPrefix(keyVals...)
		if err != nil {
			tp.violate(fmt.Sprintf("final: key %s %v: %v", tbl, keyVals, err))
			return nil, false
		}
		raw, ok, err := s.Get(p, tbl, key)
		if err != nil || !ok {
			tp.violate(fmt.Sprintf("final: %s %v unreadable: ok=%v err=%v", tbl, keyVals, ok, err))
			return nil, false
		}
		row, derr := schema.DecodeRow(raw)
		if derr != nil {
			tp.violate(fmt.Sprintf("final: %s %v undecodable: %v", tbl, keyVals, derr))
			return nil, false
		}
		return row, true
	}

	for w := int64(1); w <= int64(m.cfg.Warehouses); w++ {
		wRow, ok := readRow(tpcc.TWarehouse, w)
		if !ok {
			continue
		}
		wYTD := wRow[3].(float64)
		if !approxEqual(wYTD, m.wYTD[w]) {
			tp.violate(fmt.Sprintf("W_YTD[%d] = %.4f, oracle says %.4f (lost or phantom payment)", w, wYTD, m.wYTD[w]))
		}
		fmt.Fprintf(&dump, "w=%d ytd=%.4f\n", w, wYTD)
		dSum := 0.0
		for d := int64(1); d <= int64(m.cfg.DistrictsPerW); d++ {
			dk := distKey{w, d}
			dRow, ok := readRow(tpcc.TDistrict, w, d)
			if !ok {
				continue
			}
			dYTD := dRow[4].(float64)
			dSum += dYTD
			if !approxEqual(dYTD, m.dYTD[dk]) {
				tp.violate(fmt.Sprintf("D_YTD[%d,%d] = %.4f, oracle says %.4f", w, d, dYTD, m.dYTD[dk]))
			}
			if next := dRow[5].(int64); next != m.nextOID[dk] {
				tp.violate(fmt.Sprintf("D_NEXT_O_ID[%d,%d] = %d, oracle says %d", w, d, next, m.nextOID[dk]))
			}
			tp.checkDistrictOrders(p, s, w, d, &dump)
		}
		if !approxEqual(dSum, wYTD) {
			tp.violate(fmt.Sprintf("warehouse %d: sum(D_YTD)=%.4f != W_YTD=%.4f", w, dSum, wYTD))
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
		row, ok := readRow(tpcc.TStock, sk.w, sk.i)
		if !ok {
			continue
		}
		if got := row[3].(float64); !approxEqual(got, want.ytd) {
			tp.violate(fmt.Sprintf("S_YTD[%d,%d] = %.4f, oracle says %.4f (order line lost across partitions)",
				sk.w, sk.i, got, want.ytd))
		}
		if got := row[4].(int64); got != want.cnt {
			tp.violate(fmt.Sprintf("S_ORDER_CNT[%d,%d] = %d, oracle says %d", sk.w, sk.i, got, want.cnt))
		}
		if got := row[5].(int64); got != want.remote {
			tp.violate(fmt.Sprintf("S_REMOTE_CNT[%d,%d] = %d, oracle says %d", sk.w, sk.i, got, want.remote))
		}
		fmt.Fprintf(&dump, "stock=%d,%d ytd=%.1f cnt=%d\n", sk.w, sk.i, want.ytd, want.cnt)
	}
	return dump.String()
}

// checkDistrictOrders verifies one district's ORDERS / ORDER_LINE /
// NEW_ORDER contents against the model: acknowledged NewOrders (and only
// those) exist beyond the loaded range, each with its full line count, and
// NEW_ORDER holds exactly the undelivered set.
func (tp *tpccWorkload) checkDistrictOrders(p *sim.Proc, s *cluster.Session, w, d int64, dump *strings.Builder) {
	m := tp.model
	ds, err := tp.scanDistrict(p, s, w, d, tp.violate)
	if err != nil {
		tp.violate(err.Error())
		return
	}
	// Loaded orders must all survive; orders beyond them are exactly the
	// acknowledged NewOrders with their line counts.
	loaded := int64(m.cfg.InitialOrdersPerDist)
	for o := int64(1); o <= loaded; o++ {
		if _, ok := ds.olCnt[o]; !ok {
			tp.violate(fmt.Sprintf("orders[%d,%d]: loaded order %d lost", w, d, o))
		}
	}
	for _, o := range ds.orders {
		if o <= loaded {
			continue
		}
		want, acked := m.orders[orderKey{w, d, o}]
		if !acked {
			tp.violate(fmt.Sprintf("orders[%d,%d]: order %d visible but never acknowledged (NewOrder atomicity)", w, d, o))
		} else if ds.olCnt[o] != want {
			tp.violate(fmt.Sprintf("orders[%d,%d]: order %d O_OL_CNT=%d, oracle says %d", w, d, o, ds.olCnt[o], want))
		}
	}
	var acked []int64
	for ok := range m.orders {
		if ok.w == w && ok.d == d {
			acked = append(acked, ok.o)
		}
	}
	sortInt64s(acked)
	for _, o := range acked {
		if _, ok := ds.olCnt[o]; !ok {
			tp.violate(fmt.Sprintf("orders[%d,%d]: acknowledged order %d lost (durability)", w, d, o))
		}
		if got, want := ds.lines[o], m.orders[orderKey{w, d, o}]; got != want {
			tp.violate(fmt.Sprintf("order_line[%d,%d]: order %d has %d lines, oracle says %d (partial install)",
				w, d, o, got, want))
		}
	}

	// NEW_ORDER must hold exactly the undelivered set.
	pending := make(map[int64]bool, len(ds.pending))
	for _, o := range ds.pending {
		pending[o] = true
		if !m.newOrders[orderKey{w, d, o}] {
			tp.violate(fmt.Sprintf("new_order[%d,%d]: order %d present but delivered or never acknowledged", w, d, o))
		}
	}
	var undelivered []int64
	for ok := range m.newOrders {
		if ok.w == w && ok.d == d {
			undelivered = append(undelivered, ok.o)
		}
	}
	sortInt64s(undelivered)
	for _, o := range undelivered {
		if !pending[o] {
			tp.violate(fmt.Sprintf("new_order[%d,%d]: undelivered order %d missing", w, d, o))
		}
	}
	fmt.Fprintf(dump, "d=%d,%d next=%d orders=%d pending=%d\n", w, d, m.nextOID[distKey{w, d}], len(ds.olCnt), len(ds.pending))
}
