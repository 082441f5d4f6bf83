package chbench

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// deploy builds a small TPC-C deployment split across two data nodes (plus a
// spare), optionally with data replication so follower snapshot reads can
// serve the analytics scans.
func deploy(t *testing.T, dataReplicas int) (*sim.Env, *cluster.Cluster, *tpcc.Deployment) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.DataReplicas = dataReplicas
	c := cluster.New(env, cfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}
	tcfg := tpcc.DefaultConfig(2)
	tcfg.DistrictsPerW = 4
	tcfg.CustomersPerDistrict = 20
	tcfg.Items = 60
	tcfg.InitialOrdersPerDist = 20
	dep, err := tpcc.Deploy(c.Master, tcfg, table.Physiological, []tpcc.WarehouseRange{
		{FromW: 1, ToW: 1, Owner: c.Nodes[0]},
		{FromW: 2, ToW: 2, Owner: c.Nodes[1]},
	}, c.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		if err := dep.Load(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dataReplicas > 0 {
		c.SetupReplicationDrain()
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return env, c, dep
}

// refData is the raw deployment content, scanned once per test through a
// plain session — the reference the query plans are checked against.
type refData struct {
	orders, lines, stock []table.Row
}

func loadRef(t *testing.T, p *sim.Proc, c *cluster.Cluster, dep *tpcc.Deployment) *refData {
	t.Helper()
	ref := &refData{}
	s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
	defer s.Abort(p)
	read := func(tbl string, dst *[]table.Row) {
		schema := dep.Schemas[tbl]
		if err := s.Scan(p, tbl, nil, nil, func(_, payload []byte) bool {
			row, err := schema.DecodeRow(payload)
			if err != nil {
				t.Error(err)
				return false
			}
			*dst = append(*dst, row)
			return true
		}); err != nil {
			t.Error(err)
		}
	}
	read(tpcc.TOrders, &ref.orders)
	read(tpcc.TOrderLine, &ref.lines)
	read(tpcc.TStock, &ref.stock)
	return ref
}

type agg struct {
	count int64
	sum   float64
}

// groupsOf renders a [group, count, sum] result set into a comparable map.
func groupsOf(t *testing.T, rows []table.Row) map[any]agg {
	t.Helper()
	out := make(map[any]agg, len(rows))
	for _, r := range rows {
		out[r[0]] = agg{count: r[1].(int64), sum: r[2].(float64)}
	}
	return out
}

func requireGroups(t *testing.T, name string, got, want map[any]agg) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d groups, want %d", name, len(got), len(want))
		return
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing group %v", name, k)
			continue
		}
		if g.count != w.count || math.Abs(g.sum-w.sum) > 1e-6 {
			t.Errorf("%s: group %v = (%d, %f), want (%d, %f)", name, k, g.count, g.sum, w.count, w.sum)
		}
	}
}

// TestQueriesMatchReference runs every query in the suite on a quiescent
// deployment and checks the result sets against aggregates computed from a
// raw scan of the same tables.
func TestQueriesMatchReference(t *testing.T) {
	env, c, dep := deploy(t, 0)
	defer env.Close()
	r := &Runner{Dep: dep, Node: c.Nodes[2].HW, CPUPerRow: 200 * time.Nanosecond, Vector: 32}
	queries := r.Queries()
	if len(queries) < 5 {
		t.Fatalf("suite has %d queries, want at least 5", len(queries))
	}
	env.Spawn("check", func(p *sim.Proc) {
		checkSuite(t, loadRef(t, p, c, dep), suiteRunner(t, p, c, queries))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// suiteRunner returns a function that runs the named query of queries in a
// fresh snapshot-isolation session on the spare node and collects its rows.
func suiteRunner(t *testing.T, p *sim.Proc, c *cluster.Cluster, queries []Query) func(name string) []table.Row {
	byName := map[string]Query{}
	for _, q := range queries {
		byName[q.Name] = q
	}
	return func(name string) []table.Row {
		q, ok := byName[name]
		if !ok {
			t.Fatalf("no query %q", name)
		}
		sess := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		defer sess.Abort(p)
		rows, err := exec.Collect(p, q.Plan(sess))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rows
	}
}

// checkSuite runs every query of the suite through run and checks its rows
// against aggregates computed from ref.
func checkSuite(t *testing.T, ref *refData, run func(name string) []table.Row) {
	t.Helper()
	// lineitem-agg: count and revenue per ol_number.
	want := map[any]agg{}
	for _, l := range ref.lines {
		a := want[l[3]]
		a.count++
		a.sum += l[7].(float64)
		want[l[3]] = a
	}
	requireGroups(t, "lineitem-agg", groupsOf(t, run("lineitem-agg")), want)

	// carrier-dist: orders and total line count per carrier.
	want = map[any]agg{}
	for _, o := range ref.orders {
		a := want[o[5]]
		a.count++
		a.sum += float64(o[6].(int64))
		want[o[5]] = a
	}
	requireGroups(t, "carrier-dist", groupsOf(t, run("carrier-dist")), want)

	// cust-revenue / carrier-revenue: order_line joined to its order.
	type okey struct{ w, d, o int64 }
	orderOf := map[okey]table.Row{}
	for _, o := range ref.orders {
		orderOf[okey{o[0].(int64), o[1].(int64), o[2].(int64)}] = o
	}
	wantCust, wantCarrier := map[any]agg{}, map[any]agg{}
	for _, l := range ref.lines {
		o, ok := orderOf[okey{l[0].(int64), l[1].(int64), l[2].(int64)}]
		if !ok {
			t.Fatalf("order line %v has no order", l[:4])
		}
		for col, m := range map[int]map[any]agg{3: wantCust, 5: wantCarrier} {
			a := m[o[col]]
			a.count++
			a.sum += l[7].(float64)
			m[o[col]] = a
		}
	}
	requireGroups(t, "cust-revenue", groupsOf(t, run("cust-revenue")), wantCust)
	requireGroups(t, "carrier-revenue", groupsOf(t, run("carrier-revenue")), wantCarrier)

	// item-flow: every line matches exactly one stock row.
	want = map[any]agg{}
	stockKeys := map[[2]int64]bool{}
	for _, s := range ref.stock {
		stockKeys[[2]int64{s[0].(int64), s[1].(int64)}] = true
	}
	for _, l := range ref.lines {
		if !stockKeys[[2]int64{l[5].(int64), l[4].(int64)}] {
			continue
		}
		a := want[l[4]]
		a.count++
		a.sum += float64(l[6].(int64))
		want[l[4]] = a
	}
	requireGroups(t, "item-flow", groupsOf(t, run("item-flow")), want)

	// top-amounts: ten rows, none smaller than the 10th-largest amount.
	amounts := run("top-amounts")
	if len(amounts) != 10 {
		t.Fatalf("top-amounts returned %d rows, want 10", len(amounts))
	}
	var all []float64
	for _, l := range ref.lines {
		all = append(all, l[7].(float64))
	}
	// Selection check: the returned amounts are the 10 largest.
	for i := 1; i < len(amounts); i++ {
		if amounts[i][7].(float64) > amounts[i-1][7].(float64) {
			t.Fatalf("top-amounts not descending at %d", i)
		}
	}
	bigger := 0
	for _, a := range all {
		if a > amounts[9][7].(float64) {
			bigger++
		}
	}
	if bigger > 9 {
		t.Fatalf("top-amounts missed %d larger amounts", bigger-9)
	}

	// top-customers: five rows, descending revenue, matching the
	// reference's best sums.
	top := run("top-customers")
	if len(top) != 5 {
		t.Fatalf("top-customers returned %d rows, want 5", len(top))
	}
	for i, r := range top {
		w := wantCust[r[0]]
		if math.Abs(r[2].(float64)-w.sum) > 1e-6 {
			t.Errorf("top-customers row %d: sum %f, want %f", i, r[2].(float64), w.sum)
		}
	}

	// undelivered: orders with carrier 0 per district.
	wantU := map[any]agg{}
	for _, o := range ref.orders {
		if o[5].(int64) != 0 {
			continue
		}
		a := wantU[o[1]]
		a.count++
		wantU[o[1]] = a
	}
	gotU := map[any]agg{}
	for _, r := range run("undelivered") {
		gotU[r[0]] = agg{count: r[1].(int64)}
	}
	requireGroups(t, "undelivered", gotU, wantU)
}

// maxWarmAllocs bounds what draining a warm tree allocates. Measured: 0 for
// every query, carrier-revenue's merge included (each scan derives its
// declared ordering once) and the two that sort (slices.SortFunc over the
// permutation allocates nothing); a cold drain allocates 76 to 476.
const maxWarmAllocs = 2

// TestSuiteReusesPlans: a Query hands out the same operator trees again once
// they are closed, and a re-opened tree answers as a new one would. The whole
// suite runs twice on one Runner with commits in between, so the second pass
// reads a different snapshot through warm trees; two trees of one query open
// at once are distinct and both right; and a warm drain allocates a small
// fixed number of objects, far below a cold one.
func TestSuiteReusesPlans(t *testing.T) {
	env, c, dep := deploy(t, 0)
	defer env.Close()
	r := &Runner{Dep: dep, Node: c.Nodes[2].HW, CPUPerRow: 200 * time.Nanosecond, Vector: 32}
	queries := r.Queries()
	env.Spawn("check", func(p *sim.Proc) {
		run := suiteRunner(t, p, c, queries)
		first := loadRef(t, p, c, dep)
		checkSuite(t, first, run)

		client := tpcc.NewClient(1, c.Master, dep, 0, cc.SnapshotIsolation)
		for i := 0; i < 6; i++ {
			client.RunTyped(p, tpcc.TxnNewOrder, 1+i%2)
			client.RunTyped(p, tpcc.TxnDelivery, 1+i%2)
		}
		second := loadRef(t, p, c, dep)
		if len(second.lines) == len(first.lines) {
			t.Fatal("no order line committed between the passes")
		}
		checkSuite(t, second, run)

		// Two trees of one query open at once, then both back on the free
		// list: the next two Plans hand out the same two trees.
		var q Query
		for _, q = range queries {
			if q.Name == "cust-revenue" {
				break
			}
		}
		s1 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		s2 := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		t1, t2 := q.Plan(s1), q.Plan(s2)
		if t1 == t2 {
			t.Fatal("Plan handed out a tree that is still open")
		}
		rows1, err1 := exec.Collect(p, t1)
		rows2, err2 := exec.Collect(p, t2)
		if err1 != nil || err2 != nil {
			t.Fatalf("cust-revenue: %v, %v", err1, err2)
		}
		want := groupsOf(t, run("cust-revenue"))
		requireGroups(t, "cust-revenue (first tree)", groupsOf(t, rows1), want)
		requireGroups(t, "cust-revenue (second tree)", groupsOf(t, rows2), want)
		t3, t4 := q.Plan(s1), q.Plan(s2)
		if (t3 != t1 || t4 != t2) && (t3 != t2 || t4 != t1) {
			t.Fatal("closed trees were not handed out again")
		}
		t3.Close(p)
		t4.Close(p)
		s2.Abort(p)

		// A warm drain against a cold one: a fresh suite per run builds
		// every operator and grows every batch.
		drain := func(q Query) {
			if _, err := exec.Drain(p, q.Plan(s1)); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			warm := testing.AllocsPerRun(10, func() { drain(q) })
			cold := testing.AllocsPerRun(3, func() { drain(r.Queries()[i]) })
			t.Logf("%s: %.0f allocations warm, %.0f cold", q.Name, warm, cold)
			if warm > maxWarmAllocs {
				t.Errorf("%s: a warm drain allocates %.0f objects, want <= %d (cold: %.0f)", q.Name, warm, maxWarmAllocs, cold)
			}
		}
		s1.Abort(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAggMatchesSessionAgg checks the partition-parallel Q1 plan
// (exchange over owner-placed scans, projection pushed below the wire)
// returns the same groups as the session-based plan.
func TestParallelAggMatchesSessionAgg(t *testing.T) {
	env, c, dep := deploy(t, 0)
	defer env.Close()
	r := &Runner{Dep: dep, Node: c.Nodes[2].HW, CPUPerRow: 200 * time.Nanosecond, Vector: 32}
	env.Spawn("check", func(p *sim.Proc) {
		sess := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[2])
		defer sess.Abort(p)
		var sessionRows []table.Row
		for _, q := range r.Queries() {
			if q.Name != "lineitem-agg" {
				continue
			}
			rows, err := exec.Collect(p, q.Plan(sess))
			if err != nil {
				t.Fatal(err)
			}
			sessionRows = rows
		}
		txn := c.Master.Oracle.Begin(cc.SnapshotIsolation)
		plan, err := r.ParallelLineitemAgg(c.Master, txn, c.Nodes[2])
		if err != nil {
			t.Fatal(err)
		}
		parallelRows, err := exec.Collect(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		requireGroups(t, "parallel-lineitem-agg", groupsOf(t, parallelRows), groupsOf(t, sessionRows))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOffloadedSuiteUsesFollowerReads runs the suite from a spare node on a
// replicated deployment and checks the scans were actually served by
// follower replicas — the offloading path the HTAP figure measures.
func TestOffloadedSuiteUsesFollowerReads(t *testing.T) {
	env, c, dep := deploy(t, 2)
	defer env.Close()
	spare := c.Nodes[3]
	r := &Runner{Dep: dep, Node: spare.HW, CPUPerRow: 200 * time.Nanosecond, Vector: 32}
	env.Spawn("analytics", func(p *sim.Proc) {
		for _, q := range r.Queries() {
			sess := c.Master.Begin(p, cc.SnapshotIsolation, spare)
			if _, err := exec.Collect(p, q.Plan(sess)); err != nil {
				t.Errorf("%s: %v", q.Name, err)
			}
			sess.Abort(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, followerReads, _ := c.ReplicationStats(); followerReads == 0 {
		t.Fatal("offloaded suite never hit a follower replica")
	}
}

// TestScanOrderingFollowsProjection: a session scan declares the key prefix
// its projection keeps, in projected positions, computed once per scan; and
// a merge join over a scan whose projection drops a join-key column refuses
// to open.
func TestScanOrderingFollowsProjection(t *testing.T) {
	schemas := tpcc.Schemas()
	for _, tc := range []struct {
		cols []int
		want []int
	}{
		{nil, []int{0, 1, 2, 3}},                  // every column
		{[]int{0, 1, 2, 3, 7}, []int{0, 1, 2, 3}}, // the whole key
		{[]int{0, 1, 2, 7}, []int{0, 1, 2}},       // drops ol_number
		{[]int{0, 2, 3, 7}, []int{0}},             // drops ol_d_id
		{[]int{3, 7}, nil},                        // drops ol_w_id
	} {
		s := &SessionScan{Table: tpcc.TOrderLine, Schema: schemas[tpcc.TOrderLine], Cols: tc.cols}
		if got := s.Ordering(); !slices.Equal(got, tc.want) {
			t.Errorf("cols %v: ordering %v, want %v", tc.cols, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { s.Ordering() }); n != 0 {
			t.Errorf("cols %v: Ordering allocates %.0f objects per call", tc.cols, n)
		}
	}

	// Join order lines to orders on (w, o): the order_line projection drops
	// ol_d_id, so its scan is ordered by ol_w_id alone.
	mj := &exec.MergeJoin{
		Left:     &SessionScan{Table: tpcc.TOrderLine, Schema: schemas[tpcc.TOrderLine], Cols: []int{0, 2, 7}},
		Right:    &SessionScan{Table: tpcc.TOrders, Schema: schemas[tpcc.TOrders], Cols: []int{0, 2}},
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
	}
	err := mj.Open(nil)
	if err == nil || !strings.Contains(err.Error(), "left input not ordered by join keys [0 1] (declares [0])") {
		t.Fatalf("merge join over a scan that drops a join-key column: Open = %v, want the not-ordered error", err)
	}
}
