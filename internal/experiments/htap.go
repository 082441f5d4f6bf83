package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/chbench"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// HTAP analytics placements. Baseline runs no analytics at all (the OLTP p99
// reference); the other three run the same Q1-style aggregate continuously
// while TPC-C traffic keeps committing.
const (
	HTAPBaseline  = "oltp-only"
	HTAPColocated = "co-located"
	HTAPOffloaded = "offloaded"
	HTAPParallel  = "parallel"
)

// htapStreams is how many concurrent analytics query loops each mode runs.
const htapStreams = 2

// htapCPUPerRow is the analytics expression cost per row (aggregate
// arithmetic), charged on the node executing the operator.
const htapCPUPerRow = 20 * time.Microsecond

// htapVector is the analytics batch size.
const htapVector = 128

// FigHTAPRow is one placement's measurement: analytics throughput and the
// OLTP tail latency it leaves behind.
type FigHTAPRow struct {
	Mode          string
	AnalyticsQPS  float64
	OLTPp99Ms     float64
	OLTPCommits   int
	FollowerReads int
}

// FigHTAPResult holds the placement sweep.
type FigHTAPResult struct {
	Rows []FigHTAPRow
}

// Row returns the named mode's measurement.
func (r FigHTAPResult) Row(mode string) FigHTAPRow {
	for _, row := range r.Rows {
		if row.Mode == mode {
			return row
		}
	}
	return FigHTAPRow{}
}

// FigHTAP measures the HTAP interference study: TPC-C on two data nodes
// (data-replicated onto the spares) with the CH-style Q1 aggregate running
// co-located with an OLTP home, offloaded to a spare node (where follower
// snapshot reads keep the scans off the primaries), or partition-parallel
// through the exchange. The paper's offloading shape is the acceptance bar:
// offloaded analytics must out-run co-located while OLTP p99 improves,
// because both the operator CPU and (about half of) the scan reads move to
// an idle node.
func FigHTAP(pre Preset) (FigHTAPResult, error) {
	run := func(mode string) (FigHTAPRow, error) {
		env := sim.NewEnv(pre.Seed)
		defer env.Close()
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4 // 0,1: OLTP owners; 2,3: spares holding follower replicas
		cfg.Cal = calibration(pre)
		cfg.DataReplicas = 2
		c := cluster.New(env, cfg)
		for _, n := range c.Nodes[1:] {
			n.HW.ForceActive()
		}

		dep, err := loadTPCC(c, pre, table.Physiological)
		if err != nil {
			return FigHTAPRow{}, err
		}
		c.SetupReplicationDrain()

		warm := pre.Warmup
		end := warm + pre.Observe
		stop := false

		// OLTP offered load; latencies collected after warmup.
		var latencies []time.Duration
		commits := 0
		for i := 0; i < pre.Clients; i++ {
			cl := tpcc.NewClient(i, c.Master, dep, pre.Interval, cc.SnapshotIsolation)
			cl.OnResult = func(r tpcc.Result) {
				if !r.Committed || r.Start < warm || stop {
					return
				}
				commits++
				latencies = append(latencies, r.Latency)
			}
			cl.Start()
		}

		// Background shipper: queued WAL frames ride to followers so the
		// offloaded scans keep qualifying for follower snapshot reads.
		env.Spawn("shipper", func(p *sim.Proc) {
			for !stop {
				p.Sleep(20 * time.Millisecond)
				c.DrainShipQueues(p)
			}
		})

		// Vacuum keeps the update-heavy tables' version chains pruned, so
		// the analytics scan cost stays proportional to the live row count
		// in every mode (stock is updated in place and never grows).
		for _, n := range c.Nodes {
			n.StartVacuum(10 * time.Second)
		}

		// Analytics streams: the suite's stock-value aggregate — a full
		// scan-and-group over a fixed-size table, so queries do the same
		// work in every mode and throughput differences measure placement,
		// not data growth. Co-located charges the aggregate on an OLTP
		// owner and keeps the default owner/follower read mix; offloaded
		// runs on a spare with the PreferFollower hint; parallel fans the
		// scan over the owners through the exchange.
		queries := 0
		if mode != HTAPBaseline {
			home := c.Nodes[0] // co-located: same node as warehouse 1..W/2 OLTP
			if mode != HTAPColocated {
				home = c.Nodes[2] // spare: follower of both OLTP owners
			}
			stockSchema := dep.Schemas[tpcc.TStock]
			for q := 0; q < htapStreams; q++ {
				env.Spawn(fmt.Sprintf("analytics-%d", q), func(p *sim.Proc) {
					// One plan per stream, re-opened warm by every query.
					stock := &chbench.SessionScan{Table: tpcc.TStock, Schema: stockSchema, Vector: htapVector}
					agg := &exec.GroupAgg{Child: stock, Node: home.HW,
						GroupCol: 0, SumCol: 3, CPUPerRow: htapCPUPerRow, Vector: htapVector}
					for !stop {
						var err error
						if mode == HTAPParallel {
							txn := c.Master.Oracle.Begin(cc.SnapshotIsolation)
							var plans []exec.Operator
							plans, err = c.Master.PartitionPlans(txn, tpcc.TStock, home, htapVector,
								func(scan exec.Operator, owner *cluster.DataNode) exec.Operator {
									return &exec.Project{Child: scan, Node: owner.HW,
										Cols: []int{0, 3}, CPUPerRow: htapCPUPerRow}
								})
							if err == nil {
								_, err = exec.Drain(p, &exec.GroupAgg{Child: &exec.Exchange{Plans: plans, Env: env},
									Node: home.HW, GroupCol: 0, SumCol: 1, CPUPerRow: htapCPUPerRow, Vector: htapVector})
							}
						} else {
							sess := c.Master.Begin(p, cc.SnapshotIsolation, home)
							// Offloading hint: serve every eligible scan from
							// follower stores, not just every other one.
							// Co-located keeps the default mix.
							sess.PreferFollower = mode == HTAPOffloaded
							stock.Sess = sess
							_, err = exec.Drain(p, agg)
							sess.Abort(p)
						}
						if err == nil && !stop && p.Now() >= warm {
							queries++
						}
					}
				})
			}
		}

		env.Spawn("stopper", func(p *sim.Proc) {
			p.Sleep(end)
			stop = true
		})
		if err := env.RunUntil(end); err != nil {
			return FigHTAPRow{}, err
		}

		row := FigHTAPRow{Mode: mode, OLTPCommits: commits}
		row.AnalyticsQPS = float64(queries) / pre.Observe.Seconds()
		if len(latencies) > 0 {
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			p99 := latencies[len(latencies)*99/100]
			row.OLTPp99Ms = float64(p99) / float64(time.Millisecond)
		}
		_, _, row.FollowerReads, _ = c.ReplicationStats()
		return row, nil
	}

	var res FigHTAPResult
	for _, mode := range []string{HTAPBaseline, HTAPColocated, HTAPOffloaded, HTAPParallel} {
		row, err := run(mode)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String formats the sweep as the HTAP interference table.
func (r FigHTAPResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HTAP — analytics placement vs OLTP interference\n")
	fmt.Fprintf(&b, "%12s %14s %12s %12s %14s\n", "placement", "analytics q/s", "OLTP p99 ms", "commits", "follower reads")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12s %14.2f %12.1f %12d %14d\n",
			row.Mode, row.AnalyticsQPS, row.OLTPp99Ms, row.OLTPCommits, row.FollowerReads)
	}
	return b.String()
}
