package experiments

import (
	"fmt"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// TimelineOpts configure one rebalancing run (the experiment of Sect. 5.1):
// a TPC-C cluster on two nodes is instructed at t=0 to migrate 50% of all
// records to two freshly powered nodes under continuous load.
type TimelineOpts struct {
	Preset  Preset
	Scheme  table.Scheme
	Helpers bool // Fig. 8: power two helper nodes for log shipping + rDMA buffering
	// CollectBreakdown attaches Fig. 7 decompositions to transactions.
	CollectBreakdown bool
}

// TimelineResult carries the four series of Fig. 6 / Fig. 8 plus the Fig. 7
// breakdowns.
type TimelineResult struct {
	Scheme        table.Scheme
	Helpers       bool
	QPS           []Bin // committed transactions per second
	ResponseMs    []Bin // mean response time, milliseconds
	Watts         []Bin // cluster power
	JoulePerQuery []Bin // energy per committed transaction

	MigrationTook time.Duration
	Commits       int
	Aborts        int

	// KernelStats snapshots the simulation kernel's event counters at the
	// end of the run: two same-seed runs must agree exactly (the
	// determinism guard asserts this).
	KernelStats sim.Stats

	// Mean per-transaction time per category before and during the
	// rebalance (Fig. 7 bars).
	BreakdownNormal map[sim.Category]time.Duration
	BreakdownRebal  map[sim.Category]time.Duration
}

// RunTimeline executes the rebalancing experiment and returns its series.
func RunTimeline(o TimelineOpts) (TimelineResult, error) {
	pre := o.Preset
	env := sim.NewEnv(pre.Seed)
	defer env.Close()

	cfg := cluster.DefaultConfig()
	cfg.Nodes = 6 // 0,1: initial; 2,3: scale-out targets; 4,5: helpers
	cfg.Cal = calibration(pre)
	c := cluster.New(env, cfg)
	c.Nodes[1].HW.ForceActive()

	tcfg := tpcc.Config{
		Warehouses:           pre.Warehouses,
		DistrictsPerW:        pre.DistrictsPerW,
		CustomersPerDistrict: pre.CustomersPerDistrict,
		Items:                pre.Items,
		InitialOrdersPerDist: pre.InitialOrdersPerDist,
		Seed:                 pre.Seed,
	}
	W := pre.Warehouses
	dep, err := tpcc.Deploy(c.Master, tcfg, o.Scheme, []tpcc.WarehouseRange{
		{FromW: 1, ToW: W / 2, Owner: c.Nodes[0]},
		{FromW: W/2 + 1, ToW: W, Owner: c.Nodes[1]},
	}, c.Nodes)
	if err != nil {
		return TimelineResult{}, err
	}
	var loadErr error
	env.Spawn("load", func(p *sim.Proc) { loadErr = dep.Load(p) })
	if err := env.Run(); err != nil {
		return TimelineResult{}, err
	}
	if loadErr != nil {
		return TimelineResult{}, loadErr
	}

	origin := pre.Warmup // rebalance trigger (t=0 of the plots)
	end := origin + pre.Observe

	res := TimelineResult{
		Scheme:          o.Scheme,
		Helpers:         o.Helpers,
		BreakdownNormal: map[sim.Category]time.Duration{},
		BreakdownRebal:  map[sim.Category]time.Duration{},
	}
	qps := newSeries(origin, pre.BinSize)
	rt := newSeries(origin, pre.BinSize)
	watts := newSeries(origin, pre.BinSize)

	var normalN, rebalN int
	migrating := false

	// Clients.
	var clients []*tpcc.Client
	for i := 0; i < pre.Clients; i++ {
		cl := tpcc.NewClient(i, c.Master, dep, pre.Interval, cc.SnapshotIsolation)
		cl.CollectBreakdown = o.CollectBreakdown
		cl.OnResult = func(r tpcc.Result) {
			at := r.Start + r.Latency
			if r.Committed {
				res.Commits++
				qps.add(at, 1)
				rt.add(at, float64(r.Latency)/float64(time.Millisecond))
			} else {
				res.Aborts++
			}
			if o.CollectBreakdown && r.Breakdown != nil && r.Committed {
				var into map[sim.Category]time.Duration
				switch {
				case at < origin:
					into = res.BreakdownNormal
					normalN++
				case migrating:
					into = res.BreakdownRebal
					rebalN++
				default:
					return
				}
				categorised := time.Duration(0)
				for _, cat := range sim.Categories() {
					if cat == sim.CatOther || cat == sim.CatCPU {
						continue
					}
					into[cat] += r.Breakdown.Get(cat)
					categorised += r.Breakdown.Get(cat)
				}
				if rest := r.Latency - categorised; rest > 0 {
					into[sim.CatOther] += rest
				}
			}
		}
		clients = append(clients, cl)
		cl.Start()
	}
	// Vacuum daemons on serving nodes.
	for _, n := range c.Nodes[:4] {
		n.StartVacuum(10 * time.Second)
	}
	// Power metering.
	c.Meter.OnSample = func(at time.Duration, w float64) { watts.add(at, w) }
	c.Meter.Start()

	// Rebalance controller.
	var migErr error
	env.Spawn("controller", func(p *sim.Proc) {
		p.Sleep(origin)
		migrating = true
		start := p.Now()

		// Power the target nodes (and helpers) in parallel.
		ready := sim.NewSignal(env)
		pending := 2
		boot := func(n *cluster.DataNode) {
			env.Spawn("boot", func(bp *sim.Proc) {
				n.PowerOn(bp)
				pending--
				if pending == 0 {
					ready.Fire()
				}
			})
		}
		boot(c.Nodes[2])
		boot(c.Nodes[3])
		if o.Helpers {
			pending += 2
			boot(c.Nodes[4])
			boot(c.Nodes[5])
		}
		for pending > 0 {
			ready.Wait(p)
		}
		if o.Helpers {
			c.Master.AttachHelper(p, c.Nodes[0], c.Nodes[4])
			c.Master.AttachHelper(p, c.Nodes[1], c.Nodes[5])
		}

		// Migrate the upper half of each node's warehouses: 50% of all
		// records, to the two new nodes.
		q1 := keycodec.Int64Key(int64(W/4 + 1))
		q2 := keycodec.Int64Key(int64(W/2 + 1))
		q3 := keycodec.Int64Key(int64(3*W/4 + 1))
		for _, tbl := range tpcc.PartitionedTables() {
			if err := c.Master.MigrateRangeFraction(p, tbl, q1, q2, 0.5, c.Nodes[2]); err != nil {
				migErr = err
				return
			}
			if err := c.Master.MigrateRangeFraction(p, tbl, q3, nil, 0.5, c.Nodes[3]); err != nil {
				migErr = err
				return
			}
		}
		res.MigrationTook = p.Now() - start
		migrating = false

		if o.Helpers {
			// Helpers stay on a while after the move (the paper detaches
			// them around t+370), then are turned off again.
			idle := 370*time.Second - (p.Now() - origin)
			if idle > 0 && pre.Observe > 370*time.Second {
				p.Sleep(idle)
			}
			c.Master.DetachHelper(p, c.Nodes[0])
			c.Master.DetachHelper(p, c.Nodes[1])
			c.Nodes[4].HW.PowerOff(p)
			c.Nodes[5].HW.PowerOff(p)
		}
	})

	if err := env.RunUntil(end); err != nil {
		return res, err
	}
	if migErr != nil {
		return res, migErr
	}
	res.KernelStats = env.Stats()
	for _, cl := range clients {
		cl.Stop()
	}

	trim := func(bins []Bin) []Bin {
		out := bins[:0]
		for _, b := range bins {
			if b.Start < pre.Observe { // drop the partial final bin
				out = append(out, b)
			}
		}
		return out
	}
	res.QPS = trim(qps.ratePerSecond())
	res.ResponseMs = trim(rt.bins())
	res.Watts = trim(watts.bins())
	// Joule/query: mean watts over committed throughput, bin-aligned.
	rates := map[time.Duration]float64{}
	for _, b := range res.QPS {
		rates[b.Start] = b.Mean
	}
	for _, b := range res.Watts {
		if q, ok := rates[b.Start]; ok && q > 0 {
			res.JoulePerQuery = append(res.JoulePerQuery, Bin{
				Start: b.Start, Mean: b.Mean / q, Count: b.Count,
			})
		}
	}
	if o.CollectBreakdown {
		norm := func(m map[sim.Category]time.Duration, n int) {
			if n == 0 {
				return
			}
			for cat := range m {
				m[cat] /= time.Duration(n)
			}
		}
		norm(res.BreakdownNormal, normalN)
		norm(res.BreakdownRebal, rebalN)
	}
	return res, nil
}

// MeanOver averages a series' bins whose start lies in [from, to).
func MeanOver(bins []Bin, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, b := range bins {
		if b.Start >= from && b.Start < to {
			sum += b.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatTimeline renders the four series side by side.
func FormatTimeline(label string, r TimelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (migration took %.0f s, %d commits, %d aborts)\n",
		label, r.MigrationTook.Seconds(), r.Commits, r.Aborts)
	fmt.Fprintf(&b, "%8s %10s %10s %10s %12s\n", "t(s)", "qps", "rt(ms)", "Watt", "J/query")
	idx := map[time.Duration][4]float64{}
	order := []time.Duration{}
	add := func(bins []Bin, slot int) {
		for _, bin := range bins {
			v, ok := idx[bin.Start]
			if !ok {
				order = append(order, bin.Start)
			}
			v[slot] = bin.Mean
			idx[bin.Start] = v
		}
	}
	add(r.QPS, 0)
	add(r.ResponseMs, 1)
	add(r.Watts, 2)
	add(r.JoulePerQuery, 3)
	for _, t := range order {
		v := idx[t]
		fmt.Fprintf(&b, "%8.0f %10.1f %10.1f %10.1f %12.3f\n", t.Seconds(), v[0], v[1], v[2], v[3])
	}
	return b.String()
}
