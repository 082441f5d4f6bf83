// Energy: demonstrates the paper's motivation — a cluster that adjusts its
// size to the workload to approximate energy proportionality. A day-curve
// of load (quiet, rush hour, quiet) drives the master's threshold policy
// (Sect. 3.4); the program reports power draw, energy, and node count over
// time.
package main

import (
	"fmt"
	"log"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

func main() {
	env := sim.NewEnv(11)
	defer env.Close()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	c := cluster.New(env, cfg)

	tcfg := tpcc.DefaultConfig(4)
	tcfg.CustomersPerDistrict = 40
	tcfg.InitialOrdersPerDist = 40
	dep, err := tpcc.Deploy(c.Master, tcfg, table.Physiological, []tpcc.WarehouseRange{
		{FromW: 1, ToW: 4, Owner: c.Nodes[0]}, // minimal configuration: one node
	}, c.Nodes)
	if err != nil {
		log.Fatal(err)
	}
	env.Spawn("load", func(p *sim.Proc) {
		if err := dep.Load(p); err != nil {
			log.Fatal(err)
		}
	})
	if err := env.Run(); err != nil {
		log.Fatal(err)
	}

	// Policy: scale out over 80% CPU, in under 25%; redistribution moves
	// the upper half of the busiest node's warehouses.
	policy := cluster.DefaultPolicy()
	policy.Enabled = true
	policy.OnScaleOut = func(p *sim.Proc, n *cluster.DataNode) {
		fmt.Printf("t=%4.0fs: scale-OUT to node %d, moving warehouses 3-4\n", p.Now().Seconds(), n.ID)
		for _, tbl := range tpcc.PartitionedTables() {
			if err := c.Master.MigrateRangeFraction(p, tbl, keycodec.Int64Key(3), nil, 0.5, n); err != nil {
				log.Printf("scale-out move %s: %v", tbl, err)
			}
		}
	}
	policy.OnScaleIn = func(p *sim.Proc, victim *cluster.DataNode) {
		fmt.Printf("t=%4.0fs: scale-IN of node %d, consolidating onto node 0\n", p.Now().Seconds(), victim.ID)
		for _, tbl := range tpcc.PartitionedTables() {
			if err := c.Master.MigrateRange(p, tbl, keycodec.Int64Key(3), nil, c.Nodes[0]); err != nil {
				log.Printf("scale-in move %s: %v", tbl, err)
			}
		}
		// Drop drained ghosts so the victim can power off on a later tick.
	}
	mon := c.Master.StartMonitor(5*time.Second, policy)
	c.Meter.Start()

	// Day curve: load ramps up at t=60s and down at t=240s.
	committed := 0
	clients := make([]*tpcc.Client, 0, 24)
	for i := 0; i < 24; i++ {
		cl := tpcc.NewClient(i, c.Master, dep, 40*time.Millisecond, cc.SnapshotIsolation)
		cl.OnResult = func(r tpcc.Result) {
			if r.Committed {
				committed++
			}
		}
		clients = append(clients, cl)
	}
	env.Spawn("day-curve", func(p *sim.Proc) {
		clients[0].Start() // trickle load overnight
		clients[1].Start()
		p.Sleep(60 * time.Second)
		fmt.Printf("t=%4.0fs: rush hour begins (24 clients)\n", p.Now().Seconds())
		for _, cl := range clients[2:] {
			cl.Start()
		}
		p.Sleep(180 * time.Second)
		fmt.Printf("t=%4.0fs: rush hour ends (back to 2 clients)\n", p.Now().Seconds())
		for _, cl := range clients[2:] {
			cl.Stop()
		}
	})
	// Report power every minute.
	env.Spawn("reporter", func(p *sim.Proc) {
		for {
			p.Sleep(30 * time.Second)
			active := 0
			for _, n := range c.Nodes {
				if n.HW.State() == hw.PowerActive {
					active++
				}
			}
			fmt.Printf("t=%4.0fs: %d active nodes, %6.0f J consumed, %d txns committed\n",
				p.Now().Seconds(), active, c.Meter.EnergyJoules(), committed)
		}
	})

	if err := env.RunUntil(6 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal: %d transactions, %.0f J (%.3f J/txn)\n",
		committed, c.Meter.EnergyJoules(), c.Meter.EnergyJoules()/float64(committed))
	fmt.Printf("scale-ins refused (the node still held data or followed a live log): %d\n", mon.RefusedScaleIns)
}
