package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/exec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Fig2Row is one measurement of the offloading experiment: throughput at a
// given concurrency, with the sort local vs offloaded.
type Fig2Row struct {
	Concurrent int
	LocalQPS   float64
	RemoteQPS  float64
}

// Fig2Result holds the sweep.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 reproduces the paper's offloading study: concurrent scan+sort
// queries on one node, versus the sort operator offloaded to a second node.
// At low concurrency local execution wins (no network); as concurrency
// grows, the loaded node's CPU and sort workspace saturate and offloading
// overtakes (Fig. 2's crossover).
func Fig2(pre Preset) (Fig2Result, error) {
	rows := pre.Fig2Rows
	run := func(concurrent int, offload bool) (float64, error) {
		mt, err := newMicroTable(pre.Seed, 8192, table.Physiological, rows, "payload-payload-payload-payload")
		if err != nil {
			return 0, err
		}
		env, c := mt.env, mt.c
		defer env.Close()
		part := mt.tm.Entries()[0].Part
		cal := c.Cal
		// Per-node sort workspace: enough for ~16 concurrent sorts; beyond
		// that, sorts spill with growing pass counts.
		workspace := [2]*sim.Resource{
			sim.NewResource(env, int64(rows)*50*16),
			sim.NewResource(env, int64(rows)*50*16),
		}
		groups := [2]*exec.SortGroup{{}, {}}

		const measureFor = 30 * time.Second
		done := 0
		stop := false
		for q := 0; q < concurrent; q++ {
			env.Spawn(fmt.Sprintf("query-%d", q), func(p *sim.Proc) {
				for !stop {
					scan := &exec.TableScan{
						Part:   part,
						Txn:    c.Master.Oracle.Begin(cc.SnapshotIsolation),
						Vector: 256,
					}
					var child exec.Operator = scan
					node, nodeID := c.Nodes[0].HW, 0
					if offload {
						child = &exec.Remote{Child: scan, Net: c.Net, ChildNode: 0, ConsumerNode: 1}
						node, nodeID = c.Nodes[1].HW, 1
					}
					plan := &exec.Sort{
						Child:     child,
						Node:      node,
						Less:      func(b *table.Batch, i, j int) bool { return bytes.Compare(b.Bytes(1, i), b.Bytes(1, j)) < 0 },
						CPUPerRow: cal.CPUTupleSort,
						Vector:    256,
						Workspace: workspace[nodeID],
						SpillDisk: c.Nodes[nodeID].HW.LogDisk(), // the HDD
						Group:     groups[nodeID],
					}
					if _, err := exec.Drain(p, plan); err != nil {
						return
					}
					if !stop {
						done++
					}
				}
			})
		}
		env.Spawn("stopper", func(p *sim.Proc) {
			p.Sleep(measureFor)
			stop = true
		})
		if err := env.RunUntil(measureFor + 2*time.Minute); err != nil {
			return 0, err
		}
		return float64(done) / measureFor.Seconds(), nil
	}

	var res Fig2Result
	for _, n := range pre.Fig2Levels {
		local, err := run(n, false)
		if err != nil {
			return res, err
		}
		remote, err := run(n, true)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Fig2Row{n, local, remote})
	}
	return res, nil
}

// String formats the sweep as the paper's grouped bars.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — offloading the sort operator, throughput (queries/s)\n")
	fmt.Fprintf(&b, "%12s %14s %14s\n", "concurrent", "L SORT local", "R SORT remote")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12d %14.2f %14.2f\n", row.Concurrent, row.LocalQPS, row.RemoteQPS)
	}
	return b.String()
}
