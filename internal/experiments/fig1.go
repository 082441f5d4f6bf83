package experiments

import (
	"fmt"
	"strings"

	"wattdb/internal/cc"
	"wattdb/internal/exec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Fig1Row is one bar of the paper's Fig. 1 record-throughput micro-benchmark.
type Fig1Row struct {
	Config        string
	RecordsPerSec float64
}

// Fig1Result holds all five configurations.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 reproduces the Fig. 1 micro-benchmark: a table scan feeding a
// projection under five operator placements/protocols —
// local scan; local scan+project; remote project with single-record
// next(); remote project over vectorised operators; and vectorised with an
// asynchronous buffering operator. Expected shape: ~40 k / ~34 k / <1 k /
// ~24 k / ~30 k records per second.
func Fig1(pre Preset) (Fig1Result, error) {
	// The table fits the buffer: measure the operator path, not cold reads.
	mt, err := newMicroTable(pre.Seed, 8192, table.Physiological, pre.Fig1Rows,
		"0123456789012345678901234567890123456789")
	if err != nil {
		return Fig1Result{}, err
	}
	env, c := mt.env, mt.c
	defer env.Close()
	entry := mt.tm.Entries()[0]
	cal := c.Cal

	scan := func(vector int) *exec.TableScan {
		return &exec.TableScan{
			Part:   entry.Part,
			Txn:    c.Master.Oracle.Begin(cc.SnapshotIsolation),
			Vector: vector,
		}
	}
	measure := func(name string, mk func() exec.Operator) (Fig1Row, error) {
		// Warm the buffer with one throwaway pass, then measure.
		for pass := 0; pass < 2; pass++ {
			start := env.Now()
			var n int
			var err error
			env.Spawn("q", func(p *sim.Proc) { n, err = exec.Drain(p, mk()) })
			if rerr := env.Run(); rerr != nil {
				return Fig1Row{}, rerr
			}
			if err != nil {
				return Fig1Row{}, err
			}
			if pass == 1 {
				elapsed := env.Now() - start
				return Fig1Row{name, float64(n) / elapsed.Seconds()}, nil
			}
		}
		panic("unreachable")
	}

	const vec = 64
	configs := []struct {
		name string
		mk   func() exec.Operator
	}{
		{"TBSCAN local", func() exec.Operator { return scan(1) }},
		{"L PROJECT + TBSCAN", func() exec.Operator {
			return &exec.Project{Child: scan(1), Node: c.Nodes[0].HW, Cols: []int{1}, CPUPerRow: cal.CPUTupleProj}
		}},
		{"R PROJECT + TBSCAN (single record)", func() exec.Operator {
			return &exec.Project{
				Child:     &exec.Remote{Child: scan(1), Net: c.Net, ChildNode: 0, ConsumerNode: 1},
				Node:      c.Nodes[1].HW,
				Cols:      []int{1},
				CPUPerRow: cal.CPUTupleProj,
			}
		}},
		{"R PROJECT + TBSCAN (vectorized)", func() exec.Operator {
			return &exec.Project{
				Child:     &exec.Remote{Child: scan(vec), Net: c.Net, ChildNode: 0, ConsumerNode: 1},
				Node:      c.Nodes[1].HW,
				Cols:      []int{1},
				CPUPerRow: cal.CPUTupleProj,
			}
		}},
		{"R PROJECT + R BUFFER + TBSCAN (vectorized)", func() exec.Operator {
			return &exec.Project{
				Child: &exec.Buffer{
					Child: &exec.Remote{Child: scan(vec), Net: c.Net, ChildNode: 0, ConsumerNode: 1},
					Env:   env,
					Depth: 8,
				},
				Node:      c.Nodes[1].HW,
				Cols:      []int{1},
				CPUPerRow: cal.CPUTupleProj,
			}
		}},
	}
	var res Fig1Result
	for _, cfg := range configs {
		row, err := measure(cfg.name, cfg.mk)
		if err != nil {
			return res, fmt.Errorf("fig1 %s: %w", cfg.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String formats the result as the paper's bar values.
func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — record throughput micro-benchmark\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-45s %10.0f records/s\n", row.Config, row.RecordsPerSec)
	}
	return b.String()
}
