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
)

// Fig3Row is one update-ratio point of the MVCC vs MGL-RX comparison.
type Fig3Row struct {
	UpdatePct      int
	MVCCPerMin     float64
	LockingPerMin  float64
	MVCCStorage    float64 // peak storage relative to initial, percent
	LockingStorage float64
}

// Fig3Result holds the sweep.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 reproduces the paper's concurrency-control micro-benchmark:
// transaction throughput and storage consumption under MVCC versus
// multi-granularity RX locking while 50% of a table's records are being
// moved to another partition, across read/update mixes. Expected shape:
// MVCC's advantage grows from ~15% (read-only) to ~90% (all updates), at
// the price of higher storage for retained versions.
func Fig3(pre Preset) (Fig3Result, error) {
	records := pre.Fig3Rows
	run := func(mode cc.Mode, updatePct int) (perMin float64, storagePct float64, err error) {
		mt, err := newMicroTable(pre.Seed, 1024, table.Logical, records, "value-value-value-value-value-value")
		if err != nil {
			return 0, 0, err
		}
		env, c, schema, tm := mt.env, mt.c, mt.schema, mt.tm
		defer env.Close()
		c.Master.MoveMode = mode

		storageNow := func() int64 {
			var total int64
			seen := map[*table.Partition]bool{}
			for _, e := range tm.Entries() {
				for _, cand := range []*table.Partition{e.Part, e.OldPart} {
					if cand != nil && !seen[cand] {
						seen[cand] = true
						total += cand.StorageBytes()
					}
				}
			}
			total += c.Nodes[0].Log.RetainedBytes() + c.Nodes[1].Log.RetainedBytes()
			return total
		}
		initial := storageNow()
		peak := initial

		committed := 0
		moveDone := false
		// Clients: 4 workers issuing 4-record transactions, read-only or
		// update per the ratio.
		for w := 0; w < 4; w++ {
			w := w
			env.Spawn(fmt.Sprintf("client-%d", w), func(p *sim.Proc) {
				rng := env.Rand
				// Every update writes the row (0, "updated-by-<w>").
				upd := table.NewBatch(schema)
				upd.AppendZero()
				upd.SetBytes(1, 0, fmt.Appendf(nil, "updated-by-%d", w))
				payload, _ := schema.AppendEncoded(nil, upd, 0)
				for !moveDone {
					s := c.Master.Begin(p, mode, c.Nodes[0])
					update := rng.Intn(100) < updatePct
					ok := true
					for i := 0; i < 4; i++ {
						k := keycodec.Int64Key(int64(rng.Intn(records)))
						if update {
							if err := s.Put(p, "t", k, payload); err != nil {
								ok = false
								break
							}
						} else {
							if _, _, err := s.Get(p, "t", k); err != nil {
								ok = false
								break
							}
						}
					}
					if ok && s.Commit(p) == nil {
						committed++
					} else {
						s.Abort(p)
						p.Sleep(2 * time.Millisecond)
					}
					p.Sleep(time.Millisecond)
				}
			})
		}
		// Storage sampler.
		env.Spawn("sampler", func(p *sim.Proc) {
			for !moveDone {
				p.Sleep(500 * time.Millisecond)
				if s := storageNow(); s > peak {
					peak = s
				}
			}
		})
		// Housekeeping: vacuum and fuzzy checkpoints as a real deployment
		// would (otherwise both schemes' storage grows without bound). The
		// checkpoint truncates by its redo point — never past a dirty page's
		// recLSN or an in-flight transaction's first record — instead of the
		// raw flush-everything checkpoint LSN.
		for _, n := range []*cluster.DataNode{c.Nodes[0], c.Nodes[1]} {
			n.StartVacuum(2 * time.Second)
			node := n
			env.Spawn("checkpointer", func(p *sim.Proc) {
				for !moveDone {
					p.Sleep(2 * time.Second)
					if _, err := c.CheckpointNode(p, node, 0); err != nil {
						return
					}
				}
			})
		}
		var moveTook time.Duration
		var moveErr error
		env.Spawn("mover", func(p *sim.Proc) {
			start := p.Now()
			mid := keycodec.Int64Key(int64(records / 2))
			moveErr = c.Master.MigrateRange(p, "t", mid, nil, c.Nodes[1])
			moveTook = p.Now() - start
			moveDone = true
		})
		if err := env.RunUntil(30 * time.Minute); err != nil {
			return 0, 0, err
		}
		if moveErr != nil {
			return 0, 0, moveErr
		}
		if s := storageNow(); s > peak {
			peak = s
		}
		perMin = float64(committed) / moveTook.Minutes()
		storagePct = float64(peak) / float64(initial) * 100
		return perMin, storagePct, nil
	}

	var res Fig3Result
	for _, pct := range pre.Fig3UpdatePcts {
		mvccTA, mvccSt, err := run(cc.SnapshotIsolation, pct)
		if err != nil {
			return res, fmt.Errorf("fig3 mvcc %d%%: %w", pct, err)
		}
		lockTA, lockSt, err := run(cc.Locking, pct)
		if err != nil {
			return res, fmt.Errorf("fig3 locking %d%%: %w", pct, err)
		}
		res.Rows = append(res.Rows, Fig3Row{pct, mvccTA, lockTA, mvccSt, lockSt})
	}
	return res, nil
}

// String formats the sweep like the paper's combined bar/line chart.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — MVCC vs MGL-RX while moving 50%% of records\n")
	fmt.Fprintf(&b, "%8s %14s %14s %12s %14s %16s\n",
		"update%", "MVCC TA/min", "MGL TA/min", "MVCC/MGL", "MVCC stor%", "MGL stor%")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.LockingPerMin > 0 {
			ratio = row.MVCCPerMin / row.LockingPerMin
		}
		fmt.Fprintf(&b, "%8d %14.0f %14.0f %11.2fx %13.1f%% %15.1f%%\n",
			row.UpdatePct, row.MVCCPerMin, row.LockingPerMin, ratio, row.MVCCStorage, row.LockingStorage)
	}
	return b.String()
}
