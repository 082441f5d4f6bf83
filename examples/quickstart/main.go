// Quickstart: build a two-node WattDB cluster, create a table, run
// transactions with snapshot isolation, and read the results back —
// everything on the simulated hardware with a virtual clock.
package main

import (
	"fmt"
	"log"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

func main() {
	env := sim.NewEnv(42)
	defer env.Close()

	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	c := cluster.New(env, cfg)
	c.Nodes[1].HW.ForceActive()

	// An accounts table, range-partitioned across the two nodes at id 500,
	// using the paper's physiological partitioning.
	schema := &table.Schema{
		ID: 1, Name: "accounts", KeyCols: 1,
		Columns: []table.Column{
			{Name: "id", Type: table.ColInt64},
			{Name: "owner", Type: table.ColString},
			{Name: "balance", Type: table.ColFloat64},
		},
	}
	mid, _ := schema.EncodeKeyPrefix1(int64(500))
	if _, err := c.Master.CreateTable(schema, table.Physiological, []cluster.RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	}); err != nil {
		log.Fatal(err)
	}

	env.Spawn("app", func(p *sim.Proc) {
		// Insert 1000 accounts in one transaction.
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		acct := table.NewBatch(schema)
		for i := 0; i < 1000; i++ {
			acct.Reset()
			acct.AppendZero()
			acct.SetInt(0, 0, int64(i))
			acct.SetBytes(1, 0, fmt.Appendf(nil, "owner-%03d", i))
			acct.SetFloat(2, 0, 100.0)
			key, _ := schema.AppendKey(nil, acct, 0)
			payload, _ := schema.AppendEncoded(nil, acct, 0)
			if err := s.Put(p, "accounts", key, payload); err != nil {
				log.Fatal(err)
			}
		}
		if err := s.Commit(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded 1000 accounts at t=%v\n", p.Now())

		// Transfer between accounts on different nodes: a distributed
		// transaction committed with 2PC. Rows round-trip through a reused
		// columnar batch: decode-into, mutate the typed column, encode-from.
		xfer := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		b := table.NewBatch(schema)
		var payload []byte
		move := func(id int64, delta float64) {
			key, _ := schema.EncodeKeyPrefix1(id)
			raw, ok, err := xfer.Get(p, "accounts", key)
			if err != nil || !ok {
				log.Fatalf("account %d: %v %v", id, ok, err)
			}
			b.Reset()
			if err := schema.AppendDecoded(b, raw); err != nil {
				log.Fatal(err)
			}
			b.SetFloat(2, 0, b.Float(2, 0)+delta)
			payload, _ = schema.AppendEncoded(payload[:0], b, 0)
			if err := xfer.Put(p, "accounts", key, payload); err != nil {
				log.Fatal(err)
			}
		}
		move(42, -25)  // node 0
		move(900, +25) // node 1
		if err := xfer.Commit(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transferred 25.00 from #42 to #900 (2PC) at t=%v\n", p.Now())

		// Snapshot read: sum all balances; the invariant must hold. The scan
		// decodes every record into the same one-row batch — no boxing.
		r := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[1])
		defer r.Abort(p)
		total := 0.0
		count := 0
		if err := r.Scan(p, "accounts", nil, nil, func(_, raw []byte) bool {
			b.Reset()
			if err := schema.AppendDecoded(b, raw); err != nil {
				log.Fatal(err)
			}
			total += b.Float(2, 0)
			count++
			return true
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scanned %d accounts, total balance %.2f (invariant: 100000.00)\n", count, total)
	})

	if err := env.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation finished at virtual time %v\n", env.Now())
}
