package tpcc

import (
	"math/rand"
	"testing"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// deploy builds a small 2-node TPC-C deployment with half the warehouses on
// each node.
func deploy(t *testing.T, scheme table.Scheme, warehouses int) (*sim.Env, *cluster.Cluster, *Deployment) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	c := cluster.New(env, cfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}
	tcfg := DefaultConfig(warehouses)
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 100
	tcfg.InitialOrdersPerDist = 30
	tcfg.DistrictsPerW = 4
	mid := warehouses / 2
	dep, err := Deploy(c.Master, tcfg, scheme, []WarehouseRange{
		{FromW: 1, ToW: mid, Owner: c.Nodes[0]},
		{FromW: mid + 1, ToW: warehouses, Owner: c.Nodes[1]},
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
	return env, c, dep
}

func TestLoadCardinalities(t *testing.T) {
	env, c, dep := deploy(t, table.Physiological, 2)
	defer env.Close()
	cfg := dep.Cfg
	env.Spawn("check", func(p *sim.Proc) {
		checks := []struct {
			tbl  string
			want int
		}{
			{TWarehouse, cfg.Warehouses},
			{TDistrict, cfg.Warehouses * cfg.DistrictsPerW},
			{TCustomer, cfg.Warehouses * cfg.DistrictsPerW * cfg.CustomersPerDistrict},
			{TNewOrder, cfg.Warehouses * cfg.DistrictsPerW * (cfg.InitialOrdersPerDist / 3)},
			{TOrders, cfg.Warehouses * cfg.DistrictsPerW * cfg.InitialOrdersPerDist},
			{TStock, cfg.Warehouses * cfg.Items},
		}
		for _, ch := range checks {
			n, err := c.Master.RecordCount(p, ch.tbl)
			if err != nil {
				t.Errorf("%s: %v", ch.tbl, err)
				continue
			}
			if n != ch.want {
				t.Errorf("%s: %d records, want %d", ch.tbl, n, ch.want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOrderLineMatchesOrders verifies the two generator passes agree: every
// order's ol_cnt equals its number of order lines.
func TestOrderLineMatchesOrders(t *testing.T) {
	env, c, dep := deploy(t, table.Physiological, 2)
	defer env.Close()
	env.Spawn("check", func(p *sim.Proc) {
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		defer s.Abort(p)
		oSchema := dep.Schemas[TOrders]
		olSchema := dep.Schemas[TOrderLine]
		// Count order lines per (w,d,o).
		lines := map[[3]int64]int64{}
		if err := s.Scan(p, TOrderLine, nil, nil, func(_, payload []byte) bool {
			row, err := olSchema.DecodeRow(payload)
			if err != nil {
				t.Error(err)
				return false
			}
			lines[[3]int64{row[0].(int64), row[1].(int64), row[2].(int64)}]++
			return true
		}); err != nil {
			t.Error(err)
			return
		}
		orders := 0
		if err := s.Scan(p, TOrders, nil, nil, func(_, payload []byte) bool {
			row, err := oSchema.DecodeRow(payload)
			if err != nil {
				t.Error(err)
				return false
			}
			key := [3]int64{row[0].(int64), row[1].(int64), row[2].(int64)}
			if lines[key] != row[6].(int64) {
				t.Errorf("order %v: ol_cnt=%d but %d lines", key, row[6], lines[key])
				return false
			}
			orders++
			return true
		}); err != nil {
			t.Error(err)
		}
		if orders == 0 {
			t.Error("no orders scanned")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllTransactionTypesCommit(t *testing.T) {
	env, c, dep := deploy(t, table.Physiological, 2)
	defer env.Close()
	client := NewClient(1, c.Master, dep, 0, cc.SnapshotIsolation)
	results := map[TxnType]int{}
	client.OnResult = func(r Result) {
		if r.Committed {
			results[r.Type]++
		}
	}
	env.Spawn("txns", func(p *sim.Proc) {
		for typ := TxnType(0); typ < numTxnTypes; typ++ {
			for i := 0; i < 5; i++ {
				if !client.RunTyped(p, typ, 1+i%2) {
					t.Errorf("%v attempt %d did not commit", typ, i)
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for typ := TxnType(0); typ < numTxnTypes; typ++ {
		if results[typ] != 5 {
			t.Errorf("%v committed %d/5", typ, results[typ])
		}
	}
}

func TestNewOrderAdvancesDistrictCounter(t *testing.T) {
	env, c, dep := deploy(t, table.Physiological, 2)
	defer env.Close()
	env.Spawn("check", func(p *sim.Proc) {
		readNext := func() int64 {
			s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
			defer s.Abort(p)
			key, _ := dep.Schemas[TDistrict].EncodeKeyPrefix2(int64(1), int64(1))
			raw, ok, err := s.Get(p, TDistrict, key)
			if err != nil || !ok {
				t.Fatalf("district read: %v %v", ok, err)
			}
			row, _ := dep.Schemas[TDistrict].DecodeRow(raw)
			return row[5].(int64)
		}
		before := readNext()
		rng := rand.New(rand.NewSource(1))
		committedOnD1 := 0
		for committedOnD1 == 0 {
			s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
			// Force district 1 by retrying until the rng picks it.
			save := *rng
			dd := 1 + rng.Intn(dep.Cfg.DistrictsPerW)
			*rng = save
			if dd != 1 {
				rng.Intn(dep.Cfg.DistrictsPerW) // burn and move on
				s.Abort(p)
				continue
			}
			if err := dep.NewOrder(p, s, 1, rng); err != nil {
				s.Abort(p)
				t.Fatal(err)
			}
			if err := s.Commit(p); err != nil {
				t.Fatal(err)
			}
			committedOnD1++
		}
		if after := readNext(); after != before+1 {
			t.Fatalf("next_o_id %d -> %d, want +1", before, after)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	env, c, dep := deploy(t, table.Physiological, 2)
	defer env.Close()
	env.Spawn("check", func(p *sim.Proc) {
		before, _ := c.Master.RecordCount(p, TNewOrder)
		s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
		rng := rand.New(rand.NewSource(2))
		if err := dep.Delivery(p, s, 1, rng); err != nil {
			s.Abort(p)
			t.Fatal(err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatal(err)
		}
		after, _ := c.Master.RecordCount(p, TNewOrder)
		if after != before-dep.Cfg.DistrictsPerW {
			t.Fatalf("new_order count %d -> %d, want -%d", before, after, dep.Cfg.DistrictsPerW)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadDuringMigration drives a full TPC-C mix while half the
// warehouses migrate, and verifies the warehouse YTD invariant: the sum of
// district YTDs per warehouse equals the warehouse YTD (all Payment updates
// survived the move).
func TestWorkloadDuringMigration(t *testing.T) {
	for _, scheme := range []table.Scheme{table.Logical, table.Physiological} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			env, c, dep := deploy(t, scheme, 4)
			defer env.Close()
			var clients []*Client
			committed := 0
			for i := 0; i < 6; i++ {
				cl := NewClient(i, c.Master, dep, 20*time.Millisecond, cc.SnapshotIsolation)
				cl.OnResult = func(r Result) {
					if r.Committed {
						committed++
					}
				}
				clients = append(clients, cl)
				cl.Start()
			}
			env.Spawn("migrate", func(p *sim.Proc) {
				p.Sleep(200 * time.Millisecond)
				// Move warehouses 1..2 (node 0) to node 2.
				lo := keycodec.Int64Key(1)
				hi := keycodec.Int64Key(3)
				for _, tbl := range PartitionedTables() {
					if err := c.Master.MigrateRange(p, tbl, lo, hi, c.Nodes[2]); err != nil {
						t.Errorf("migrate %s: %v", tbl, err)
					}
				}
				p.Sleep(500 * time.Millisecond)
				for _, cl := range clients {
					cl.Stop()
				}
			})
			if err := env.RunUntil(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if committed < 20 {
				t.Fatalf("only %d transactions committed", committed)
			}
			env.Spawn("verify", func(p *sim.Proc) {
				s := c.Master.Begin(p, cc.SnapshotIsolation, c.Nodes[0])
				defer s.Abort(p)
				wSchema := dep.Schemas[TWarehouse]
				dSchema := dep.Schemas[TDistrict]
				distYTD := map[int64]float64{}
				if err := s.Scan(p, TDistrict, nil, nil, func(_, payload []byte) bool {
					row, _ := dSchema.DecodeRow(payload)
					distYTD[row[0].(int64)] += row[4].(float64)
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				warehouses := 0
				if err := s.Scan(p, TWarehouse, nil, nil, func(_, payload []byte) bool {
					row, _ := wSchema.DecodeRow(payload)
					w := row[0].(int64)
					// w_ytd starts at 300000, districts at 30000 each: the
					// deltas since load must match.
					wDelta := row[3].(float64) - 300000.0
					dDelta := distYTD[w] - 30000.0*float64(dep.Cfg.DistrictsPerW)
					if diff := wDelta - dDelta; diff > 0.01 || diff < -0.01 {
						t.Errorf("warehouse %d YTD drift: w=%.2f d=%.2f", w, wDelta, dDelta)
					}
					warehouses++
					return true
				}); err != nil {
					t.Error(err)
				}
				if warehouses != dep.Cfg.Warehouses {
					t.Errorf("saw %d warehouses", warehouses)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoIntentTimeoutFaultFree gates the write-intent wait rule on the
// benchmark's replicated commit path: a fault-free run of closed-loop
// clients on a 4-node cluster with two data and two coordinator replicas,
// the lock timeout at 100 ms, never ends an intent wait at the timeout.
// Deadlocks and convoys are decided at the intent instead — the counters
// show that the run had both waits and decided conflicts. Write-conflict
// aborts stay at most 6 % of the committed transactions: the rows TPC-C
// reads to update are read under their intents, and a read committed over
// moves its snapshot up rather than dying (Session.GetForUpdate).
func TestNoIntentTimeoutFaultFree(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.MasterReplicas, cfg.DataReplicas = 2, 2
	cfg.LockTimeout = 100 * time.Millisecond
	c := cluster.New(env, cfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}
	tcfg := DefaultConfig(8)
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 100
	tcfg.InitialOrdersPerDist = 30
	tcfg.DistrictsPerW = 4
	dep, err := Deploy(c.Master, tcfg, table.Physiological, []WarehouseRange{
		{FromW: 1, ToW: 4, Owner: c.Nodes[0]},
		{FromW: 5, ToW: 8, Owner: c.Nodes[1]},
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
	c.SetupReplicationDrain()
	committed, attempts := 0, 0
	var clients []*Client
	for i := 0; i < 8; i++ {
		cl := NewClient(i, c.Master, dep, 0, cc.SnapshotIsolation)
		cl.OnResult = func(r Result) {
			attempts++
			if r.Committed {
				committed++
			}
		}
		clients = append(clients, cl)
		cl.Start()
	}
	stop := false
	env.Spawn("ship-drain", func(p *sim.Proc) {
		for !stop {
			p.Sleep(20 * time.Millisecond)
			c.DrainShipQueues(p)
		}
	})
	if err := env.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop = true
	for _, cl := range clients {
		cl.Stop()
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var intents cc.IntentStats
	for _, n := range c.Nodes {
		intents.Add(n.Intents)
	}
	t.Logf("%d of %d transactions committed; intents %+v", committed, attempts, intents)
	if intents.TimedOut != 0 {
		t.Errorf("%d intent waits ended at the lock timeout, want 0", intents.TimedOut)
	}
	if intents.Waited == 0 || intents.DiedCommitted+intents.DiedBlocked == 0 {
		t.Errorf("no contention to gate: intents %+v", intents)
	}
	if conflicts := intents.DiedCommitted + intents.DiedBlocked + intents.StaleAtGrant; conflicts*100 > committed*6 {
		t.Errorf("%d write-conflict aborts, %.1f %% of %d committed, want at most 6 %%",
			conflicts, 100*float64(conflicts)/float64(committed), committed)
	}
}
