// Package chbench is a CH-benCHmark-style analytics workload over the live
// TPC-C schema: a handful of read-only queries — joins of orders,
// order-lines, and stock, group-bys, top-k — built from the vectorised
// executor's operators and run against a snapshot-isolation session while
// OLTP traffic keeps committing. The paper's offloading experiment (Fig. 2)
// needs exactly this shape: the same query suite is cheap to run co-located
// with the OLTP home node, offloaded to a spare node (where PR 7's follower
// snapshot reads keep the scans off the primaries), or partition-parallel
// through the exchange operator.
package chbench

import (
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// SessionScan adapts a cluster session range scan to the exec.Operator
// interface. It is the analytics path's table access: Session.Scan routes
// each range entry to its owner — or to a follower replica when the session
// qualifies for snapshot offloading — so the same query plan measures
// co-located and offloaded execution without changes. The scan is blocking:
// Open drains the range into an accumulated batch (columnar decode), Next
// streams it in Vector-sized slices. Output is in key order, declared via
// the Ordered metadata so merge joins can consume scans directly.
//
// A scan is reused: set Sess to the next query's session and Open again.
// The accumulated batch keeps its capacity across Opens, so a warm scan
// decodes into storage it already has. Sess is read only between Open and
// Close; the caller keeps the session alive for that span.
type SessionScan struct {
	Sess   *cluster.Session
	Table  string
	Schema *table.Schema
	Lo, Hi []byte
	Vector int

	acc       *table.Batch
	out       *table.Batch
	pos       int
	emit      func(k, payload []byte) bool
	decodeErr error
}

// Open runs the scan and buffers the decoded rows.
func (s *SessionScan) Open(p *sim.Proc) error {
	if s.Vector <= 0 {
		s.Vector = 1
	}
	if s.acc == nil {
		s.acc = table.NewBatch(s.Schema)
		s.out = table.NewBatch(s.Schema)
		s.emit = func(k, payload []byte) bool {
			if err := s.Schema.AppendDecoded(s.acc, payload); err != nil {
				s.decodeErr = err
				return false
			}
			return true
		}
	}
	s.acc.Reset()
	s.pos, s.decodeErr = 0, nil
	if err := s.Sess.Scan(p, s.Table, s.Lo, s.Hi, s.emit); err != nil {
		return err
	}
	return s.decodeErr
}

// Next streams the buffered rows.
func (s *SessionScan) Next(p *sim.Proc) (*table.Batch, error) {
	if s.pos >= s.acc.Len() {
		return nil, nil
	}
	end := s.pos + s.Vector
	if end > s.acc.Len() {
		end = s.acc.Len()
	}
	s.out.Reset()
	for i := s.pos; i < end; i++ {
		s.out.AppendFrom(s.acc, i)
	}
	s.pos = end
	return s.out, nil
}

// Close releases the buffered rows, keeping their storage for the next Open.
func (s *SessionScan) Close(p *sim.Proc) {
	if s.acc != nil {
		s.acc.Reset()
	}
}

// Ordering: session scans deliver rows in primary-key order.
func (s *SessionScan) Ordering() []int {
	ord := make([]int, s.Schema.KeyCols)
	for i := range ord {
		ord[i] = i
	}
	return ord
}

// Runner builds the query suite against one deployment. Node is where the
// query's operators charge their CPU — the analytics home; the placement of
// the underlying reads is the session's business (owner or follower).
type Runner struct {
	Dep       *tpcc.Deployment
	Node      *hw.Node
	CPUPerRow time.Duration
	Vector    int
}

// Query is one named analytics plan. Plan(sess) hands out an operator tree
// whose scans read sess's snapshot, and the caller owns that tree until it
// closes the root (exec.Drain and exec.Collect always do). Closing puts the
// tree on the query's free list, where the next Plan call takes it and
// re-opens it warm, with its batches, sort permutation and hash tables at
// the capacity the last run left. A tree has one user at a time: Plan builds
// a new one when every tree it has built is still open. A Query is not safe
// for use by concurrent goroutines; simulated processes are fine, since one
// runs at a time.
type Query struct {
	Name string
	Plan func(sess *cluster.Session) exec.Operator
}

// plan is one operator tree of a Query: the root, the session scans at its
// leaves, and the free list Close returns it to.
type plan struct {
	exec.Operator
	scans []*SessionScan
	free  *[]*plan
	inUse bool
}

// Close closes the tree and returns it to its query's free list. The scans
// drop their session, so a tree on the free list keeps none alive.
func (t *plan) Close(p *sim.Proc) {
	t.Operator.Close(p)
	if !t.inUse {
		return
	}
	t.inUse = false
	for _, s := range t.scans {
		s.Sess = nil
	}
	*t.free = append(*t.free, t)
}

func (r *Runner) vector() int {
	if r.Vector > 0 {
		return r.Vector
	}
	return 64
}

// query makes a Query whose trees build calls into being, one per
// concurrent user. build gets the function that makes the tree's session
// scans.
func (r *Runner) query(name string, build func(scan func(tbl string) *SessionScan) exec.Operator) Query {
	var free []*plan
	return Query{Name: name, Plan: func(sess *cluster.Session) exec.Operator {
		var t *plan
		if n := len(free); n > 0 {
			t, free = free[n-1], free[:n-1]
		} else {
			t = &plan{free: &free}
			t.Operator = build(func(tbl string) *SessionScan {
				s := &SessionScan{Table: tbl, Schema: r.Dep.Schemas[tbl], Vector: r.vector()}
				t.scans = append(t.scans, s)
				return s
			})
		}
		for _, s := range t.scans {
			s.Sess = sess
		}
		t.inUse = true
		return t
	}}
}

// Queries returns the CH-style suite. Column indexes reference the TPC-C
// schemas (schema.go); joined schemas are left columns then right columns.
// Each call returns a new suite with free lists of its own.
func (r *Runner) Queries() []Query {
	ol := len(r.Dep.Schemas[tpcc.TOrders].Columns) // order_line offset in orders⋈order_line
	sl := len(r.Dep.Schemas[tpcc.TStock].Columns)  // order_line offset in stock⋈order_line
	return []Query{
		// Q1-style: per-line-number count and revenue over all order lines.
		r.query("lineitem-agg", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child:     scan(tpcc.TOrderLine),
				Node:      r.Node,
				GroupCol:  3, // ol_number
				SumCol:    7, // ol_amount
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
		// Top-k order lines by amount (sort + limit).
		r.query("top-amounts", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.Limit{
				N: 10,
				Child: &exec.Sort{
					Child: scan(tpcc.TOrderLine),
					Node:  r.Node,
					Less: func(b *table.Batch, i, j int) bool {
						return b.Float(7, i) > b.Float(7, j) // ol_amount desc
					},
					CPUPerRow: r.CPUPerRow, Vector: r.vector(),
				},
			}
		}),
		// Carrier distribution: orders per carrier, total line count.
		r.query("carrier-dist", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child:     scan(tpcc.TOrders),
				Node:      r.Node,
				GroupCol:  5, // o_carrier_id
				SumCol:    6, // o_ol_cnt
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
		// Revenue per customer: orders ⋈ order_line on (w, d, o), hash.
		r.query("cust-revenue", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child: &exec.HashJoin{
					Build:     scan(tpcc.TOrders),
					Probe:     scan(tpcc.TOrderLine),
					Node:      r.Node,
					BuildKeys: []int{0, 1, 2},
					ProbeKeys: []int{0, 1, 2},
					CPUPerRow: r.CPUPerRow, Vector: r.vector(),
				},
				Node:      r.Node,
				GroupCol:  3,      // o_c_id
				SumCol:    ol + 7, // ol_amount
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
		// Quantity shipped per item: stock ⋈ order_line on supplying
		// warehouse and item, hash.
		r.query("item-flow", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child: &exec.HashJoin{
					Build:     scan(tpcc.TStock),
					Probe:     scan(tpcc.TOrderLine),
					Node:      r.Node,
					BuildKeys: []int{0, 1}, // s_w_id, s_i_id
					ProbeKeys: []int{5, 4}, // ol_supply_w_id, ol_i_id
					CPUPerRow: r.CPUPerRow, Vector: r.vector(),
				},
				Node:      r.Node,
				GroupCol:  1,      // s_i_id
				SumCol:    sl + 6, // ol_quantity
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
		// Revenue per carrier: orders ⋈ order_line on the shared (w, d, o)
		// key prefix — both scans are key-ordered, so this is the merge
		// join's natural habitat (asserted via the Ordered metadata).
		r.query("carrier-revenue", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child: &exec.MergeJoin{
					Left:      scan(tpcc.TOrders),
					Right:     scan(tpcc.TOrderLine),
					Node:      r.Node,
					LeftKeys:  []int{0, 1, 2},
					RightKeys: []int{0, 1, 2},
					CPUPerRow: r.CPUPerRow, Vector: r.vector(),
				},
				Node:      r.Node,
				GroupCol:  5,      // o_carrier_id
				SumCol:    ol + 7, // ol_amount
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
		// Top-5 customers by revenue: cust-revenue's aggregate under a
		// descending sort and limit (group schema is [group, count, sum]).
		r.query("top-customers", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.Limit{
				N: 5,
				Child: &exec.Sort{
					Child: &exec.GroupAgg{
						Child: &exec.HashJoin{
							Build:     scan(tpcc.TOrders),
							Probe:     scan(tpcc.TOrderLine),
							Node:      r.Node,
							BuildKeys: []int{0, 1, 2},
							ProbeKeys: []int{0, 1, 2},
							CPUPerRow: r.CPUPerRow, Vector: r.vector(),
						},
						Node:      r.Node,
						GroupCol:  3,
						SumCol:    ol + 7,
						CPUPerRow: r.CPUPerRow, Vector: r.vector(),
					},
					Node: r.Node,
					Less: func(b *table.Batch, i, j int) bool {
						return b.Float(2, i) > b.Float(2, j) // sum desc
					},
					CPUPerRow: r.CPUPerRow, Vector: r.vector(),
				},
			}
		}),
		// Undelivered orders per district (carrier 0 = not yet delivered).
		r.query("undelivered", func(scan func(string) *SessionScan) exec.Operator {
			return &exec.GroupAgg{
				Child: &exec.Filter{
					Child:     scan(tpcc.TOrders),
					Node:      r.Node,
					Pred:      func(b *table.Batch, i int) bool { return b.Int(5, i) == 0 },
					CPUPerRow: r.CPUPerRow,
				},
				Node:      r.Node,
				GroupCol:  1, // o_d_id
				SumCol:    -1,
				CPUPerRow: r.CPUPerRow, Vector: r.vector(),
			}
		}),
	}
}

// ParallelLineitemAgg is the partition-parallel variant of the Q1-style
// aggregate: an exchange fans the order_line scan over every range entry,
// placed on the owning node, with the projection to (ol_number, ol_amount)
// pushed below the exchange so remote legs ship two columns instead of
// nine; the merged stream aggregates on the gathering node. Unlike the
// session-based suite this binds partitions directly (quiescent placement
// only — see Master.PartitionPlans).
func (r *Runner) ParallelLineitemAgg(m *cluster.Master, txn *cc.Txn, gather *cluster.DataNode) (exec.Operator, error) {
	plans, err := m.PartitionPlans(txn, tpcc.TOrderLine, gather, r.vector(),
		func(scan exec.Operator, owner *cluster.DataNode) exec.Operator {
			return &exec.Project{
				Child:     scan,
				Node:      owner.HW,
				Cols:      []int{3, 7}, // ol_number, ol_amount
				CPUPerRow: r.CPUPerRow,
			}
		})
	if err != nil {
		return nil, err
	}
	return &exec.GroupAgg{
		Child:     &exec.Exchange{Plans: plans, Env: m.Cluster().Env},
		Node:      gather.HW,
		GroupCol:  0,
		SumCol:    1,
		CPUPerRow: r.CPUPerRow, Vector: r.vector(),
	}, nil
}
