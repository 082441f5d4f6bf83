package cluster

import (
	"fmt"

	"wattdb/internal/cc"
	"wattdb/internal/exec"
)

// PartitionPlans is the planner helper behind partition-parallel queries: it
// enumerates tableName's range entries and returns one scan subplan per
// entry, placed on the entry's owning node. Each subplan scans exactly its
// entry's [Low, High) bounds — after splits several entries can share one
// backing partition, and the bounds keep parallel workers from double-
// scanning it. wrap, when non-nil, pushes per-partition work (Filter,
// Project) below the exchange edge: it receives the bare scan and the
// owning node and returns the subplan to ship — operators built there
// should charge their CPU on owner.HW, so pushed-down work runs where the
// data lives. Subplans whose owner differs from gather are wrapped in an
// exec.Remote edge pricing the wire bytes into the gathering node.
//
// Replicated tables (e.g. TPC-C ITEM) yield a single local subplan over
// gather's replica — there is nothing to parallelise.
//
// The returned plans bind the current range entries' partitions directly;
// they are snapshots of the placement, not of the routing, so a concurrent
// MigrateRange can move records out from under a subplan. Run
// partition-parallel plans on quiescent placement (experiments, analytics
// windows); the chaos harness's HTAP readers go through Session reads,
// which tolerate migration.
func (m *Master) PartitionPlans(txn *cc.Txn, tableName string, gather *DataNode, vector int, wrap func(scan exec.Operator, owner *DataNode) exec.Operator) ([]exec.Operator, error) {
	tm, err := m.Table(tableName)
	if err != nil {
		return nil, err
	}
	if tm.Replicated() {
		part := tm.Replica(gather)
		if part == nil {
			return nil, fmt.Errorf("cluster: node %d holds no replica of %s", gather.ID, tableName)
		}
		var op exec.Operator = &exec.TableScan{Part: part, Txn: txn, Vector: vector}
		if wrap != nil {
			op = wrap(op, gather)
		}
		return []exec.Operator{op}, nil
	}
	var plans []exec.Operator
	for _, e := range tm.Entries() {
		var op exec.Operator = &exec.TableScan{Part: e.Part, Txn: txn, Lo: e.Low, Hi: e.High, Vector: vector}
		owner := e.Owner
		if wrap != nil {
			op = wrap(op, owner)
		}
		if owner != gather {
			op = &exec.Remote{Child: op, Net: m.cluster.Net, ChildNode: owner.ID, ConsumerNode: gather.ID}
		}
		plans = append(plans, op)
	}
	return plans, nil
}
