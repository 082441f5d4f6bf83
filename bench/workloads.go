package main

import (
	"fmt"
	"time"
)

// spec is one workload: a configuration of the single driver in driver.go.
// Durations are the reference simulated windows at --seconds = runSeconds.
type spec struct {
	Name string
	Why  string

	// Cluster shape.
	Nodes          int // cluster size
	Active         int // nodes 0..Active-1 are powered at t=0
	MasterReplicas int
	DataReplicas   int
	Frames         int // buffer frames per node

	// Data: TPC-C warehouses on nodes 0,1 at the Quick per-warehouse scale,
	// or (Warehouses == 0) the KV table split over nodes 0,1.
	Warehouses int
	KVKeys     int

	// Offered load. Interval 0 is a closed loop with zero think time;
	// otherwise each client submits one transaction per Interval (TPC-C:
	// paced closed loop as tpcc.Client; KV: timed from when it was due).
	Clients  int
	Interval time.Duration

	Warmup  time.Duration
	Measure time.Duration

	// Benchmark-owned daemons (0 = off).
	ShipDrain  time.Duration
	Vacuum     time.Duration
	Checkpoint time.Duration

	Rebalance bool // at window start boot nodes 2,3 and move 50 % of every table
	Analytics int  // chbench streams homed on node 2 with PreferFollower
	QueryPace time.Duration
	Faults    bool // the scripted crash / leader crash / disk loss sequence
}

// Quick per-warehouse TPC-C scale (experiments.Quick), fixed for the ledger.
const (
	districtsPerW        = 4
	customersPerDistrict = 60
	items                = 200
	initialOrdersPerDist = 60
)

const (
	kvValueBytes = 100
	// Faults land at these fractions of the measured window, each followed
	// by a restart after faultDowntime (plus the calibrated boot time).
	faultDowntime = 2 * time.Second
)

var faultAt = [3]float64{1.0 / 8, 3.0 / 8, 5.0 / 8}

var workloads = []spec{
	{
		Name:  "tpcc_commit",
		Why:   "closed-loop TPC-C on a fully replicated cluster whose data fits the pool: the replicated commit path (cc intents, WAL group commit, follower ship, 2PC decision force) does the work",
		Nodes: 4, Active: 4, MasterReplicas: 2, DataReplicas: 2, Frames: 768,
		Warehouses: 8, Clients: 8, Interval: 0,
		Warmup: 10 * time.Second, Measure: 50 * time.Second,
		ShipDrain: 20 * time.Millisecond, Vacuum: 10 * time.Second,
	},
	{
		Name:  "tpcc_rebalance",
		Why:   "the paper's Fig 6 run: paced TPC-C while 50 % of every table migrates to two booting nodes, pool smaller than the data, no replication, so migration, segment moves and cold misses do the work",
		Nodes: 6, Active: 2, Frames: 128,
		Warehouses: 4, Clients: 32, Interval: 100 * time.Millisecond,
		Warmup: 30 * time.Second, Measure: 120 * time.Second,
		Vacuum: 10 * time.Second, Rebalance: true,
	},
	{
		Name:  "htap_offload",
		Why:   "paced TPC-C beside two paced chbench streams reading follower replicas from a spare node: exec operators, btree cursors, batch decode and follower reads dominate, OLTP p99 shows interference",
		Nodes: 4, Active: 4, DataReplicas: 2, Frames: 768,
		Warehouses: 4, Clients: 32, Interval: 100 * time.Millisecond,
		Warmup: 10 * time.Second, Measure: 30 * time.Second,
		ShipDrain: 20 * time.Millisecond, Vacuum: 10 * time.Second,
		Analytics: 2, QueryPace: 250 * time.Millisecond,
	},
	{
		Name:  "kv_recover",
		Why:   "open-loop KV reads, updates and cross-partition 2PC through a plain crash, a leader crash and a disk loss: the only workload where WAL replay, checkpoints, election and rebuild from replicas run",
		Nodes: 4, Active: 4, MasterReplicas: 2, DataReplicas: 2, Frames: 512,
		KVKeys: 20000, Clients: 16, Interval: 20 * time.Millisecond,
		Warmup: 10 * time.Second, Measure: 80 * time.Second,
		ShipDrain: 20 * time.Millisecond, Checkpoint: 5 * time.Second,
		Faults: true,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with its simulated windows multiplied by
// seconds/runSeconds. Client counts, data scale and buffer sizes never
// change; only how long the same load is observed.
func (s spec) scaled(seconds float64) spec {
	f := seconds / runSeconds
	s.Warmup = time.Duration(float64(s.Warmup) * f)
	s.Measure = time.Duration(float64(s.Measure) * f)
	return s
}
