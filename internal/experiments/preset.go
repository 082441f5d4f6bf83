// Package experiments regenerates every figure of the paper's evaluation:
// the operator micro-benchmarks (Figs. 1 and 2), the MVCC-vs-locking study
// (Fig. 3), the TPC-C rebalancing timelines for the three partitioning
// schemes (Fig. 6), the query runtime breakdown (Fig. 7), and the
// helper-node variant (Fig. 8). Each experiment builds its own simulated
// cluster, runs deterministically, and returns the series the paper plots.
package experiments

import (
	"time"

	"wattdb/internal/hw"
)

// Preset bundles the scale knobs of an experiment run: every figure reads
// its scale from here, so a preset states each figure's size once.
type Preset struct {
	// Figs. 1–3: the micro-benchmark table's size, Fig. 2's concurrency
	// levels and Fig. 3's update percentages.
	Fig1Rows       int
	Fig2Rows       int
	Fig2Levels     []int
	Fig3Rows       int
	Fig3UpdatePcts []int

	// TPC-C scale.
	Warehouses           int
	DistrictsPerW        int
	CustomersPerDistrict int
	Items                int
	InitialOrdersPerDist int

	// Offered load: Clients submitting one transaction per Interval.
	Clients  int
	Interval time.Duration

	// Timeline around the rebalance trigger (t=0): observation starts at
	// -Warmup and ends at +Observe.
	Warmup  time.Duration
	Observe time.Duration
	BinSize time.Duration

	// BufferFrames per node. Quick's 768 frames hold its whole W = 4
	// dataset (miss ratio 0.02 % in the Fig 6 run, bench/README.md), so the
	// figures run with the data in DRAM rather than in the paper's
	// DB >> DRAM regime; the ledger's tpcc_rebalance uses 128 frames to get
	// cold misses.
	BufferFrames int

	Seed int64
}

// Quick is the CI-scale preset: small dataset, 2-minute simulated window.
// Shapes hold; absolute numbers are proportionally smaller than Paper's.
func Quick() Preset {
	return Preset{
		Fig1Rows:             5000,
		Fig2Rows:             800,
		Fig2Levels:           []int{1, 10, 100},
		Fig3Rows:             5000,
		Fig3UpdatePcts:       []int{0, 50, 100},
		Warehouses:           4,
		DistrictsPerW:        4,
		CustomersPerDistrict: 60,
		Items:                200,
		InitialOrdersPerDist: 60,
		Clients:              32,
		Interval:             100 * time.Millisecond,
		Warmup:               30 * time.Second,
		Observe:              120 * time.Second,
		BinSize:              10 * time.Second,
		BufferFrames:         768,
		Seed:                 1,
	}
}

// Paper approximates the paper's run: the full −180 s..+570 s window and an
// offered load that saturates the initial two nodes near their capacity
// (the paper's testbed sits around 600 qps before rebalancing).
func Paper() Preset {
	return Preset{
		Fig1Rows:             20000,
		Fig2Rows:             2000,
		Fig2Levels:           []int{1, 10, 100, 1000},
		Fig3Rows:             20000,
		Fig3UpdatePcts:       []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Warehouses:           16,
		DistrictsPerW:        10,
		CustomersPerDistrict: 120,
		Items:                500,
		InitialOrdersPerDist: 120,
		Clients:              120,
		Interval:             100 * time.Millisecond,
		Warmup:               180 * time.Second,
		Observe:              570 * time.Second,
		BinSize:              10 * time.Second,
		BufferFrames:         2048,
		Seed:                 1,
	}
}

// calibration returns the hardware constants used by all experiments:
// the paper's node/power model with test-scale segments.
func calibration(pre Preset) hw.Calibration {
	cal := hw.TestCalibration()
	cal.BufferFrames = pre.BufferFrames
	return cal
}
