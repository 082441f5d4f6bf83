package main

import (
	"math"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the --seconds value at which
// every workload runs its reference simulated windows. Other values scale
// the windows linearly, so the amount of simulated work — and with it every
// sim_* metric — is a function of (workload, seed, seconds) alone.
const runSeconds = 10

// metricDef names one ledger metric. Names and units here are the single
// source of truth: BENCHMARK.json is generated from them (manifest.go) and
// bench_test.go checks that the program emits exactly this set.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Gate is the share of the parent's median by which -compare lets the
	// metric worsen. Both sides of a comparison run the same seed, where
	// every sim_* number repeats exactly, so these are tight.
	Gate float64
	// Bound is BENCHMARK.json's bound, for end-to-end metrics the driver
	// carries. The driver compares medians over runs at different seeds, so
	// each is three times the widest quartile spread seen across ten seeds
	// on any workload (README, "Steadiness"), capped at the format's 0.25.
	Bound float64
	// Only lists the workloads the metric is defined on; nil means all. The
	// driver's format needs a number on every workload, so an end-to-end
	// metric with an Only list goes under per_layer in BENCHMARK.json.
	Only []string
}

func (d metricDef) definedOn(workload string) bool {
	if d.Only == nil {
		return true
	}
	for _, w := range d.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEndDefs are the metrics a user of the system would see. Units say
// which clock: sim_s / sim_ms are simulated time (what the modelled cluster
// would take), s / us are host time (what the simulator costs to run).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Gate: 0.25, Bound: 0.25},
	{Name: "sim_txn_per_s", Unit: "1/sim_s", Better: "higher", Gate: 0.03, Bound: 0.08},
	{Name: "sim_lat_p50_ms", Unit: "sim_ms", Better: "lower", Gate: 0.03, Bound: 0.20},
	{Name: "sim_lat_p99_ms", Unit: "sim_ms", Better: "lower", Gate: 0.05, Bound: 0.25},
	{Name: "sim_joules_per_txn", Unit: "J", Better: "lower", Gate: 0.03, Bound: 0.08},
	{Name: "failed_share", Unit: "share", Better: "lower", Gate: 0.10},
	{Name: "committed_share", Unit: "share", Better: "higher", Gate: 0.005, Bound: 0.08},
	{Name: "host_us_per_txn", Unit: "us", Better: "lower", Gate: 0.15, Bound: 0.25},
	{Name: "host_allocs_per_txn", Unit: "count", Better: "lower", Gate: 0.02, Bound: 0.25},
	{Name: "host_alloc_kb_per_txn", Unit: "KiB", Better: "lower", Gate: 0.02, Bound: 0.20},
	{Name: "sim_migration_s", Unit: "sim_s", Better: "lower", Gate: 0.03, Only: []string{"tpcc_rebalance"}},
	{Name: "sim_lat_p99_migrating_ms", Unit: "sim_ms", Better: "lower", Gate: 0.05, Only: []string{"tpcc_rebalance"}},
	{Name: "sim_query_lat_p50_ms", Unit: "sim_ms", Better: "lower", Gate: 0.03, Only: []string{"htap_offload"}},
	{Name: "sim_query_lat_p90_ms", Unit: "sim_ms", Better: "lower", Gate: 0.05, Only: []string{"htap_offload"}},
	{Name: "sim_recovery_work_s", Unit: "sim_s", Better: "lower", Gate: 0.05, Only: []string{"kv_recover"}},
	{Name: "sim_failover_ms", Unit: "sim_ms", Better: "lower", Gate: 0.05, Only: []string{"kv_recover"}},
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule the figures use: sorted[len*q], clamped to the last element.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// perTxn divides a window delta by the transactions finished in the window;
// zero transactions yields zero, never NaN, so the JSON stays valid.
func perTxn(delta float64, txns int) float64 {
	if txns == 0 {
		return 0
	}
	return delta / float64(txns)
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (the exclusive method) gives them — the driver's definition of spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// chbenchQueries are the suite's plan names, in chbench.Runner.Queries order
// (bench_test.go checks the list against the package).
var chbenchQueries = []string{"lineitem-agg", "top-amounts", "carrier-dist", "cust-revenue",
	"item-flow", "carrier-revenue", "top-customers", "undelivered"}

// probeDefs are the (P) host-time probes of probes.go.
var probeDefs = []metricDef{
	{Name: "sim.probe_wakeup_ns", Unit: "ns"},
	{Name: "buffer.probe_pin_hit_ns", Unit: "ns"},
	{Name: "btree.probe_get_ns", Unit: "ns"},
	{Name: "btree.probe_put_ns", Unit: "ns"},
	{Name: "btree.probe_scan_ns_per_row", Unit: "ns"},
	{Name: "cc.probe_intent_commit_ns", Unit: "ns"},
	{Name: "cc.probe_changed_since_ns", Unit: "ns"},
	{Name: "wal.probe_append_ns", Unit: "ns"},
	{Name: "wal.probe_replay_ns_per_record", Unit: "ns"},
	{Name: "table.probe_get_ns", Unit: "ns"},
	{Name: "table.probe_put_ns", Unit: "ns"},
	{Name: "table.probe_scan_ns_per_row", Unit: "ns"},
	{Name: "exec.probe_scan_agg_ns_per_row", Unit: "ns"},
	{Name: "exec.probe_hashjoin_ns_per_row", Unit: "ns"},
	{Name: "exec.probe_mergejoin_ns_per_row", Unit: "ns"},
	{Name: "exec.probe_exchange_sim_us_per_drain", Unit: "sim_us"},
	{Name: "cluster.probe_session_rw_allocs", Unit: "count"},
	{Name: "keycodec.probe_encode_ns", Unit: "ns"},
}

func isProbe(name string) bool {
	for _, d := range probeDefs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// layerDefs lists every per-layer metric, layer by layer: counter deltas
// (C), spans (S), probes (P), then the end-to-end metrics that exist on one
// workload only (BENCHMARK.json carries those under per_layer, see
// metricDef.Only).
func layerDefs() []metricDef {
	rebalance, htap, kv := []string{"tpcc_rebalance"}, []string{"htap_offload"}, []string{"kv_recover"}
	replicated := []string{"tpcc_commit", "htap_offload", "kv_recover"}
	defs := []metricDef{
		{Name: "sim.events_per_txn", Unit: "count"},
		{Name: "sim.wakeup_share", Unit: "share"},
		{Name: "sim.max_heap_depth", Unit: "count"},
		{Name: "sim.host_ns_per_event", Unit: "ns"},

		{Name: "hw.logdisk_writes_per_txn", Unit: "count"},
		{Name: "hw.logdisk_kb_per_txn", Unit: "KiB"},
		{Name: "hw.logdisk_busy_share", Unit: "share"},
		{Name: "hw.net_msgs_per_txn", Unit: "count"},
		{Name: "hw.net_kb_per_txn", Unit: "KiB"},
		{Name: "hw.datadisk_reads_per_txn", Unit: "count"},
		{Name: "hw.datadisk_writes_per_txn", Unit: "count"},
		{Name: "hw.datadisk_busy_share", Unit: "share"},
		{Name: "hw.cpu_util_max", Unit: "share"},
		{Name: "hw.watts_mean", Unit: "W"},

		{Name: "buffer.hit_ratio", Unit: "share"},
		{Name: "buffer.misses_per_txn", Unit: "count"},
		{Name: "buffer.evictions_per_txn", Unit: "count"},
		{Name: "buffer.flushes_per_txn", Unit: "count"},
		{Name: "buffer.latch_waits_per_txn", Unit: "count"},

		{Name: "btree.pins_per_op", Unit: "count"},

		{Name: "cc.conflict_share", Unit: "share"},
		{Name: "cc.lock_timeout_share", Unit: "share"},
		{Name: "cc.attempts_per_txn", Unit: "count"},

		{Name: "wal.flushes_per_commit", Unit: "count"},
		{Name: "wal.follower_flushes_per_commit", Unit: "count"},
		{Name: "wal.retained_mb_end", Unit: "MiB"},

		{Name: "table.reads_per_txn", Unit: "count"},
		{Name: "table.writes_per_txn", Unit: "count"},
		{Name: "table.scanned_rows_per_txn", Unit: "count"},
	}
	for _, q := range chbenchQueries {
		defs = append(defs, metricDef{Name: "exec.q_" + q + "_ms", Unit: "sim_ms", Only: htap})
	}
	defs = append(defs,
		metricDef{Name: "exec.rows_per_query", Unit: "count", Only: htap},

		metricDef{Name: "cluster.begin_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.exec_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.commit_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.commit_p99_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.commit_1pc_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.commit_2pc_ms", Unit: "sim_ms"},
		metricDef{Name: "cluster.two_pc_share", Unit: "share"},
		metricDef{Name: "cluster.follower_read_share", Unit: "share", Only: replicated},
		metricDef{Name: "cluster.ship_drain_ms", Unit: "sim_ms", Only: replicated},
		metricDef{Name: "cluster.failovers", Unit: "count"},
		metricDef{Name: "cluster.migrate_s_max_table", Unit: "sim_s", Only: rebalance},
		metricDef{Name: "cluster.migrate_mb_per_s", Unit: "MiB/sim_s", Only: rebalance},
		metricDef{Name: "cluster.ckpt_count", Unit: "count", Only: kv},
		metricDef{Name: "cluster.ckpt_ms_mean", Unit: "sim_ms", Only: kv},
		metricDef{Name: "cluster.ckpt_pages_mean", Unit: "count", Only: kv},
		metricDef{Name: "cluster.restart_plain_ms", Unit: "sim_ms", Only: kv},
		metricDef{Name: "cluster.restart_leader_ms", Unit: "sim_ms", Only: kv},
		metricDef{Name: "cluster.restart_rebuild_ms", Unit: "sim_ms", Only: kv},
		metricDef{Name: "cluster.replay_kb", Unit: "KiB", Only: kv},
		metricDef{Name: "cluster.redone_records", Unit: "count", Only: kv},
		metricDef{Name: "cluster.follower_gap_keys", Unit: "count", Only: kv},

		metricDef{Name: "breakdown.disk_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.network_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.locking_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.latching_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.logging_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.cpu_ms", Unit: "sim_ms"},
		metricDef{Name: "breakdown.other_ms", Unit: "sim_ms"},

		metricDef{Name: "trace_overhead_pct", Unit: "%"},
	)
	defs = append(defs, probeDefs...)
	for i := range defs {
		defs[i].Better = "lower"
		if higherIsBetter[defs[i].Name] {
			defs[i].Better = "higher"
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound == 0 {
			defs = append(defs, d)
		}
	}
	return defs
}

// higherIsBetter lists the per-layer metrics that improve upwards; the rest
// are costs (time, work per transaction, stalls).
var higherIsBetter = map[string]bool{
	"sim.wakeup_share":            true, // share of events on the allocation-free path
	"buffer.hit_ratio":            true,
	"cluster.follower_read_share": true,
	"cluster.migrate_mb_per_s":    true,
}
