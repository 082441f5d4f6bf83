package main

import (
	"fmt"
	"sort"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/wal"
)

// ledger is one run's metrics by name. A metric a workload does not define
// is absent here and reported as null.
type ledger map[string]float64

// window selects the records that finished inside the measured window.
func (r *run) window() (txns []txnRec, queries []queryRec) {
	for _, t := range r.txns {
		if t.end >= r.warm && t.end < r.end {
			txns = append(txns, t)
		}
	}
	for _, q := range r.queries {
		if q.end >= r.warm && q.end < r.end {
			queries = append(queries, q)
		}
	}
	return txns, queries
}

// endToEnd derives the end-to-end metrics. Latency is first attempt start
// (or due time) to final outcome over committed transactions; a failed or
// refused transaction counts against committed_share instead.
func (r *run) endToEnd() (ledger, int) {
	txns, queries := r.window()
	L := ledger{}
	var lat, latMig []time.Duration
	committed := 0
	for _, t := range txns {
		if !t.committed {
			continue
		}
		committed++
		lat = append(lat, t.end-t.start)
		if r.spec.Rebalance && t.end >= r.migStart && t.end < r.migEnd {
			latMig = append(latMig, t.end-t.start)
		}
	}
	sortDurations(lat)
	simSeconds := (r.end - r.warm).Seconds()
	n := len(txns)

	L["setup_s"] = r.setup.Seconds()
	L["sim_txn_per_s"] = float64(committed) / simSeconds
	L["sim_lat_p50_ms"] = ms(percentile(lat, 0.50))
	L["sim_lat_p99_ms"] = ms(percentile(lat, 0.99))
	L["sim_joules_per_txn"] = perTxn(r.after.energy-r.before.energy, committed)
	L["failed_share"] = share(n-committed, n)
	L["committed_share"] = share(committed, n)
	L["host_us_per_txn"] = perTxn(float64(r.hostWindow.Microseconds()), n)
	L["host_allocs_per_txn"] = perTxn(float64(r.mallocs), n)
	L["host_alloc_kb_per_txn"] = perTxn(float64(r.allocBytes)/1024, n)

	if r.spec.Rebalance {
		sortDurations(latMig)
		L["sim_migration_s"] = (r.migEnd - r.migStart).Seconds()
		L["sim_lat_p99_migrating_ms"] = ms(percentile(latMig, 0.99))
	}
	if r.spec.Analytics > 0 {
		var ql []time.Duration
		for _, q := range queries {
			ql = append(ql, q.end-q.start)
		}
		sortDurations(ql)
		L["sim_query_lat_p50_ms"] = ms(percentile(ql, 0.50))
		L["sim_query_lat_p90_ms"] = ms(percentile(ql, 0.90))
	}
	if r.spec.Faults {
		boot := r.c.Cal.BootTime
		var work time.Duration
		for _, rs := range r.restarts {
			work += rs.rec.Elapsed - boot
		}
		L["sim_recovery_work_s"] = work.Seconds()
		L["sim_failover_ms"] = ms(r.firstCommit - r.leaderDown)
	}
	return L, n
}

// samples reports the sample count behind every percentile, so a reader can
// see that each leaves more than ten samples beyond it.
func (r *run) samples() map[string]int {
	txns, queries := r.window()
	committed := 0
	for _, t := range txns {
		if t.committed {
			committed++
		}
	}
	out := map[string]int{"txns": len(txns), "committed": committed}
	if r.spec.Analytics > 0 {
		out["queries"] = len(queries)
	}
	return out
}

// perLayer derives the (C) counter-delta metrics of one run, plus the ones
// the client loops count themselves.
func (r *run) perLayer() ledger {
	txns, queries := r.window()
	n := len(txns)
	b, a := r.before, r.after
	L := ledger{}
	simSeconds := (r.end - r.warm).Seconds()

	// sim kernel.
	events := float64(a.kernel.Events - b.kernel.Events)
	L["sim.events_per_txn"] = perTxn(events, n)
	if events > 0 {
		L["sim.wakeup_share"] = float64(a.kernel.Wakeups-b.kernel.Wakeups) / events
		L["sim.host_ns_per_event"] = float64(r.hostWindow.Nanoseconds()) / events
	}
	L["sim.max_heap_depth"] = float64(a.kernel.MaxHeapDepth)

	// hw.
	nodes := float64(len(r.c.Nodes))
	L["hw.logdisk_writes_per_txn"] = perTxn(float64(a.logDisk.writes-b.logDisk.writes), n)
	L["hw.logdisk_kb_per_txn"] = perTxn(float64(a.logDisk.bytesW-b.logDisk.bytesW)/1024, n)
	L["hw.logdisk_busy_share"] = (a.logDisk.busy - b.logDisk.busy) / (simSeconds * nodes)
	L["hw.net_msgs_per_txn"] = perTxn(float64(a.netMsgs-b.netMsgs), n)
	L["hw.net_kb_per_txn"] = perTxn(float64(a.netBytes-b.netBytes)/1024, n)
	L["hw.datadisk_reads_per_txn"] = perTxn(float64(a.dataDisk.reads-b.dataDisk.reads), n)
	L["hw.datadisk_writes_per_txn"] = perTxn(float64(a.dataDisk.writes-b.dataDisk.writes), n)
	L["hw.datadisk_busy_share"] = (a.dataDisk.busy - b.dataDisk.busy) / (simSeconds * nodes * 2)
	cores := float64(r.c.Cal.Cores)
	for i := range a.cpuBusy {
		if u := (a.cpuBusy[i] - b.cpuBusy[i]) / (simSeconds * cores); u > L["hw.cpu_util_max"] {
			L["hw.cpu_util_max"] = u
		}
	}
	L["hw.watts_mean"] = (a.energy - b.energy) / simSeconds

	// buffer and btree.
	hits, misses := float64(a.pool.Hits-b.pool.Hits), float64(a.pool.Misses-b.pool.Misses)
	if hits+misses > 0 {
		L["buffer.hit_ratio"] = hits / (hits + misses)
	}
	L["buffer.misses_per_txn"] = perTxn(misses, n)
	L["buffer.evictions_per_txn"] = perTxn(float64(a.pool.Evictions-b.pool.Evictions), n)
	L["buffer.flushes_per_txn"] = perTxn(float64(a.pool.Flushes-b.pool.Flushes), n)
	L["buffer.latch_waits_per_txn"] = perTxn(float64(a.pool.LatchWaits-b.pool.LatchWaits), n)
	reads := float64(a.tbl.Reads - b.tbl.Reads)
	writes := float64(a.tbl.Writes - b.tbl.Writes)
	scanned := float64(a.tbl.ScannedTuples - b.tbl.ScannedTuples)
	if ops := reads + writes + scanned; ops > 0 {
		L["btree.pins_per_op"] = (hits + misses) / ops
	}
	L["table.reads_per_txn"] = perTxn(reads, n)
	L["table.writes_per_txn"] = perTxn(writes, n)
	L["table.scanned_rows_per_txn"] = perTxn(scanned, n)

	// cc, from the client loops' own accounting.
	var attempts, conflicts, timeouts, committed, twoPC int
	for _, t := range txns {
		attempts += t.attempts
		conflicts += t.conflicts
		timeouts += t.timeouts
		if t.committed {
			committed++
			if t.twoPC {
				twoPC++
			}
		}
	}
	L["cc.conflict_share"] = share(conflicts, attempts)
	L["cc.lock_timeout_share"] = share(timeouts, attempts)
	L["cc.attempts_per_txn"] = perTxn(float64(attempts), n)
	L["cluster.two_pc_share"] = share(twoPC, committed)

	// wal: forced writes per commit on partition owners vs nodes that only
	// hold follower replicas.
	owner := r.owners()
	var ownerFlushes, followerFlushes int64
	for i := range a.flushes {
		if owner[i] {
			ownerFlushes += a.flushes[i] - b.flushes[i]
		} else {
			followerFlushes += a.flushes[i] - b.flushes[i]
		}
	}
	L["wal.flushes_per_commit"] = perTxn(float64(ownerFlushes), committed)
	L["wal.follower_flushes_per_commit"] = perTxn(float64(followerFlushes), committed)
	L["wal.retained_mb_end"] = float64(a.retained) / (1 << 20)

	// cluster: replication.
	// Read calls (a get, or one partition's part of a scan) served by a
	// replica, over those plus the gets the owners served.
	if f := float64(a.follower - b.follower); r.c.DataReplicated() && f+reads > 0 {
		L["cluster.follower_read_share"] = f / (f + reads)
	}
	L["cluster.failovers"] = float64(r.c.Master.Failovers())

	// exec / chbench, per suite query.
	if r.spec.Analytics > 0 {
		byName := map[string][]time.Duration{}
		rows := 0
		for _, q := range queries {
			byName[q.name] = append(byName[q.name], q.end-q.start)
			rows += q.rows
		}
		for name, d := range byName {
			L["exec.q_"+name+"_ms"] = ms(meanDuration(d))
		}
		L["exec.rows_per_query"] = perTxn(float64(rows), len(queries))
	}

	// cluster: migration.
	if r.spec.Rebalance {
		var maxT time.Duration
		for _, d := range r.migTable {
			if d > maxT {
				maxT = d
			}
		}
		L["cluster.migrate_s_max_table"] = maxT.Seconds()
		if d := (r.migEnd - r.migStart).Seconds(); d > 0 {
			L["cluster.migrate_mb_per_s"] = float64(r.migratedBytes) / (1 << 20) / d
		}
	}

	// cluster: checkpoints and restarts.
	if r.spec.Checkpoint > 0 {
		L["cluster.ckpt_count"] = float64(len(r.ckpts))
		var dur time.Duration
		pages := 0
		for _, c := range r.ckpts {
			dur += c.dur
			pages += c.pages
		}
		L["cluster.ckpt_ms_mean"] = perTxn(ms(dur), len(r.ckpts))
		L["cluster.ckpt_pages_mean"] = perTxn(float64(pages), len(r.ckpts))
	}
	if r.spec.Faults {
		var bytes int64
		redone := 0
		for _, rs := range r.restarts {
			L["cluster.restart_"+rs.kind+"_ms"] = ms(rs.dur)
			bytes += rs.rec.Bytes
			redone += rs.rec.Redone
		}
		L["cluster.follower_gap_keys"] = float64(r.followerGap)
		L["cluster.replay_kb"] = float64(bytes) / 1024
		L["cluster.redone_records"] = float64(redone)
	}
	return L
}

// owners marks the nodes that own a range of any partitioned table when the
// window closed; the rest hold follower replicas only.
func (r *run) owners() []bool {
	out := make([]bool, len(r.c.Nodes))
	names := []string{kvTable}
	if r.dep != nil {
		names = nil
		for name := range r.dep.Schemas {
			names = append(names, name)
		}
	}
	for _, name := range names {
		tm, err := r.c.Master.Table(name)
		if err != nil || tm.Replicated() {
			continue
		}
		for _, n := range tm.TableOwners() {
			out[n.ID] = true
		}
	}
	return out
}

// spanLayer derives the (S) span metrics and the Fig 7 breakdown of a traced
// run: simulated time between the benchmark's calls into the cluster layer.
func (r *run) spanLayer() (ledger, error) {
	L := ledger{}
	txns, _ := r.window()
	inWindow := map[int32]bool{}
	twoPC := map[int32]bool{}
	for _, t := range txns {
		inWindow[t.num] = true
		twoPC[t.num] = t.twoPC
	}
	var begin, execD, commit, c1, c2 []time.Duration
	for _, s := range r.tr.spans {
		if !inWindow[s.txn] || s.end < 0 {
			continue
		}
		d := s.end - s.start
		switch s.kind {
		case spanBegin:
			begin = append(begin, d)
		case spanExec:
			execD = append(execD, d)
		case spanCommit:
			if s.failed {
				continue
			}
			commit = append(commit, d)
			if twoPC[s.txn] {
				c2 = append(c2, d)
			} else {
				c1 = append(c1, d)
			}
		}
	}
	sortDurations(commit)
	L["cluster.begin_ms"] = ms(meanDuration(begin))
	L["cluster.exec_ms"] = ms(meanDuration(execD))
	L["cluster.commit_ms"] = ms(meanDuration(commit))
	L["cluster.commit_p99_ms"] = ms(percentile(commit, 0.99))
	L["cluster.commit_1pc_ms"] = ms(meanDuration(c1))
	L["cluster.commit_2pc_ms"] = ms(meanDuration(c2))

	var drains []time.Duration
	for _, s := range r.tr.spans {
		if s.kind == spanShipDrain && s.end >= r.warm && s.end < r.end {
			drains = append(drains, s.end-s.start)
		}
	}
	if r.spec.ShipDrain > 0 {
		L["cluster.ship_drain_ms"] = ms(meanDuration(drains))
	}

	// Fig 7: mean simulated time per committed transaction by category,
	// accumulated across retries. "other" is the remainder, so the seven rows
	// sum to the mean latency; what needs asserting is that the remainder is
	// not negative — a category that double-counted nested waits would make
	// the six measured rows exceed the latency they are supposed to split.
	var sum sim.Breakdown
	var latency time.Duration
	committed := 0
	for _, t := range txns {
		if t.committed {
			committed++
			latency += t.end - t.start
			sum.AddAll(t.bd)
		}
	}
	if committed > 0 {
		mean := func(d time.Duration) float64 { return ms(d) / float64(committed) }
		other := latency
		for _, c := range []struct {
			cat  sim.Category
			name string
		}{{sim.CatDiskIO, "disk"}, {sim.CatNetworkIO, "network"}, {sim.CatLocking, "locking"},
			{sim.CatLatching, "latching"}, {sim.CatLogging, "logging"}, {sim.CatCPU, "cpu"}} {
			L["breakdown."+c.name+"_ms"] = mean(sum.Get(c.cat))
			other -= sum.Get(c.cat)
		}
		L["breakdown.other_ms"] = mean(other)
		if other < 0 {
			return nil, fmt.Errorf("breakdown categories sum to %.6f ms, %.6f ms more than the mean latency: a wait is counted twice",
				mean(latency-other), mean(-other))
		}
	}
	return L, nil
}

// markTwoPhase flags the TPC-C transactions that committed through
// two-phase commit: the ones with a coordinator decision record in a
// retained log (no TPC-C workload truncates its logs). The KV loop flags its
// own — two keys, two partitions.
func (r *run) markTwoPhase() {
	if r.dep == nil {
		return
	}
	decided := map[cc.TxnID]bool{}
	for _, n := range r.c.Nodes {
		n.Log.VisitFrames(func(rec *wal.Record, _ []byte) bool {
			if rec.Type == wal.RecDecision {
				decided[rec.Txn] = true
			}
			return true
		})
	}
	for i := range r.txns {
		r.txns[i].twoPC = decided[r.txns[i].id]
	}
}

// sortedNames returns a ledger's metric names in a stable order.
func (l ledger) sortedNames() []string {
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
