// Package wattdb_test hosts the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation. Each benchmark runs the
// corresponding experiment at CI scale and reports the figure's headline
// numbers as custom metrics, so `go test -bench=. -benchmem` regenerates
// the whole evaluation. EXPERIMENTS.md records a reference run and the
// comparison against the paper.
package wattdb_test

import (
	"testing"
	"time"

	"wattdb/internal/experiments"
)

func quick() experiments.Preset { return experiments.Quick() }

// BenchmarkFig1RecordThroughput regenerates Fig. 1: record throughput under
// five operator placements. Metrics: records/s per configuration.
func BenchmarkFig1RecordThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.Logf("%-45s %10.0f records/s", row.Config, row.RecordsPerSec)
			}
			local := res.Rows[0].RecordsPerSec
			single := res.Rows[2].RecordsPerSec
			vector := res.Rows[3].RecordsPerSec
			if single > local/10 {
				b.Errorf("single-record remote (%.0f) should collapse vs local (%.0f)", single, local)
			}
			if vector < single*5 {
				b.Errorf("vectorisation (%.0f) should recover most of the loss vs %.0f", vector, single)
			}
			b.ReportMetric(local, "local-rec/s")
			b.ReportMetric(single, "remote1-rec/s")
			b.ReportMetric(vector, "remoteVec-rec/s")
		}
	}
}

// BenchmarkFig2SortOffloading regenerates Fig. 2: scan+sort throughput with
// the sort local vs offloaded, across concurrency levels.
func BenchmarkFig2SortOffloading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.Logf("concurrency %4d: local %.1f qps, offloaded %.1f qps",
					row.Concurrent, row.LocalQPS, row.RemoteQPS)
			}
			lo := res.Rows[0]
			hi := res.Rows[len(res.Rows)-1]
			if lo.RemoteQPS > lo.LocalQPS {
				b.Errorf("at concurrency 1 local (%.1f) should beat offloaded (%.1f)", lo.LocalQPS, lo.RemoteQPS)
			}
			if hi.RemoteQPS < hi.LocalQPS {
				b.Errorf("at concurrency %d offloaded (%.1f) should beat local (%.1f)",
					hi.Concurrent, hi.RemoteQPS, hi.LocalQPS)
			}
			b.ReportMetric(hi.LocalQPS, "local-qps@100")
			b.ReportMetric(hi.RemoteQPS, "offload-qps@100")
		}
	}
}

// BenchmarkFig3MVCCvsLocking regenerates Fig. 3: transaction throughput and
// storage under MVCC vs MGL-RX while 50% of records move.
func BenchmarkFig3MVCCvsLocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.Logf("update %3d%%: MVCC %.0f TA/min (stor %.0f%%), MGL %.0f TA/min (stor %.0f%%)",
					row.UpdatePct, row.MVCCPerMin, row.MVCCStorage, row.LockingPerMin, row.LockingStorage)
			}
			for _, row := range res.Rows {
				if row.MVCCPerMin <= row.LockingPerMin {
					b.Errorf("MVCC (%.0f) should out-run MGL (%.0f) at %d%% updates",
						row.MVCCPerMin, row.LockingPerMin, row.UpdatePct)
				}
			}
			mid := res.Rows[1] // 50% updates
			if mid.MVCCStorage <= mid.LockingStorage {
				b.Errorf("MVCC storage (%.0f%%) should exceed locking's (%.0f%%) under updates",
					mid.MVCCStorage, mid.LockingStorage)
			}
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.MVCCPerMin/last.LockingPerMin, "mvcc/mgl@100%")
		}
	}
}

// BenchmarkFig6Rebalancing regenerates Fig. 6: the TPC-C rebalance under
// all three partitioning schemes.
func BenchmarkFig6Rebalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report := func(name string, tl experiments.TimelineResult) (before, during, after float64) {
				before = experiments.MeanOver(tl.QPS, -30*time.Second, 0)
				during = experiments.MeanOver(tl.QPS, 0, tl.MigrationTook)
				after = experiments.MeanOver(tl.QPS, tl.MigrationTook+20*time.Second, 120*time.Second)
				b.Logf("%-14s migration %3.0fs, qps before/during/after = %.0f / %.0f / %.0f",
					name, tl.MigrationTook.Seconds(), before, during, after)
				return
			}
			report("physical", res.Physical)
			_, _, logAfter := report("logical", res.Logical)
			_, _, physioAfter := report("physiological", res.Physiological)
			// The paper's headline: physiological migrates fastest.
			if res.Physiological.MigrationTook >= res.Logical.MigrationTook {
				b.Errorf("physiological migration (%v) should beat logical (%v)",
					res.Physiological.MigrationTook, res.Logical.MigrationTook)
			}
			b.ReportMetric(res.Physiological.MigrationTook.Seconds(), "physio-move-s")
			b.ReportMetric(res.Logical.MigrationTook.Seconds(), "logical-move-s")
			b.ReportMetric(physioAfter, "physio-after-qps")
			b.ReportMetric(logAfter, "logical-after-qps")
		}
	}
}

// BenchmarkFig7Breakdown regenerates Fig. 7: the per-component query
// runtime decomposition under rebalancing.
func BenchmarkFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			var normal, rebal float64
			for _, d := range res.Normal {
				normal += d.Seconds() * 1000
			}
			for _, d := range res.Rebalance {
				rebal += d.Seconds() * 1000
			}
			if rebal <= normal {
				b.Errorf("rebalancing (%.1f ms) should inflate query runtime vs normal (%.1f ms)", rebal, normal)
			}
			b.ReportMetric(normal, "normal-ms")
			b.ReportMetric(rebal, "rebalance-ms")
		}
	}
}

// BenchmarkFigHTAP regenerates the HTAP interference study: the CH-style
// analytics aggregate co-located with an OLTP home vs offloaded to a spare
// (follower snapshot reads) vs partition-parallel through the exchange. The
// paper's offloading shape must reproduce: offloaded analytics out-runs
// co-located while the OLTP tail improves.
func BenchmarkFigHTAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigHTAP(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			base := res.Row(experiments.HTAPBaseline)
			co := res.Row(experiments.HTAPColocated)
			off := res.Row(experiments.HTAPOffloaded)
			par := res.Row(experiments.HTAPParallel)
			if off.AnalyticsQPS <= co.AnalyticsQPS {
				b.Errorf("offloaded analytics (%.2f q/s) should beat co-located (%.2f q/s)",
					off.AnalyticsQPS, co.AnalyticsQPS)
			}
			if off.OLTPp99Ms >= co.OLTPp99Ms {
				b.Errorf("offloading should improve OLTP p99 (%.1f ms vs co-located %.1f ms)",
					off.OLTPp99Ms, co.OLTPp99Ms)
			}
			if off.FollowerReads == 0 {
				b.Error("offloaded mode never used a follower snapshot read")
			}
			b.ReportMetric(base.OLTPp99Ms, "base-p99-ms")
			b.ReportMetric(co.OLTPp99Ms, "coloc-p99-ms")
			b.ReportMetric(off.OLTPp99Ms, "offload-p99-ms")
			b.ReportMetric(co.AnalyticsQPS, "coloc-q/s")
			b.ReportMetric(off.AnalyticsQPS, "offload-q/s")
			b.ReportMetric(par.AnalyticsQPS, "parallel-q/s")
		}
	}
}

// BenchmarkFig8Helpers regenerates Fig. 8: physiological rebalancing with
// helper nodes (log shipping + rDMA buffering).
func BenchmarkFig8Helpers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			plainW := experiments.MeanOver(res.Plain.Watts, 0, 20*time.Second)
			helpedW := experiments.MeanOver(res.Helped.Watts, 0, 20*time.Second)
			b.Logf("power during rebalance: plain %.0f W, +helpers %.0f W", plainW, helpedW)
			if helpedW <= plainW {
				b.Errorf("helpers must draw extra power (%.0f vs %.0f W)", helpedW, plainW)
			}
			b.ReportMetric(plainW, "plain-W")
			b.ReportMetric(helpedW, "helped-W")
		}
	}
}
