// Command wattdb-chaos drives the deterministic fault-injection harness
// (internal/chaos) from the command line:
//
//	wattdb-chaos -seeds 25          # seeds 1..25, schemes rotating per seed
//	wattdb-chaos -seed 7 -scheme logical -v   # reproduce one run exactly
//	wattdb-chaos -tpcc -seeds 10    # TPC-C workload + warehouse-invariant oracle
//
// Every run prints its seed, scheme, and final state hash; a failing seed
// reproduces bit-for-bit with the same flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wattdb/internal/chaos"
	"wattdb/internal/table"
)

func main() {
	seeds := flag.Int("seeds", 0, "run seeds 1..N (schemes rotate per seed)")
	seed := flag.Int64("seed", 1, "single seed to run (ignored when -seeds is set)")
	schemeFlag := flag.String("scheme", "", "partitioning scheme: physical, logical, physiological (default: rotate by seed)")
	keys := flag.Int("keys", 0, "key-space size (default 400)")
	workers := flag.Int("workers", 0, "workload processes (default 4)")
	duration := flag.Duration("duration", 0, "simulated workload window (default 45s)")
	faults := flag.Int("faults", 0, "extra random fault events (default 4)")
	coord := flag.Int("coord", 0, "extra random coordinator power-fails (default 1; every plan also crashes the leader mid-migration)")
	disk := flag.Int("disk", 0, "extra disk-loss + acked-rot fault pairs (default 1; every plan already destroys one disk and bit-rots one flushed frame)")
	ckpt := flag.Int("ckpt", 0, "extra mid-checkpoint crash faults (default 1; every plan already power-fails one node partway through a fuzzy checkpoint)")
	htap := flag.Int("htap", 0, "concurrent HTAP analytics readers running validated scan-aggregate snapshot queries (default 1; -1 disables)")
	tpccMode := flag.Bool("tpcc", false, "run the TPC-C workload with the warehouse-invariant oracle (ignores -keys)")
	verbose := flag.Bool("v", false, "print the fault schedule of every run")
	flag.Parse()

	schemes := []table.Scheme{table.Physical, table.Logical, table.Physiological}
	pick := func(s int64) (table.Scheme, error) {
		switch *schemeFlag {
		case "":
			return schemes[int(s)%len(schemes)], nil
		case "physical":
			return table.Physical, nil
		case "logical":
			return table.Logical, nil
		case "physiological":
			return table.Physiological, nil
		}
		return 0, fmt.Errorf("unknown scheme %q", *schemeFlag)
	}

	var runSeeds []int64
	if *seeds > 0 {
		for s := int64(1); s <= int64(*seeds); s++ {
			runSeeds = append(runSeeds, s)
		}
	} else {
		runSeeds = []int64{*seed}
	}

	failures := 0
	start := time.Now()
	for _, s := range runSeeds {
		scheme, err := pick(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := chaos.Config{
			Seed:        s,
			Scheme:      scheme,
			Keys:        *keys,
			Workers:     *workers,
			Duration:    *duration,
			Faults:      *faults,
			CoordFaults: *coord,
			DiskFaults:  *disk,
			CkptFaults:  *ckpt,
			HTAP:        *htap,
		}
		run := chaos.Run
		if *tpccMode {
			run = chaos.RunTPCC
		}
		rep, err := run(cfg)
		if err != nil {
			fmt.Printf("seed=%-4d scheme=%-13s ERROR: %v\n", s, scheme, err)
			failures++
			continue
		}
		status := "PASS"
		if !rep.Passed() {
			status = "FAIL"
			failures++
		}
		fmt.Printf("seed=%-4d scheme=%-13s %s hash=%s sim=%5.1fs commits=%d aborts=%d failedOps=%d crashes=%d (torn=%d flips=%d ahead=%d dep=%d leader=%d disk=%d ckpt=%d) restarts=%d failovers=%d rebuilds=%d scrubs=%d freads=%d ckpts=%d bounded=%d replay=%dB rto=%v htapq=%d htaprows=%d depwaits=%d deplost=%d\n",
			s, scheme, status, rep.StateHash, rep.SimTime.Seconds(),
			rep.Commits, rep.Aborts, rep.FailedOps, rep.Crashes, rep.TornCrashes, rep.BitFlips, rep.AheadCrashes, rep.DepCrashes, rep.LeaderCrashes, rep.DiskLosses, rep.CkptCrashes, rep.Restarts, rep.Failovers,
			rep.Rebuilds, rep.ScrubRepairs, rep.FollowerReads, rep.Checkpoints, rep.BoundedRestarts, rep.ReplayBytes, rep.RecoveryTime, rep.AnalyticsQueries, rep.AnalyticsRows, rep.DepWaits, rep.DepLost)
		if *verbose || !rep.Passed() {
			for _, f := range rep.Faults {
				fmt.Printf("    %s\n", f)
			}
		}
		if !rep.Passed() {
			for _, v := range rep.Violations {
				fmt.Printf("    VIOLATION: %s\n", v)
			}
			repro := fmt.Sprintf("go run ./cmd/wattdb-chaos -seed %d -scheme %s", s, scheme)
			if *tpccMode {
				repro += " -tpcc"
			}
			// Non-default knobs change the fault plan; the repro must carry
			// them or the failing schedule will not regenerate.
			if *keys != 0 {
				repro += fmt.Sprintf(" -keys %d", *keys)
			}
			if *workers != 0 {
				repro += fmt.Sprintf(" -workers %d", *workers)
			}
			if *duration != 0 {
				repro += fmt.Sprintf(" -duration %s", *duration)
			}
			if *faults != 0 {
				repro += fmt.Sprintf(" -faults %d", *faults)
			}
			if *coord != 0 {
				repro += fmt.Sprintf(" -coord %d", *coord)
			}
			if *disk != 0 {
				repro += fmt.Sprintf(" -disk %d", *disk)
			}
			if *ckpt != 0 {
				repro += fmt.Sprintf(" -ckpt %d", *ckpt)
			}
			if *htap != 0 {
				repro += fmt.Sprintf(" -htap %d", *htap)
			}
			fmt.Printf("    reproduce: %s\n", repro)
		}
	}
	fmt.Printf("%d/%d runs passed (%.1fs wall)\n", len(runSeeds)-failures, len(runSeeds), time.Since(start).Seconds())
	if failures > 0 {
		os.Exit(1)
	}
}
