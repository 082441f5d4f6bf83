// Command wattdb-chaos drives the deterministic fault-injection harness
// (internal/chaos) from the command line:
//
//	wattdb-chaos -seeds 25          # seeds 1..25, schemes rotating per seed
//	wattdb-chaos -seed 7 -scheme logical -v   # reproduce one run exactly
//	wattdb-chaos -tpcc -seeds 10    # TPC-C workload + warehouse-invariant oracle
//	wattdb-chaos -seeds 6 -rerun    # every seed twice: the two state hashes must match
//
// Every run prints its seed, scheme, and final state hash; a failing seed
// reproduces bit-for-bit with the same flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
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
	coord := flag.Int("coord", 0, "extra random coordinator power-fails (default 1; every plan also crashes the leader mid-migration; above 1 the first is aimed at the leader's next clock publication, and each one beyond the first adds a crash aimed at a lease or decision a follower holds ahead of the leader)")
	disk := flag.Int("disk", 0, "extra disk-loss + acked-rot fault pairs (default 1; every plan already destroys one disk and bit-rots one flushed frame)")
	ckpt := flag.Int("ckpt", 0, "extra mid-checkpoint crash faults (default 1; every plan already power-fails one node partway through a fuzzy checkpoint)")
	htap := flag.Int("htap", 0, "concurrent HTAP analytics readers running validated scan-aggregate snapshot queries (default 1; -1 disables)")
	tpccMode := flag.Bool("tpcc", false, "run the TPC-C workload with the warehouse-invariant oracle (ignores -keys)")
	verbose := flag.Bool("v", false, "print the fault schedule of every run")
	rerun := flag.Bool("rerun", false, "run every seed twice and fail it when the two state hashes differ")
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
		if *rerun {
			again, err := run(cfg)
			if err == nil && again.StateHash != rep.StateHash {
				err = fmt.Errorf("state hash %s on the rerun", again.StateHash)
			}
			if err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf("not deterministic: %v", err))
			}
		}
		status := "PASS"
		if !rep.Passed() {
			status = "FAIL"
			failures++
		}
		fmt.Printf("seed=%-4d scheme=%-13s %s hash=%s%s\n", s, scheme, status, rep.StateHash, counters(rep))
		if *verbose || !rep.Passed() {
			for _, f := range rep.Faults {
				fmt.Printf("    %s\n", f)
			}
		}
		if !rep.Passed() {
			for _, v := range rep.Violations {
				fmt.Printf("    VIOLATION: %s\n", v)
			}
			// Every flag the user set shapes the plan; the repro carries them
			// all, or the failing schedule will not regenerate.
			repro := fmt.Sprintf("go run ./cmd/wattdb-chaos -seed %d -scheme %s", s, scheme)
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "seeds", "seed", "scheme", "v":
				default:
					repro += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
				}
			})
			fmt.Printf("    reproduce: %s\n", repro)
		}
	}
	fmt.Printf("%d/%d runs passed (%.1fs wall)\n", len(runSeeds)-failures, len(runSeeds), time.Since(start).Seconds())
	if failures > 0 {
		os.Exit(1)
	}
}

// counters renders every counter of the report but the two the line opens
// with, as " name=value" in Report's declaration order.
func counters(rep *chaos.Report) string {
	var b strings.Builder
	rep.EachCounter(func(name string, value any) {
		if name != "Seed" && name != "Scheme" {
			fmt.Fprintf(&b, " %s=%v", strings.ToLower(name[:1])+name[1:], value)
		}
	})
	return b.String()
}
