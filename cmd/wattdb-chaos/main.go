// Command wattdb-chaos drives the deterministic fault-injection harness
// (internal/chaos) from the command line:
//
//	wattdb-chaos -seeds 25          # seeds 1..25, schemes rotating per seed
//	wattdb-chaos -seed 7 -scheme logical -v   # reproduce one run exactly
//	wattdb-chaos -tpcc -seeds 10    # TPC-C workload + warehouse-invariant oracle
//	wattdb-chaos -seeds 6 -rerun    # every seed twice: the two state hashes must match
//	wattdb-chaos -tpcc -seeds 10 -cpuprofile cpu.out   # CPU profile of the whole sweep
//	wattdb-chaos -seeds 16 -duration 25s -golden internal/chaos/testdata/golden-kv.txt   # fail on any moved hash
//	wattdb-chaos -seeds 16 -duration 25s -golden internal/chaos/testdata/golden-kv.txt -update   # rewrite the record
//
// The seed picks the run's fault mix (chaos.MixOf): seed mod 16 names the
// fault families — coordinator, disk, checkpoint, HTAP — the run turns up
// from one fault (one analytics reader) to three (four readers), so any 16
// consecutive seeds run every combination. Every run prints its seed, scheme,
// verdict, final state hash and mix; a failing seed reproduces bit-for-bit
// from the line it prints.
//
// With -golden the sweep is checked against a golden record: one
// "seed=N scheme=S VERDICT hash=H" line per seed, in seed order. Any line that
// differs from the file — a moved hash, a new verdict, a seed missing on
// either side — is printed with its seed and fails the command; -update
// rewrites the file from the sweep instead. A change that moves a hash on
// purpose commits the rewritten file, and its diff names every seed moved.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"wattdb/internal/chaos"
	"wattdb/internal/table"
)

func main() {
	seeds := flag.Int("seeds", 0, "run seeds 1..N (schemes rotate per seed)")
	seed := flag.Int64("seed", 1, "single seed to run (ignored when -seeds is set)")
	schemeFlag := flag.String("scheme", "", "partitioning scheme: physical, logical, physiological (default: rotate by seed)")
	duration := flag.Duration("duration", 0, "simulated workload window (default 45s)")
	tpccMode := flag.Bool("tpcc", false, "run the TPC-C workload with the warehouse-invariant oracle")
	verbose := flag.Bool("v", false, "print the fault schedule of every run")
	rerun := flag.Bool("rerun", false, "run every seed twice and fail it when the two state hashes differ")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to `file`")
	goldenFile := flag.String("golden", "", "diff every seed's scheme, verdict and state hash against the golden record in `file`")
	update := flag.Bool("update", false, "with -golden: rewrite the golden record from this sweep instead of diffing")
	flag.Parse()
	if *update && *goldenFile == "" {
		fmt.Fprintln(os.Stderr, "-update needs -golden")
		os.Exit(2)
	}

	// exit ends the command, flushing the CPU profile first when one is
	// being written.
	exit := os.Exit
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exit = func(code int) {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = max(code, 2)
			}
			os.Exit(code)
		}
	}

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
	var record []string // the golden line of every seed run
	start := time.Now()
	for _, s := range runSeeds {
		scheme, err := pick(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cfg := chaos.Config{Seed: s, Scheme: scheme, Duration: *duration}
		run := chaos.Run
		if *tpccMode {
			run = chaos.RunTPCC
		}
		rep, err := run(cfg)
		if err != nil {
			fmt.Printf("seed=%-4d scheme=%-13s ERROR: %v\n", s, scheme, err)
			record = append(record, fmt.Sprintf("seed=%d scheme=%s ERROR", s, scheme))
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
		fmt.Printf("seed=%-4d scheme=%-13s %s hash=%s mix=%s%s\n", s, scheme, status, rep.StateHash, chaos.MixOf(s), counters(rep))
		record = append(record, fmt.Sprintf("seed=%d scheme=%s %s hash=%s", s, scheme, status, rep.StateHash))
		if *verbose || !rep.Passed() {
			for _, f := range rep.Faults {
				fmt.Printf("    %s\n", f)
			}
		}
		if !rep.Passed() {
			for _, v := range rep.Violations {
				fmt.Printf("    VIOLATION: %s\n", v)
			}
			// The seed, scheme, workload and window are all a run has.
			repro := fmt.Sprintf("go run ./cmd/wattdb-chaos -seed %d -scheme %s", s, scheme)
			if *tpccMode {
				repro += " -tpcc"
			}
			if *duration > 0 {
				repro += " -duration " + duration.String()
			}
			fmt.Printf("    reproduce: %s\n", repro)
		}
	}
	fmt.Printf("%d/%d runs passed (%.1fs wall)\n", len(runSeeds)-failures, len(runSeeds), time.Since(start).Seconds())
	if *goldenFile != "" {
		if *update {
			err := os.WriteFile(*goldenFile, []byte(strings.Join(record, "\n")+"\n"), 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			fmt.Printf("golden %s: wrote %d seeds\n", *goldenFile, len(record))
		} else {
			want, err := os.ReadFile(*goldenFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			diffs := diffGolden(strings.Split(strings.TrimSpace(string(want)), "\n"), record)
			for _, d := range diffs {
				fmt.Printf("golden %s: %s\n", *goldenFile, d)
			}
			fmt.Printf("golden %s: %d differing, %d run\n", *goldenFile, len(diffs), len(record))
			if len(diffs) > 0 {
				failures++
			}
		}
	}
	if failures > 0 {
		exit(1)
	}
	exit(0)
}

// diffGolden compares a sweep's golden lines with the record's, seed by seed
// (the line's first field), and returns one message per seed that differs or
// is on one side only, in the record's order and then the sweep's.
func diffGolden(want, got []string) []string {
	seedOf := func(line string) string { seed, _, _ := strings.Cut(line, " "); return seed }
	have := make(map[string]string, len(got))
	for _, line := range got {
		have[seedOf(line)] = line
	}
	var diffs []string
	known := make(map[string]bool, len(want))
	for _, line := range want {
		seed := seedOf(line)
		known[seed] = true
		switch g, ok := have[seed]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: recorded %q, not run", seed, line))
		case g != line:
			diffs = append(diffs, fmt.Sprintf("%s: recorded %q, got %q", seed, line, g))
		}
	}
	for _, line := range got {
		if seed := seedOf(line); !known[seed] {
			diffs = append(diffs, fmt.Sprintf("%s: got %q, not recorded", seed, line))
		}
	}
	return diffs
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
