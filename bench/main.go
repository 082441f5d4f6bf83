// Command bench is WattDB's benchmark ledger: four workloads over one
// driver, end-to-end metrics from a plain run and per-layer metrics from a
// traced run, every layer measured from outside through exported APIs.
//
//	go run . -workload tpcc_commit -seed 1 -seconds 10 -trace 0   (one run, JSON last line)
//	go run . -check                                               (all workloads, outputs verified, determinism gate)
//	go run . -repeat 3 -out new.json                              (result file for -compare)
//	go run . -compare old.json new.json
//
// Run from the bench directory, or through run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A measured run builds its cluster at least setupRepeats times, and keeps
// building until setupBudget of host time is spent (a 25 ms build needs
// more samples than a 150 ms one); setup_s is the median build.
const (
	setupRepeats = 9
	setupBudget  = 1500 * time.Millisecond
	setupMax     = 64
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its metrics as one JSON line")
		seed     = flag.Int64("seed", 1, "the only source of randomness")
		seconds  = flag.Float64("seconds", runSeconds, "run length; simulated windows scale by seconds/10")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics, spans written to out/")
		check    = flag.Bool("check", false, "run every workload, verify outputs, and gate determinism")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		out      = flag.String("out", "", "run every workload -repeat times and write a result file")
		repeat   = flag.Int("repeat", 3, "runs per workload for -out")
		probesF  = flag.Bool("probes", false, "run the host-time probes alone")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json as the program declares it")
	)
	flag.Parse()
	// The kernel runs one simulated process at a time, handing control over
	// by channel. With a second P the runtime wakes another thread for many
	// of those hand-offs, at a latency that is the sandbox's and not the
	// simulator's: in alternating runs here tpcc_rebalance cost 159-171 us
	// per transaction on one P and 237-280 on two (tpcc_commit: equal), so
	// the ledger always runs on one.
	runtime.GOMAXPROCS(1)
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare old.json new.json")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *check:
		err = checkAll(*seed, *seconds)
	case *out != "":
		err = writeResults(*out, *seed, *seconds, *repeat)
	case *manif:
		var enc []byte
		if enc, err = json.MarshalIndent(manifest(), "", "  "); err == nil {
			fmt.Println(string(enc))
		}
	case *probesF:
		var l ledger
		if l, err = runProbes(); err == nil {
			printLedger(os.Stdout, "probes", probeDefs, l, nil)
		}
	case *workload != "":
		err = contractRun(*workload, *seed, *seconds, *trace != 0)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outcome is everything one workload execution yields.
type outcome struct {
	EndToEnd ledger
	Layers   ledger // counter deltas always; spans and breakdown when traced
	Samples  map[string]int
	Digest   string
	Txns     int           // transactions finished in the measured window
	host     time.Duration // measured-window host time
	spans    *tracer
}

// runOnce builds and executes one workload. steadySetup repeats the build
// and reports the median as setup_s; the last build is the one that runs.
func runOnce(s spec, seed int64, traced, steadySetup bool) (*outcome, error) {
	var r *run
	var builds []float64
	for t0 := time.Now(); len(builds) == 0 || steadySetup && len(builds) < setupMax &&
		(len(builds) < setupRepeats || time.Since(t0) < setupBudget); {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = build(s, seed); err != nil {
			return nil, fmt.Errorf("%s: build: %w", s.Name, err)
		}
		builds = append(builds, r.setup.Seconds())
	}
	defer r.close()
	if traced {
		r.tr = &tracer{}
	}
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	digest, err := r.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: outputs wrong: %w", s.Name, err)
	}
	r.markTwoPhase()
	o := &outcome{Samples: r.samples(), Digest: digest, host: r.hostWindow, spans: r.tr}
	o.EndToEnd, o.Txns = r.endToEnd()
	o.EndToEnd["setup_s"] = median(builds)
	o.Layers = r.perLayer()
	if traced {
		spans, err := r.spanLayer()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		for k, v := range spans {
			o.Layers[k] = v
		}
	}
	if o.Txns == 0 {
		return nil, fmt.Errorf("%s: no transaction finished in the measured window", s.Name)
	}
	return o, nil
}

// tracedPair runs a workload plain and traced at the same seed, asserts the
// traced run reproduced every simulated number, adds the host-derived layer
// metrics that need both runs, and writes the spans.
func tracedPair(s spec, seed int64) (plain, traced *outcome, err error) {
	if plain, err = runOnce(s, seed, false, false); err != nil {
		return nil, nil, err
	}
	if traced, err = runOnce(s, seed, true, false); err != nil {
		return nil, nil, err
	}
	if diff := firstSimDifference(plain, traced); diff != "" {
		return nil, nil, fmt.Errorf("%s: traced run does not reproduce the plain run: %s", s.Name, diff)
	}
	events := traced.Layers["sim.events_per_txn"] * float64(traced.Txns)
	traced.Layers["sim.host_ns_per_event"] = float64(plain.host.Nanoseconds()) / events
	p, t := plain.EndToEnd["host_us_per_txn"], traced.EndToEnd["host_us_per_txn"]
	traced.Layers["trace_overhead_pct"] = 100 * (t - p) / p
	path := filepath.Join("out", "trace_"+s.Name+".json")
	if err := traced.spans.write(path); err != nil {
		return nil, nil, fmt.Errorf("write %s: %w", path, err)
	}
	return plain, traced, nil
}

// isSim reports whether a metric is a property of the modelled cluster (and
// so must repeat exactly at a fixed seed) rather than of the host.
func isSim(name string) bool {
	switch name {
	case "setup_s", "host_us_per_txn", "host_allocs_per_txn", "host_alloc_kb_per_txn",
		"sim.host_ns_per_event", "trace_overhead_pct":
		return false
	}
	return !isProbe(name)
}

// firstSimDifference names the first simulated metric, counter delta or
// digest on which two runs of the same workload and seed disagree.
func firstSimDifference(a, b *outcome) string {
	for _, pair := range []struct{ a, b ledger }{{a.EndToEnd, b.EndToEnd}, {a.Layers, b.Layers}} {
		for _, name := range pair.a.sortedNames() {
			if bv, ok := pair.b[name]; ok && isSim(name) && pair.a[name] != bv {
				return fmt.Sprintf("%s: %v vs %v", name, pair.a[name], bv)
			}
		}
	}
	if a.Digest != b.Digest {
		return fmt.Sprintf("final table digest: %s vs %s", a.Digest, b.Digest)
	}
	return ""
}

// --- the driver's contract: one workload, one JSON line ---------------------

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Failed counts operations that failed for a reason the workload does not
// explain, and a run that meets one exits non-zero instead of reporting, so
// a printed line always carries 0. Transactions aborted by first-committer-
// wins after 1+3 attempts, and requests refused during kv_recover's scripted
// outages, are the modelled system's behaviour: committed_share measures
// them, with its own bound.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func contractRun(name string, seed int64, seconds float64, traced bool) error {
	s, err := workloadByName(name)
	if err != nil {
		return err
	}
	s = s.scaled(seconds)
	var o *outcome
	var defs []metricDef
	var values ledger
	if !traced {
		if o, err = runOnce(s, seed, false, true); err != nil {
			return err
		}
		for _, d := range endToEndDefs {
			if d.Bound > 0 {
				defs = append(defs, d)
			}
		}
		values = o.EndToEnd
		printLedger(os.Stderr, s.Name, endToEndDefs, values, o.Samples)
	} else {
		if _, o, err = tracedPair(s, seed); err != nil {
			return err
		}
		probed, err := runProbes()
		if err != nil {
			return err
		}
		defs = layerDefs()
		values = merged(o.EndToEnd, o.Layers, probed)
		printLedger(os.Stderr, s.Name, defs, values, o.Samples)
	}
	// The driver's format has no null: a per-layer metric this workload does
	// not define is reported as 0 there (the ledger above prints null).
	line := contractLine{Correct: true, Attempted: o.Txns, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{values[d.Name], d.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

func merged(ls ...ledger) ledger {
	out := ledger{}
	for _, l := range ls {
		for k, v := range l {
			out[k] = v
		}
	}
	return out
}

// printLedger prints every metric by name and unit, null where the workload
// does not define it.
func printLedger(w *os.File, workload string, defs []metricDef, l ledger, samples map[string]int) {
	fmt.Fprintf(w, "== %s", workload)
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%d", k, samples[k])
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		if v, ok := l[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %16.6f %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "  %-36s %16s %s\n", d.Name, "null", d.Unit)
		}
	}
}
