package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// --- -check -----------------------------------------------------------------

// checkAll is the one command that prints every metric by name and unit for
// every workload and verifies outputs. Per workload it runs plain twice and
// traced once at the same seed: every run's outputs are verified (verify),
// and the three must agree on every simulated metric, counter delta and the
// digest of the final table contents. Any violation is a non-zero exit.
func checkAll(seed int64, seconds float64) error {
	probed, err := runProbes()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		s := w.scaled(seconds)
		plain, traced, err := tracedPair(s, seed)
		if err != nil {
			return err
		}
		again, err := runOnce(s, seed, false, false)
		if err != nil {
			return err
		}
		if diff := firstSimDifference(plain, again); diff != "" {
			return fmt.Errorf("%s: two runs at seed %d differ: %s", s.Name, seed, diff)
		}
		printLedger(os.Stdout, s.Name, endToEndDefs, plain.EndToEnd, plain.Samples)
		printLedger(os.Stdout, s.Name+" per layer", layerDefs(), merged(plain.EndToEnd, traced.Layers, probed), nil)
		fmt.Printf("  outputs verified, digest %s; plain, repeat and traced runs agree on every sim metric\n\n", plain.Digest)
	}
	return nil
}

// --- -out / -compare --------------------------------------------------------

// resultFile is what -out writes and -compare reads: per workload, the
// end-to-end metrics of each repeated run (null where undefined).
type resultFile struct {
	Seed      int64                            `json:"seed"`
	Seconds   float64                          `json:"seconds"`
	Workloads map[string][]map[string]*float64 `json:"workloads"`
}

func writeResults(path string, seed int64, seconds float64, repeat int) error {
	res := resultFile{Seed: seed, Seconds: seconds, Workloads: map[string][]map[string]*float64{}}
	// Repeats are interleaved across workloads so that drift in the host's
	// speed spreads over all of them instead of landing on one.
	for i := 0; i < repeat; i++ {
		for _, w := range workloads {
			o, err := runOnce(w.scaled(seconds), seed, false, true)
			if err != nil {
				return err
			}
			row := map[string]*float64{}
			for _, d := range endToEndDefs {
				if v, ok := o.EndToEnd[d.Name]; ok {
					row[d.Name] = &v
				} else {
					row[d.Name] = nil
				}
			}
			res.Workloads[w.Name] = append(res.Workloads[w.Name], row)
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.Name, i+1, repeat)
		}
	}
	enc, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// column collects one metric's defined values over a workload's runs.
func column(runs []map[string]*float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v := r[name]; v != nil {
			out = append(out, *v)
		}
	}
	return out
}

// verdict judges one metric of one workload: the change's median against the
// parent's, by the metric's bound. A side whose own repeated runs spread
// (interquartile distance over median) wider than the bound cannot resolve a
// difference of that size, so the row is unresolved rather than ok.
func verdict(d metricDef, old, new []float64) string {
	mo, mn := median(old), median(new)
	worse := 0.0
	switch {
	case mo != 0:
		worse = (mn - mo) / mo
	case mn != 0:
		worse = math.Inf(1) // from zero to something: no base to give a share of
	}
	if d.Better == "higher" {
		worse = -worse
	}
	spread := func(v []float64, m float64) float64 {
		if m == 0 {
			return 0
		}
		q1, q3 := quartiles(v)
		return (q3 - q1) / m
	}
	switch {
	case spread(old, mo) > d.Gate || spread(new, mn) > d.Gate:
		return "unresolved"
	case worse > d.Gate:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric and fails
// when any row regressed.
func compareFiles(oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds {
		return fmt.Errorf("files were measured differently: seed %d/%d, seconds %v/%v",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds)
	}
	fmt.Printf("%-15s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "old (base)", "new", "new/old", "gate", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			o, n := column(old.Workloads[w.Name], d.Name), column(cur.Workloads[w.Name], d.Name)
			if len(o) == 0 && len(n) == 0 {
				continue // not defined on this workload
			}
			if len(o) == 0 || len(n) == 0 {
				return fmt.Errorf("%s %s: present in one file only", w.Name, d.Name)
			}
			status := verdict(d, o, n)
			if status == "regressed" {
				regressed++
			}
			mo, mn := median(o), median(n)
			ratio := "-"
			if mo != 0 {
				ratio = fmt.Sprintf("%.4f", mn/mo)
			}
			fmt.Printf("%-15s %-26s %14.6g %14.6g %9s %6.1f%%  %s\n",
				w.Name, d.Name, mo, mn, ratio, 100*d.Gate, status)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
