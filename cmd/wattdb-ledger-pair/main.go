// Command wattdb-ledger-pair measures a change against a parent revision the
// way the benchmark's acceptance rule reads its results: alternating pairs of
// whole ledger runs on two source trees, medians and quartiles per workload
// and metric, pairs won, and the ledger's own -compare verdicts at the end.
//
//	wattdb-ledger-pair -parent HEAD~1 -pairs 10     (make ledger-pair PARENT=HEAD~1)
//
// The parent's committed files are unpacked under .bench_build/parent (git
// archive | tar: no worktree metadata, so it works where worktrees are refused)
// and removed afterwards; the change is the working tree. Each side of each pair
// is one `bash bench/run.sh -repeat 1 -out …` in its own tree (odd pairs run
// the change first, so drift in the host's speed favours neither side). The
// per-run files and the two merged result files stay in .bench_build/pair/.
//
//	wattdb-ledger-pair -parent HEAD~1 -seeds "2 3 4 5 6"   (make ledger-seeds PARENT=HEAD~1 SEEDS="2 3 4 5 6")
//
// With -seeds it measures at other seeds instead: one run per seed and side —
// the simulated rows repeat exactly at a fixed seed, so one is all it takes —
// and a parent → change table per workload of every sim_* row and
// committed_share, one column per seed. Its files are .bench_build/pair/seed_*.
//
//	wattdb-ledger-pair -parent HEAD~1 -pairs 10 -workload htap_offload   (make ledger-pair PARENT=HEAD~1 WORKLOAD=htap_offload)
//
// With -workload, in either mode, each side of each run measures that one
// workload alone — `bash bench/run.sh --workload W --seed S --seconds 10`,
// whose JSON line becomes a one-workload result file — so a claim about one
// workload takes about a quarter of the time. The whole ledger stays the
// default. Run from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// resultFile is the shape bench's -out writes and -compare reads.
type resultFile struct {
	Seed      int64                            `json:"seed"`
	Seconds   float64                          `json:"seconds"`
	Workloads map[string][]map[string]*float64 `json:"workloads"`
}

// manifest is the part of BENCHMARK.json this tool needs: the order of the
// workloads and of the metrics and, per metric, which direction is better.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	parent := flag.String("parent", "", "revision to measure against (required)")
	pairs := flag.Int("pairs", 10, "alternating parent/change pairs")
	seedList := flag.String("seeds", "", `instead of pairs, one run per side at each of these seeds ("2 3 4")`)
	workload := flag.String("workload", "", "measure this workload alone instead of the whole ledger")
	flag.Parse()
	var seeds []int64
	for _, f := range strings.Fields(*seedList) {
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wattdb-ledger-pair: -seeds:", err)
			os.Exit(2)
		}
		seeds = append(seeds, s)
	}
	if *parent == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *pairs, seeds, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "wattdb-ledger-pair:", err)
		os.Exit(1)
	}
}

func run(parent string, pairs int, seeds []int64, workload string) (err error) {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var man manifest
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if workload != "" {
		known := false
		for _, w := range man.Workloads {
			known = known || w.Name == workload
		}
		if !known {
			return fmt.Errorf("-workload %s: not a workload of BENCHMARK.json", workload)
		}
	}
	out := filepath.Join(root, ".bench_build", "pair")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tree := filepath.Join(root, ".bench_build", "parent")
	// A tree left behind by an interrupted run is in the way.
	if err := os.RemoveAll(tree); err != nil {
		return err
	}
	if err := os.MkdirAll(tree, 0o755); err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(tree); err == nil {
			err = rerr
		}
	}()
	if err := show(command(root, "bash", "-o", "pipefail", "-c", `git archive "$0" | tar -x -C "$1"`, parent, tree)); err != nil {
		return err
	}

	type side struct{ name, dir string }
	sides := []side{{"parent", tree}, {"change", root}}
	if len(seeds) > 0 {
		// Per seed: one result file per side, parent first.
		bySeed := make([][2]*resultFile, len(seeds))
		for i, seed := range seeds {
			for j, s := range sides {
				file := filepath.Join(out, fmt.Sprintf("seed_%d_%s.json", seed, s.name))
				fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, s.name)
				if err := measure(s.dir, workload, seed, file); err != nil {
					return fmt.Errorf("seed %d, %s: %w", seed, s.name, err)
				}
				if bySeed[i][j], err = load(file); err != nil {
					return err
				}
			}
		}
		reportSeeds(man, seeds, bySeed)
		return nil
	}
	merged := map[string]*resultFile{}
	for i := 1; i <= pairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []side{sides[1], sides[0]}
		}
		for _, s := range order {
			file := filepath.Join(out, fmt.Sprintf("%s_%02d.json", s.name, i))
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i, pairs, s.name)
			if err := measure(s.dir, workload, 1, file); err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, s.name, err)
			}
			if err := merge(merged, s.name, file); err != nil {
				return err
			}
		}
	}
	files := map[string]string{}
	for _, s := range sides {
		files[s.name] = filepath.Join(out, s.name+".json")
		enc, err := json.MarshalIndent(merged[s.name], "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(files[s.name], append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	report(man, merged["parent"], merged["change"])
	return show(command(root, "bash", "bench/run.sh", "-compare", files["parent"], files["change"]))
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	return cmd
}

// show runs cmd with its output on this process's own.
func show(cmd *exec.Cmd) error {
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %w", cmd.Args, err)
	}
	return nil
}

// measure runs the ledger once in the tree at dir, at seed, and writes a
// result file: the whole ledger (-repeat 1 -out), or with workload set that
// workload alone, its JSON line turned into a one-workload result file.
func measure(dir, workload string, seed int64, file string) error {
	if workload == "" {
		return show(command(dir, "bash", "bench/run.sh", "-seed", fmt.Sprint(seed), "-repeat", "1", "-out", file))
	}
	cmd := command(dir, "bash", "bench/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "10")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %w", cmd.Args, err)
	}
	out := strings.TrimSpace(stdout.String())
	var line struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &line); err != nil {
		return fmt.Errorf("%v: last line: %w", cmd.Args, err)
	}
	row := map[string]*float64{}
	for name, m := range line.Metrics {
		row[name] = &m.Value
	}
	enc, err := json.MarshalIndent(resultFile{Seed: seed, Seconds: 10,
		Workloads: map[string][]map[string]*float64{workload: {row}}}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(enc, '\n'), 0o644)
}

// load reads a result file.
func load(file string) (*resultFile, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &res, nil
}

// merge appends the runs in file to side's result file.
func merge(into map[string]*resultFile, side, file string) error {
	res, err := load(file)
	if err != nil {
		return err
	}
	m := into[side]
	if m == nil {
		into[side] = res
		return nil
	}
	if m.Seed != res.Seed || m.Seconds != res.Seconds {
		return fmt.Errorf("%s: measured at seed %d for %v s, earlier runs at seed %d for %v s",
			file, res.Seed, res.Seconds, m.Seed, m.Seconds)
	}
	for w, runs := range res.Workloads {
		m.Workloads[w] = append(m.Workloads[w], runs...)
	}
	return nil
}

// report prints, per workload and end-to-end metric, each side's median and
// quartiles and how many pairs the change won (run i of one side is paired
// with run i of the other; ties count for neither).
func report(man manifest, parent, change *resultFile) {
	fmt.Printf("%-15s %-22s %12s %25s %12s %25s %9s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "won")
	for _, w := range man.Workloads {
		p, c := parent.Workloads[w.Name], change.Workloads[w.Name]
		for _, d := range man.EndToEnd {
			var pv, cv []float64
			won, tied := 0, 0
			for i := range p {
				a, b := p[i][d.Name], c[i][d.Name]
				if a == nil || b == nil {
					continue
				}
				pv, cv = append(pv, *a), append(cv, *b)
				switch {
				case *a == *b:
					tied++
				case (*b > *a) == (d.Better == "higher"):
					won++
				}
			}
			if len(pv) == 0 {
				continue
			}
			pm, pq1, pq3 := quartiles(pv)
			cm, cq1, cq3 := quartiles(cv)
			fmt.Printf("%-15s %-22s %12.6g %25s %12.6g %25s %6d/%d\n", w.Name, d.Name,
				pm, fmt.Sprintf("[%.6g, %.6g]", pq1, pq3), cm, fmt.Sprintf("[%.6g, %.6g]", cq1, cq3),
				won, len(pv)-tied)
		}
	}
	fmt.Println()
}

// reportSeeds prints, per workload, one row per sim_* metric and
// committed_share — in BENCHMARK.json's order — with the parent → change
// values and the relative change at each seed (bySeed[i] is seeds[i]'s parent
// and change result).
func reportSeeds(man manifest, seeds []int64, bySeed [][2]*resultFile) {
	fmt.Printf("%-15s %-26s", "workload", "metric")
	for _, s := range seeds {
		fmt.Printf(" %30s", fmt.Sprintf("seed %d", s))
	}
	fmt.Println()
	value := func(res *resultFile, w, metric string) *float64 {
		if runs := res.Workloads[w]; len(runs) > 0 {
			return runs[0][metric]
		}
		return nil
	}
	for _, w := range man.Workloads {
		for _, d := range append(man.EndToEnd, man.PerLayer...) {
			if !strings.HasPrefix(d.Name, "sim_") && d.Name != "committed_share" {
				continue
			}
			var cells []string
			defined := false
			for _, pair := range bySeed {
				p, c := value(pair[0], w.Name, d.Name), value(pair[1], w.Name, d.Name)
				switch {
				case p == nil || c == nil:
					cells = append(cells, "null")
				case *p == 0:
					cells = append(cells, fmt.Sprintf("%.6g → %.6g", *p, *c))
					defined = true
				default:
					cells = append(cells, fmt.Sprintf("%.6g → %.6g (%+.2f%%)", *p, *c, 100*(*c-*p) / *p))
					defined = true
				}
			}
			if !defined {
				continue
			}
			fmt.Printf("%-15s %-26s", w.Name, d.Name)
			for _, cell := range cells {
				fmt.Printf(" %30s", cell)
			}
			fmt.Println()
		}
	}
}

// quartiles returns the median and the first and third quartile of v, by
// linear interpolation between order statistics.
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}
