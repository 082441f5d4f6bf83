package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"wattdb/internal/chbench"
	"wattdb/internal/tpcc"
)

// smoke shrinks a workload until the whole set runs in a few seconds: the
// point is to exercise the harness, not to measure. Ledger runs never change
// client counts or scale; this does.
func smoke(s spec) spec {
	switch s.Name {
	case "tpcc_commit":
		s.Warmup, s.Measure = 500*time.Millisecond, 3*time.Second
	case "tpcc_rebalance":
		// The migration outlives the window; the drain phase completes it.
		s.Clients, s.Warmup, s.Measure = 8, time.Second, 5*time.Second
	case "htap_offload":
		s.Clients, s.Warmup, s.Measure = 8, 500*time.Millisecond, 3*time.Second
	case "kv_recover":
		// Long enough for three outages of 2 s + boot + replay, back to back.
		s.Clients, s.Warmup, s.Measure = 2, time.Second, 56*time.Second
	}
	return s
}

// TestSmoke runs every workload traced at smoke scale and checks that the
// program emits exactly the metrics it declares: every declared metric the
// workload defines is present, and nothing undeclared is.
func TestSmoke(t *testing.T) {
	declared := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), layerDefs()...) {
		declared[d.Name] = d
	}
	for _, w := range workloads {
		o, err := runOnce(smoke(w), 1, true, false)
		if err != nil {
			t.Fatal(err)
		}
		emitted := merged(o.EndToEnd, o.Layers)
		for name, v := range emitted {
			d, ok := declared[name]
			if !ok {
				t.Errorf("%s emits undeclared metric %s", w.Name, name)
			} else if !d.definedOn(w.Name) {
				t.Errorf("%s emits %s, which is declared for %v only", w.Name, name, d.Only)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v)
			}
		}
		for name, d := range declared {
			// Probes and the two metrics that need a plain run beside the
			// traced one are added by the callers of runOnce.
			if isProbe(name) || name == "trace_overhead_pct" || !d.definedOn(w.Name) {
				continue
			}
			if _, ok := emitted[name]; !ok {
				t.Errorf("%s does not emit %s", w.Name, name)
			}
		}
		for _, d := range endToEndDefs {
			if d.Bound > 0 && emitted[d.Name] <= 0 {
				t.Errorf("%s: contract metric %s = %v, must be positive", w.Name, d.Name, emitted[d.Name])
			}
		}
		if len(o.spans.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.Name)
		}
	}
}

func TestProbesCoverDeclaredSet(t *testing.T) {
	have := map[string]bool{}
	for _, p := range probes {
		if !isProbe(p.name) {
			t.Errorf("probe %s is not declared in probeDefs", p.name)
		}
		have[p.name] = true
	}
	for _, d := range probeDefs {
		if !have[d.Name] {
			t.Errorf("declared probe %s has no implementation", d.Name)
		}
	}
}

func TestChbenchQueryNames(t *testing.T) {
	var names []string
	dep := &tpcc.Deployment{Schemas: tpcc.Schemas()}
	for _, q := range (&chbench.Runner{Dep: dep}).Queries() {
		names = append(names, q.Name)
	}
	if len(names) != len(chbenchQueries) {
		t.Fatalf("chbench has %d queries, the ledger declares %d", len(names), len(chbenchQueries))
	}
	for i := range names {
		if names[i] != chbenchQueries[i] {
			t.Errorf("query %d is %q, the ledger declares %q", i, names[i], chbenchQueries[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 51}, {0.9, 91}, {0.99, 100}, {1, 100}, {0, 1}} {
		if got := percentile(d, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSharesAndPerTxn(t *testing.T) {
	if got := share(1, 4); got != 0.25 {
		t.Errorf("share(1,4) = %v", got)
	}
	if got := share(3, 0); got != 0 {
		t.Errorf("share(3,0) = %v, want 0 (never NaN)", got)
	}
	if got := perTxn(10, 4); got != 2.5 {
		t.Errorf("perTxn(10,4) = %v", got)
	}
	if got := perTxn(10, 0); got != 0 {
		t.Errorf("perTxn(10,0) = %v, want 0 (never NaN)", got)
	}
}

// TestEndToEndArithmetic feeds the ledger a hand-made window: five
// transactions, one of them finishing after the window closed, three of the
// remaining four committed.
func TestEndToEndArithmetic(t *testing.T) {
	sec := time.Second
	r := &run{warm: 10 * sec, end: 20 * sec, hostWindow: 8 * time.Millisecond, mallocs: 400, allocBytes: 8192}
	r.after.energy = 30
	r.txns = []txnRec{
		{start: 9 * sec, end: 11 * sec, committed: true},
		{start: 12 * sec, end: 12*sec + 10*time.Millisecond, committed: true},
		{start: 13 * sec, end: 14 * sec},
		{start: 15 * sec, end: 15*sec + 30*time.Millisecond, committed: true},
		{start: 19 * sec, end: 21 * sec, committed: true},
	}
	l, n := r.endToEnd()
	if n != 4 {
		t.Fatalf("window holds %d transactions, want 4", n)
	}
	for name, want := range map[string]float64{
		"sim_txn_per_s":         0.3, // 3 commits in 10 simulated seconds
		"failed_share":          0.25,
		"committed_share":       0.75,
		"sim_lat_p50_ms":        30, // committed latencies 10, 30, 2000 ms
		"sim_lat_p99_ms":        2000,
		"sim_joules_per_txn":    10,   // per committed transaction
		"host_us_per_txn":       2000, // per finished transaction
		"host_allocs_per_txn":   100,
		"host_alloc_kb_per_txn": 2,
	} {
		if got := l[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	v := []float64{9, 1, 7, 3, 5, 10, 2, 8, 4, 6}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Gate: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Gate: 0.10}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same", lower, []float64{10, 10, 10}, []float64{10, 10, 10}, "ok"},
		{"within bound", lower, []float64{10, 10, 10}, []float64{10.9, 10.9, 10.9}, "ok"},
		{"worse", lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, "regressed"},
		{"better", lower, []float64{10, 10, 10}, []float64{5, 5, 5}, "ok"},
		{"higher is better, dropped", higher, []float64{10, 10, 10}, []float64{8, 8, 8}, "regressed"},
		{"higher is better, rose", higher, []float64{10, 10, 10}, []float64{12, 12, 12}, "ok"},
		{"own spread too wide", lower, []float64{8, 10, 12}, []float64{10, 10, 10}, "unresolved"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's metric
// and workload declarations identical, in both directions.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var fromProgram any
	if err := json.Unmarshal(enc, &fromProgram); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(fromProgram)
	if string(a) != string(b) {
		t.Errorf("BENCHMARK.json differs from the program's declarations; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := manifest()
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the manifest's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, e := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		check(e.Name)
		if !unit.MatchString(e.Unit) {
			t.Errorf("metric %s: unit %q is outside the manifest's alphabet", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("metric %s: better = %q", e.Name, e.Better)
		}
	}
	for _, e := range m.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("manifest lists %d end-to-end and %d per-layer metrics, limits are 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
}
