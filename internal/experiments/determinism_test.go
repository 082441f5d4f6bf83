package experiments

import (
	"reflect"
	"testing"

	"wattdb/internal/table"
)

// TestTimelineDeterministic is the determinism guard for the whole
// experiment suite: two same-seed runs of a figure preset must produce
// byte-identical result tables AND identical simulation-kernel statistics
// (event, wakeup, and callback counts). Any map-iteration order or host
// randomness leaking into the virtual clock shows up here as a diff in
// KernelStats long before it visibly distorts a figure.
func TestTimelineDeterministic(t *testing.T) {
	run := func() TimelineResult {
		t.Helper()
		res, err := RunTimeline(TimelineOpts{Preset: tiny(), Scheme: table.Physiological})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	if r1.KernelStats != r2.KernelStats {
		t.Errorf("kernel stats differ between same-seed runs:\nrun1: %+v\nrun2: %+v",
			r1.KernelStats, r2.KernelStats)
	}
	if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts || r1.MigrationTook != r2.MigrationTook {
		t.Errorf("run outcome differs: (%d,%d,%v) vs (%d,%d,%v)",
			r1.Commits, r1.Aborts, r1.MigrationTook, r2.Commits, r2.Aborts, r2.MigrationTook)
	}
	if !reflect.DeepEqual(r1.QPS, r2.QPS) || !reflect.DeepEqual(r1.ResponseMs, r2.ResponseMs) ||
		!reflect.DeepEqual(r1.Watts, r2.Watts) || !reflect.DeepEqual(r1.JoulePerQuery, r2.JoulePerQuery) {
		t.Error("result tables differ between same-seed runs")
	}
}

// TestFig1Deterministic pins the operator micro-benchmark: identical seeds
// must reproduce the exact throughput numbers.
func TestFig1Deterministic(t *testing.T) {
	r1, err := Fig1(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fig1(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("fig1 differs between same-seed runs:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
}

// TestFig3Deterministic pins the MVCC-vs-locking study, locking-mode column
// included: identical seeds must reproduce the exact throughput and storage
// numbers.
func TestFig3Deterministic(t *testing.T) {
	r1, err := Fig3(150, []int{0, 100}, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fig3(150, []int{0, 100}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("fig3 differs between same-seed runs:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
}
