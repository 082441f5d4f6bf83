package chaos

import (
	"testing"
	"time"
)

// TestQuickSweepPlansEveryFault: the seeds `make chaos-quick` runs — KV 1–16
// at 25 s, TPC-C 1–8 at 20 s — run every fault mix between them and plan
// every kind of fault the planner has. Planning runs nothing: buildPlan draws
// from the seed alone.
func TestQuickSweepPlansEveryFault(t *testing.T) {
	planned := map[faultKind]int{}
	mixes := map[Mix]bool{}
	for s := int64(1); s <= 16; s++ {
		mixes[MixOf(s)] = true
		kv := &kvWorkload{harness: &harness{cfg: Config{Seed: s, Duration: 25 * time.Second}}}
		for _, ev := range kv.plan() {
			planned[ev.kind]++
		}
	}
	for s := int64(1); s <= 8; s++ {
		tp := &tpccWorkload{harness: &harness{cfg: Config{Seed: s, Duration: 20 * time.Second}}}
		for _, ev := range tp.plan() {
			planned[ev.kind]++
		}
	}
	if len(mixes) != 16 {
		t.Errorf("KV seeds 1–16 run %d of the 16 fault mixes", len(mixes))
	}
	for k := faultKind(0); k < faultKinds; k++ {
		if planned[k] == 0 {
			t.Errorf("fault kind %d is never planned", k)
		}
	}
	t.Logf("planned per kind: %v", planned)
}
