package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wattdb/internal/table"
)

// TestChaosSeedsPass runs a short chaos scenario for each repartitioning
// scheme and requires every invariant to hold — plus seed 10 at the CLI's
// full default duration: its schedule parks a cross-partition commit in a
// phase-1 replication wait long enough for an already-prepared participant
// to crash, restart and presume abort, which the session once went on to
// acknowledge as committed.
func TestChaosSeedsPass(t *testing.T) {
	cases := []Config{
		{Seed: 7, Scheme: table.Physical, Duration: 40 * time.Second},
		{Seed: 7, Scheme: table.Logical, Duration: 40 * time.Second},
		{Seed: 7, Scheme: table.Physiological, Duration: 40 * time.Second},
		{Seed: 10, Scheme: table.Logical},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-seed%d", cfg.Scheme, cfg.Seed), func(t *testing.T) {
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, rep)
			if !rep.Passed() {
				t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
			}
			if rep.Commits == 0 {
				t.Fatal("no transactions committed under chaos")
			}
			if rep.Crashes == 0 || rep.Restarts == 0 {
				t.Fatalf("plan injected no crash/restart (crashes=%d restarts=%d)", rep.Crashes, rep.Restarts)
			}
		})
	}
}

// TestChaosCrashShippedAhead: every plan's log-damage crashes are aimed at
// the "ship.ahead" crash point, where a follower durably holds frames the
// victim has not flushed — the window a commit's overlapped forces open,
// which a random instant hits about once in 400 crashes. The first seed of
// the CI sweep must land a torn crash there and come through it.
func TestChaosCrashShippedAhead(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Scheme: table.Logical, Duration: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, rep)
	if !rep.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.AheadCrashes == 0 || rep.TornCrashes == 0 {
		t.Fatalf("%d crashes caught a node with a follower's disk ahead of its own log (%d torn), want at least one torn one",
			rep.AheadCrashes, rep.TornCrashes)
	}
}

// TestChaosDeterministic reruns one seed per row and requires the identical
// fault schedule and final state hash — the property that makes any chaos
// failure a one-line repro. The hash covers every counter of the report, so
// elections, rebuild sourcing, scrub repairs, follower reads and checkpoint
// fallbacks are all held to replaying identically. Each row first requires
// that the faults it is there for actually happened, and that every invariant
// held through them. The kv row's are the default plan's aimed crashes: a
// log-damage crash at "ship.ahead" that tore a frame a follower has whole
// (a random instant hits that window about once in 400 crashes), and a crash
// at "commit.depwait". The kv-coord-ahead row's is a leader crash that left a
// lease or decision on a follower and not on the leader's disk, and the
// election after it.
func TestChaosDeterministic(t *testing.T) {
	diskLoss := func(r *Report) bool { return r.DiskLosses > 0 && r.Rebuilds > 0 && r.FollowerReads > 0 }
	failover := func(r *Report) bool { return r.LeaderCrashes > 0 && r.Failovers > 0 }
	ckptCrash := func(r *Report) bool { return r.Checkpoints > 0 && r.CkptCrashes > 0 && r.BoundedRestarts > 0 }
	rows := []struct {
		name     string
		run      func(Config) (*Report, error)
		cfg      Config
		happened func(*Report) bool // nil: nothing to require
	}{
		{"kv", Run, Config{Seed: 10, Duration: 30 * time.Second},
			func(r *Report) bool { return r.AheadCrashes > 0 && r.TornCrashes+r.BitFlips > 0 && r.DepCrashes > 0 }},
		{"kv-disk-loss", Run, Config{Seed: 5, Duration: 40 * time.Second, DiskFaults: 3}, diskLoss},
		{"kv-coord-failover", Run, Config{Seed: 23, Duration: 40 * time.Second, CoordFaults: 3}, failover},
		{"kv-coord-ahead", Run, Config{Seed: 5, Duration: 30 * time.Second, CoordFaults: 3},
			func(r *Report) bool { return r.CoordAheadCrashes > 0 && failover(r) }},
		{"kv-ckpt-crash", Run, Config{Seed: 8, Duration: 40 * time.Second, CkptFaults: 3}, ckptCrash},
		{"tpcc", RunTPCC, Config{Seed: 8, Duration: 20 * time.Second}, nil},
		{"tpcc-all-faults", RunTPCC, Config{Seed: 4, Duration: 20 * time.Second, DiskFaults: 3, CoordFaults: 3, CkptFaults: 3},
			func(r *Report) bool { return diskLoss(r) && failover(r) && ckptCrash(r) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.cfg.Scheme = table.Physiological
			r1, err := row.run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, r1)
			if !r1.Passed() {
				t.Fatalf("invariant violations:\n%s", strings.Join(r1.Violations, "\n"))
			}
			if row.happened != nil && !row.happened(r1) {
				t.Fatal("the faults this row piles on never landed (counters in the log line above)")
			}
			r2, err := row.run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.StateHash != r2.StateHash {
				t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
			}
			if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
				t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
			}
		})
	}
}

func logReport(t *testing.T, rep *Report) {
	t.Helper()
	var counters strings.Builder
	rep.EachCounter(func(name string, value any) { fmt.Fprintf(&counters, " %s=%v", name, value) })
	t.Logf("hash=%s%s", rep.StateHash, counters.String())
	for _, f := range rep.Faults {
		t.Logf("  %s", f)
	}
}
