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
// full default duration. (The bug that seed once found, a commit acknowledged
// after a prepared participant presumed abort, is pinned deterministically by
// internal/cluster's TestCommitAfterParticipantPresumedAbort.)
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
// which a random instant hits about once in 400 crashes. Seed 4 of the CI
// sweep, the first whose crash there tears a frame, must come through it.
func TestChaosCrashShippedAhead(t *testing.T) {
	rep, err := Run(Config{Seed: 4, Scheme: table.Logical, Duration: 25 * time.Second})
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
// that the faults it is there for actually happened — its seed's mix turns
// their family up (heavy) and the counters show them — and that every
// invariant held through them. The kv row's are the aimed crashes every plan
// carries: a log-damage crash at "ship.ahead" that tore a frame a follower
// has whole (a random instant hits that window about once in 400 crashes),
// and a crash at "commit.depwait". The kv-coord-ahead row's is a leader crash
// that left a lease or decision on a follower and not on the leader's disk,
// and the election after it.
func TestChaosDeterministic(t *testing.T) {
	heavy := func(m Mix, landed func(*Report) bool) func(*Report) bool {
		return func(r *Report) bool { return MixOf(r.Seed)&m == m && landed(r) }
	}
	diskLoss := func(r *Report) bool { return r.DiskLosses > 0 && r.Rebuilds > 0 && r.FollowerReads > 0 }
	failover := func(r *Report) bool { return r.LeaderCrashes > 0 && r.Failovers > 0 }
	ckptCrash := func(r *Report) bool { return r.Checkpoints > 0 && r.CkptCrashes > 0 && r.BoundedRestarts > 0 }
	rows := []struct {
		name     string
		run      func(Config) (*Report, error)
		seed     int64
		duration time.Duration
		happened func(*Report) bool // nil: nothing to require
	}{
		{"kv", Run, 12, 30 * time.Second,
			func(r *Report) bool { return r.AheadCrashes > 0 && r.TornCrashes+r.BitFlips > 0 && r.DepCrashes > 0 }},
		{"kv-disk-loss", Run, 6, 40 * time.Second, heavy(mixDisk, diskLoss)},
		{"kv-coord-failover", Run, 23, 40 * time.Second, heavy(mixCoord, failover)},
		{"kv-coord-ahead", Run, 5, 30 * time.Second,
			heavy(mixCoord, func(r *Report) bool { return r.CoordAheadCrashes > 0 && failover(r) })},
		{"kv-ckpt-crash", Run, 12, 40 * time.Second, heavy(mixCkpt, ckptCrash)},
		{"tpcc", RunTPCC, 8, 20 * time.Second, nil},
		{"tpcc-all-faults", RunTPCC, 87, 20 * time.Second,
			heavy(mixCoord|mixDisk|mixCkpt, func(r *Report) bool { return diskLoss(r) && failover(r) && ckptCrash(r) })},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Seed: row.seed, Scheme: table.Physiological, Duration: row.duration}
			r1, err := row.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			logReport(t, r1)
			if !r1.Passed() {
				t.Fatalf("invariant violations:\n%s", strings.Join(r1.Violations, "\n"))
			}
			if row.happened != nil && !row.happened(r1) {
				t.Fatalf("the faults this row piles on never landed (mix %s, counters in the log line above)", MixOf(row.seed))
			}
			r2, err := row.run(cfg)
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
