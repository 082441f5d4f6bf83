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

// TestChaosCrashShippedAhead: every plan's log-damage crashes look for the
// instant at which a follower durably holds frames the victim has not flushed
// (crashShippedAhead) — the window a commit's overlapped forces open, which a
// random instant hits about once in 400 crashes. The first seed of the CI
// sweep must land one there and come through it.
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

// TestChaosDeterministic reruns one seed and requires the identical fault
// schedule and final state hash — the property that makes any chaos failure
// a one-line repro.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Scheme: table.Physiological, Duration: 30 * time.Second}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateHash != r2.StateHash {
		t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
	}
	if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
		t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
	}
	if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts || r1.SimTime != r2.SimTime {
		t.Errorf("run outcome differs: (%d,%d,%v) vs (%d,%d,%v)",
			r1.Commits, r1.Aborts, r1.SimTime, r2.Commits, r2.Aborts, r2.SimTime)
	}
}

// TestChaosDiskLossDeterministic piles full-disk-loss and acked-history-rot
// faults onto one seed and requires (a) a disk actually got destroyed and
// the restart rebuilt the node from its replica set, (b) every invariant
// holds through the rebuild, and (c) two runs agree on the schedule and the
// state hash — rebuild sourcing, scrub repairs, and follower reads replay
// identically (the hash includes all the replication counters).
func TestChaosDiskLossDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Scheme: table.Physiological, Duration: 40 * time.Second, DiskFaults: 3}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, r1)
	if !r1.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(r1.Violations, "\n"))
	}
	if r1.DiskLosses == 0 || r1.Rebuilds == 0 {
		t.Fatalf("no disk was lost and rebuilt (diskLosses=%d rebuilds=%d)", r1.DiskLosses, r1.Rebuilds)
	}
	if r1.FollowerReads == 0 {
		t.Fatal("no snapshot read was served by a replica")
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateHash != r2.StateHash {
		t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
	}
	if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
		t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
	}
	if r1.DiskLosses != r2.DiskLosses || r1.Rebuilds != r2.Rebuilds ||
		r1.ScrubRepairs != r2.ScrubRepairs || r1.FollowerReads != r2.FollowerReads {
		t.Errorf("replication counters differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			r1.DiskLosses, r1.Rebuilds, r1.ScrubRepairs, r1.FollowerReads,
			r2.DiskLosses, r2.Rebuilds, r2.ScrubRepairs, r2.FollowerReads)
	}
}

// TestChaosCoordFailoverDeterministic piles extra coordinator power-fails
// onto one seed and requires (a) leader crashes and completed failovers
// actually occurred, (b) every invariant still holds through them, and
// (c) two runs agree on the schedule and the state hash — elections,
// catch-up, and post-failover reconciliation replay identically (the hash
// includes the failover count).
func TestChaosCoordFailoverDeterministic(t *testing.T) {
	cfg := Config{Seed: 23, Scheme: table.Physiological, Duration: 40 * time.Second, CoordFaults: 3}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, r1)
	if !r1.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(r1.Violations, "\n"))
	}
	if r1.LeaderCrashes == 0 || r1.Failovers == 0 {
		t.Fatalf("coordinator never failed over (leaderCrashes=%d failovers=%d)", r1.LeaderCrashes, r1.Failovers)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateHash != r2.StateHash {
		t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
	}
	if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
		t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
	}
	if r1.LeaderCrashes != r2.LeaderCrashes || r1.Failovers != r2.Failovers {
		t.Errorf("failover outcome differs: (%d,%d) vs (%d,%d)",
			r1.LeaderCrashes, r1.Failovers, r2.LeaderCrashes, r2.Failovers)
	}
}

// TestChaosCkptCrashDeterministic piles mid-checkpoint power failures onto
// one seed and requires (a) checkpoints completed and at least one crash
// landed inside the checkpoint protocol, (b) at least one restart was
// bounded by a complete checkpoint (replay from its redo point, not the log
// head), (c) every invariant holds through the torn pairs, and (d) two runs
// agree on the schedule, the recovery counters, and the state hash.
func TestChaosCkptCrashDeterministic(t *testing.T) {
	cfg := Config{Seed: 8, Scheme: table.Physiological, Duration: 40 * time.Second, CkptFaults: 3}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logReport(t, r1)
	if !r1.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(r1.Violations, "\n"))
	}
	if r1.Checkpoints == 0 || r1.CkptCrashes == 0 {
		t.Fatalf("no mid-checkpoint crash landed (checkpoints=%d ckptCrashes=%d)", r1.Checkpoints, r1.CkptCrashes)
	}
	if r1.BoundedRestarts == 0 {
		t.Fatal("no restart was bounded by a complete checkpoint")
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateHash != r2.StateHash {
		t.Errorf("state hash differs: %s vs %s", r1.StateHash, r2.StateHash)
	}
	if fmt.Sprint(r1.Faults) != fmt.Sprint(r2.Faults) {
		t.Errorf("fault schedules differ:\nrun1: %v\nrun2: %v", r1.Faults, r2.Faults)
	}
	if r1.Checkpoints != r2.Checkpoints || r1.CkptCrashes != r2.CkptCrashes ||
		r1.BoundedRestarts != r2.BoundedRestarts || r1.ReplayBytes != r2.ReplayBytes {
		t.Errorf("recovery counters differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			r1.Checkpoints, r1.CkptCrashes, r1.BoundedRestarts, r1.ReplayBytes,
			r2.Checkpoints, r2.CkptCrashes, r2.BoundedRestarts, r2.ReplayBytes)
	}
}

func logReport(t *testing.T, rep *Report) {
	t.Helper()
	t.Logf("seed=%d scheme=%s hash=%s commits=%d aborts=%d failedOps=%d reads=%d scans=%d crashes=%d restarts=%d",
		rep.Seed, rep.Scheme, rep.StateHash, rep.Commits, rep.Aborts, rep.FailedOps,
		rep.Reads, rep.Scans, rep.Crashes, rep.Restarts)
	for _, f := range rep.Faults {
		t.Logf("  %s", f)
	}
}
