package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
)

// faultKind enumerates injectable faults.
type faultKind int

const (
	faultCrash       faultKind = iota // power-fail a node, restart it later
	faultCrashTorn                    // power-fail leaving a torn final record on the log tail
	faultCrashFlip                    // power-fail leaving a bit-flipped frame at the flushed boundary
	faultDiskStall                    // extra per-request latency on a disk
	faultNetSpike                     // extra one-way latency on every link
	faultMigrate                      // rebalance a key range onto a target
	faultCrashCoord                   // power-fail whichever node is the acting coordinator
	faultDestroyDisk                  // power-fail a node AND destroy its log medium (rebuild from replicas)
	faultRotAcked                     // flip one bit inside a flushed frame of a live node's log
	faultCkptCrash                    // power-fail a node partway through a fuzzy checkpoint
	faultCrashDep                     // power-fail a node while a transaction elsewhere waits on its unsettled commit
)

// faultEvent is one scheduled fault.
type faultEvent struct {
	at       time.Duration
	kind     faultKind
	node     int           // crash/stall target
	disk     int           // stall: disk index on the node
	extra    time.Duration // stall/spike magnitude
	dur      time.Duration // stall/spike duration, crash down-time
	loK, hiK int64         // migrate: key range [loK, hiK)
	target   int           // migrate: destination node
	tear     int           // torn/flip crash: tail bytes surviving the interrupted write
	flip     int           // flip crash: bit flipped within the surviving tail bytes
}

// buildPlan derives the fault schedule from the seed alone — never from
// workload state — so the schedule is identical across reruns. Every plan
// contains a migration with a crash of the migration target landing shortly
// after it starts (the hardest window for each repartitioning protocol),
// plus cfg.Faults additional random events.
func buildPlan(cfg Config) []faultEvent {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_c8a0_5eed_c8a0))
	window := cfg.Duration
	var plan []faultEvent

	// The guaranteed crash-mid-migration sequence: move the third quarter
	// of the key space to the first spare node, then power-fail that target
	// while the move is in flight.
	migAt := window/3 + time.Duration(rng.Int63n(int64(window/6)))
	target := 2 // first node without initial data
	plan = append(plan, faultEvent{
		at:     migAt,
		kind:   faultMigrate,
		loK:    int64(cfg.Keys / 2),
		hiK:    int64(3 * cfg.Keys / 4),
		target: target,
	})
	plan = append(plan, faultEvent{
		at:   migAt + 30*time.Millisecond + time.Duration(rng.Int63n(int64(120*time.Millisecond))),
		kind: faultCrash,
		node: target,
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	})
	// Every plan also power-fails the coordinator while that migration is in
	// flight — the hardest failover window: the leader may die between
	// shipping a migration boundary (or a commit decision) and acting on it,
	// and a follower must take over with the partition table and in-doubt
	// decisions intact.
	plan = append(plan, faultEvent{
		at:   migAt + 40*time.Millisecond + time.Duration(rng.Int63n(int64(150*time.Millisecond))),
		kind: faultCrashCoord,
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	})
	for i := 0; i < cfg.CoordFaults; i++ {
		plan = append(plan, faultEvent{
			at:   window/10 + time.Duration(rng.Int63n(int64(window*8/10))),
			kind: faultCrashCoord,
			dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
		})
	}
	// Every plan also damages the log medium once each way on a data node
	// (the nodes with steady log traffic): a power failure tearing the frame
	// the device was writing, and one leaving a bit-flipped frame at the
	// flushed boundary. Recovery must truncate both tails cleanly.
	plan = append(plan, tornCrashEvents(rng, window, 2)...)
	// And cfg.DiskFaults full-disk-loss + acked-history-rot pairs: the wiped
	// node must rebuild everything from its replica set, and the scrubber
	// must repair the flipped frame from a healthy copy.
	for i := 0; i < cfg.DiskFaults; i++ {
		plan = append(plan, diskFaultEvents(rng, window, cfg.Nodes)...)
	}
	// And cfg.CkptFaults mid-checkpoint power failures: with a checkpointer
	// running on every node, each crash lands at a random step of an
	// in-flight fuzzy checkpoint and the restart must fall back to the
	// previous complete begin/end pair.
	plan = append(plan, ckptCrashEvents(rng, window, cfg.Nodes, cfg.CkptFaults)...)

	for i := 0; i < cfg.Faults; i++ {
		at := window/10 + time.Duration(rng.Int63n(int64(window*8/10)))
		switch rng.Intn(8) {
		case 0:
			plan = append(plan, faultEvent{
				at:   at,
				kind: faultCrash,
				node: rng.Intn(cfg.Nodes),
				dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
			})
		case 4:
			plan = append(plan, tornCrash(rng, at, faultCrashTorn, cfg.Nodes))
		case 5:
			plan = append(plan, tornCrash(rng, at, faultCrashFlip, cfg.Nodes))
		case 1:
			plan = append(plan, faultEvent{
				at:    at,
				kind:  faultDiskStall,
				node:  rng.Intn(cfg.Nodes),
				disk:  rng.Intn(3),
				extra: time.Duration(2+rng.Intn(8)) * time.Millisecond,
				dur:   time.Duration(3+rng.Intn(5)) * time.Second,
			})
		case 2:
			plan = append(plan, faultEvent{
				at:    at,
				kind:  faultNetSpike,
				extra: time.Duration(1+rng.Intn(4)) * time.Millisecond,
				dur:   time.Duration(2+rng.Intn(4)) * time.Second,
			})
		case 3:
			// A second migration over the first quarter, to the last node.
			plan = append(plan, faultEvent{
				at:     at,
				kind:   faultMigrate,
				loK:    0,
				hiK:    int64(cfg.Keys / 4),
				target: cfg.Nodes - 1,
			})
		case 6:
			plan = append(plan, destroyDisk(rng, at, cfg.Nodes))
		case 7:
			plan = append(plan, rotAcked(rng, at, cfg.Nodes))
		}
	}
	// Stable order: by time, with insertion order breaking ties (stability
	// matters — equal-timestamp events must execute in generation order or
	// the schedule would depend on the sort implementation).
	// Drawn last, so that every event above is what it was before plans
	// carried this one.
	plan = append(plan, depCrashEvent(rng, window))
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// tornCrash builds one log-medium damage crash at the given time: a power
// failure tearing the frame the log device was writing (partial final
// record), or — for faultCrashFlip — one leaving a byte-complete but
// bit-flipped frame at the flushed boundary. Both harnesses' plan builders
// draw from this single definition so the damage parameter ranges cannot
// drift apart.
func tornCrash(rng *rand.Rand, at time.Duration, kind faultKind, nodes int) faultEvent {
	ev := faultEvent{
		at:   at,
		kind: kind,
		node: rng.Intn(nodes),
		flip: -1,
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	}
	if kind == faultCrashFlip {
		ev.tear = 16 + rng.Intn(256) // often beyond the frame: kept whole, corrupted by the flip
		ev.flip = rng.Intn(1 << 11)
	} else {
		ev.tear = 1 + rng.Intn(96) // strictly partial final frame
	}
	return ev
}

// tornCrashEvents derives the log-medium damage events every plan carries:
// one torn-tail and one bit-flip crash on a node from the first dataNodes
// (the ones with steady log traffic), landing in the middle half of the
// window.
func tornCrashEvents(rng *rand.Rand, window time.Duration, dataNodes int) []faultEvent {
	at := func() time.Duration {
		return window/4 + time.Duration(rng.Int63n(int64(window/2)))
	}
	return []faultEvent{
		tornCrash(rng, at(), faultCrashTorn, dataNodes),
		tornCrash(rng, at(), faultCrashFlip, dataNodes),
	}
}

// depCrashEvent derives the dependency crash every plan carries: a power
// failure of whichever node, from the planned instant on, first has a
// transaction parked in Commit on one of its unsettled commits (a data node
// if none turns up — see crashDependedOn).
func depCrashEvent(rng *rand.Rand, window time.Duration) faultEvent {
	return faultEvent{
		at:   window/4 + time.Duration(rng.Int63n(int64(window/3))),
		kind: faultCrashDep,
		node: rng.Intn(2),
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	}
}

// destroyDisk builds one full-disk-loss event: power-fail the node, wipe its
// log medium and recovery bases, and restart it after dur — the restart must
// rebuild every hosted partition from the node's replica set.
func destroyDisk(rng *rand.Rand, at time.Duration, nodes int) faultEvent {
	return faultEvent{
		at:   at,
		kind: faultDestroyDisk,
		node: rng.Intn(nodes),
		dur:  12*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))),
	}
}

// rotAcked builds one acked-history bit-rot event: flip a bit inside a
// flushed, shippable frame of a live node's log (the scrubber must repair it
// from a healthy copy before — or at latest during — the final sweep). The
// node is drawn from the first two (steady log traffic guarantees a victim
// frame exists).
func rotAcked(rng *rand.Rand, at time.Duration, nodes int) faultEvent {
	pick := nodes
	if pick > 2 {
		pick = 2
	}
	return faultEvent{
		at:   at,
		kind: faultRotAcked,
		node: rng.Intn(pick),
		flip: rng.Intn(1 << 20),
	}
}

// diskFaultEvents derives the guaranteed disk-loss + acked-rot pair every
// plan carries, landing in the middle half of the window.
func diskFaultEvents(rng *rand.Rand, window time.Duration, nodes int) []faultEvent {
	at := func() time.Duration {
		return window/4 + time.Duration(rng.Int63n(int64(window/2)))
	}
	return []faultEvent{
		destroyDisk(rng, at(), nodes),
		rotAcked(rng, at(), nodes),
	}
}

// faultRunner is the workload-agnostic fault executor shared by the KV and
// TPC-C harnesses: it walks the plan on the simulator clock, executing
// crashes (power-fail anywhere, including mid-commit, with a scheduled
// restart), disk stalls, and net spikes itself, and delegating migrations
// to the workload (which knows its tables). Generation counters make
// overlapping faults well-behaved: each injection bumps the device's
// generation, and an expiry timer clears the fault only if no later fault
// has re-armed that device meanwhile.
type faultRunner struct {
	env      *sim.Env
	c        *cluster.Cluster
	rep      *Report
	logFault func(format string, args ...interface{})
	violate  func(string)
	// migrate runs the workload's range migration for ev in its own
	// process and calls done when finished (only one runs at a time).
	migrate func(ev faultEvent, done func())
	// postRestart, when non-nil, runs after every successful node restart.
	postRestart func(p *sim.Proc, n *cluster.DataNode)
}

func (fr *faultRunner) spawnExecutor(plan []faultEvent) {
	migrating := false
	stallGen := make(map[*hw.Disk]int)
	netGen := 0
	fr.env.Spawn("chaos-executor", func(p *sim.Proc) {
		for _, ev := range plan {
			if wait := ev.at - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			switch ev.kind {
			case faultCrash, faultCrashCoord:
				fr.execCrash(ev)
			case faultCrashTorn, faultCrashFlip:
				fr.crashShippedAhead(ev)
			case faultCrashDep:
				fr.crashDependedOn(ev)
			case faultDiskStall:
				n := fr.c.Nodes[ev.node]
				d := n.HW.Disks[ev.disk]
				fr.logFault("disk stall: node %d disk %d +%v for %v", ev.node, ev.disk, ev.extra, ev.dur)
				d.SetStall(ev.extra)
				stallGen[d]++
				mine := stallGen[d]
				fr.env.After(ev.dur, func() {
					if stallGen[d] == mine {
						d.SetStall(0)
					}
				})
			case faultNetSpike:
				fr.logFault("net delay spike: +%v for %v", ev.extra, ev.dur)
				fr.c.Net.SetExtraDelay(ev.extra)
				netGen++
				mine := netGen
				fr.env.After(ev.dur, func() {
					if netGen == mine {
						fr.c.Net.SetExtraDelay(0)
					}
				})
			case faultMigrate:
				if migrating {
					fr.logFault("migration [%d,%d) -> node %d skipped (another in flight)", ev.loK, ev.hiK, ev.target)
					continue
				}
				migrating = true
				fr.migrate(ev, func() { migrating = false })
			case faultDestroyDisk:
				fr.execDestroy(ev)
			case faultCkptCrash:
				fr.execCkptCrash(ev)
			case faultRotAcked:
				n := fr.c.Nodes[ev.node]
				if n.Down() {
					fr.logFault("acked-history rot on node %d skipped (down)", ev.node)
					continue
				}
				if lost := fr.diskLost(); lost != nil {
					// The mirror of execDestroy's rule: rot that outlives this
					// node's next crash costs it its wrapper copies, which a
					// node rebuilding right now may be about to read.
					fr.logFault("acked-history rot on node %d skipped (node %d still rebuilding)", ev.node, lost.ID)
					continue
				}
				if lsn := n.Log.FlipFlushedBit(ev.flip, fr.c.RotEligible(n)); lsn != 0 {
					fr.rep.RotInjected++
					fr.logFault("acked-history rot: node %d frame at LSN %d bit-flipped (pick %d)", ev.node, lsn, ev.flip)
				} else {
					fr.logFault("acked-history rot on node %d skipped (no replica-covered frame)", ev.node)
				}
			}
		}
	})
}

// crashAimed executes ev at the first instant within reach of its planned time
// at which aim (polled every 100 us) names a victim, on that node; with none in
// reach the crash lands on the planned node at the deadline.
func (fr *faultRunner) crashAimed(ev faultEvent, reach time.Duration, aim func() (victim int, ok bool)) {
	fr.env.Spawn("chaos-crash-aimed", func(p *sim.Proc) {
		for deadline := p.Now() + reach; p.Now() < deadline; p.Sleep(100 * time.Microsecond) {
			if victim, ok := aim(); ok {
				ev.node = victim
				break
			}
		}
		fr.execCrash(ev)
	})
}

// crashShippedAhead executes a log-damage crash at the first instant, within
// two seconds of its planned time, at which a follower durably holds frames of
// the node's stream that the node itself has not flushed — so the frame the
// power failure tears is one a follower has whole, and the restart must number
// over a suffix that survives on another disk. Commits open that window for a
// millisecond at a time; the planned instant itself almost never falls inside
// one. Without data replication, or with no window in reach, the crash lands
// where it was planned or at the deadline.
func (fr *faultRunner) crashShippedAhead(ev faultEvent) {
	n := fr.c.Nodes[ev.node]
	if !fr.c.DataReplicated() {
		fr.execCrash(ev)
		return
	}
	fr.crashAimed(ev, 2*time.Second, func() (int, bool) { return ev.node, n.Down() || fr.c.ShippedAhead(n) })
}

// crashDependedOn executes a plain crash at the first instant, within eight
// seconds of its planned time, at which a session is parked in Commit waiting
// for an unsettled commit of some live node — and crashes that node: the wait
// must end in the dependency's actual fate, and nothing the waiter read may be
// reported if the commit is lost. Such waits last a commit force, a few
// milliseconds each, and most dependencies need none (same log): the KV mix
// sees one every five seconds or so, hence the long reach.
func (fr *faultRunner) crashDependedOn(ev faultEvent) {
	ev.kind = faultCrash
	fr.crashAimed(ev, 8*time.Second, func() (int, bool) {
		for _, n := range fr.c.Nodes {
			if fr.c.DependedOn(n) {
				return n.ID, true
			}
		}
		return 0, false
	})
}

// execCrash power-fails a node — at any instant, including mid-commit —
// and schedules its restart. Torn/flip variants additionally damage the log
// medium: part of the frame the device was writing survives on the platter
// (possibly bit-flipped), and the restart must CRC-detect and truncate it
// while every acknowledged commit below the boundary survives.
func (fr *faultRunner) execCrash(ev faultEvent) {
	if ev.kind == faultCrashCoord {
		// Resolve the acting coordinator at execution time — after earlier
		// failovers the leader may be any replica-group member — then crash
		// it like any other power failure.
		ev.node = fr.c.Master.LeaderID()
		ev.kind = faultCrash
	}
	n := fr.c.Nodes[ev.node]
	if n.Down() {
		// Already down: a second crash+restart pair for the same outage
		// would double-count and race the first restart.
		fr.logFault("crash node %d skipped (already down)", ev.node)
		return
	}
	wasLeader := n == fr.c.Master.Node
	ahead := ""
	if fr.c.ShippedAhead(n) {
		fr.rep.AheadCrashes++
		ahead = "a follower's disk is ahead of its log; "
	}
	if fr.c.DependedOn(n) {
		fr.rep.DepCrashes++
		ahead += "a committing transaction waits on its unsettled commit; "
	}
	switch ev.kind {
	case faultCrashTorn:
		torn := fr.c.CrashNodeTorn(n, ev.tear, -1)
		if torn > 0 { // an empty unflushed tail degrades to a plain crash
			fr.rep.TornCrashes++
		}
		fr.logFault("crash node %d with torn log tail (%d bytes survive; %srestart after %v)", ev.node, torn, ahead, ev.dur)
	case faultCrashFlip:
		torn := fr.c.CrashNodeTorn(n, ev.tear, ev.flip)
		if torn > 0 {
			fr.rep.BitFlips++
		}
		fr.logFault("crash node %d with bit-flipped log tail (%d bytes survive, bit %d; %srestart after %v)",
			ev.node, torn, ev.flip, ahead, ev.dur)
	default:
		fr.c.CrashNode(n)
		fr.logFault("crash node %d (%srestart after %v)", ev.node, ahead, ev.dur)
	}
	fr.rep.Crashes++
	if fr.c.MasterReplicated() && wasLeader {
		fr.rep.LeaderCrashes++
	}
	node := n
	dur := ev.dur
	fr.env.Spawn(fmt.Sprintf("chaos-restart-%d", ev.node), func(p *sim.Proc) {
		p.Sleep(dur)
		redone, undone, err := fr.c.RestartNode(p, node)
		if err != nil {
			fr.violate(fmt.Sprintf("restart of node %d failed: %v", node.ID, err))
			return
		}
		// The restart must leave a fully decodable log: a torn or corrupted
		// (and necessarily unacknowledged) tail is truncated, never patched
		// around or left for the next recovery to trip on.
		it := node.Log.Iter()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if it.Err() != nil {
			fr.violate(fmt.Sprintf("restart of node %d left a corrupt log tail: %v", node.ID, it.Err()))
		}
		fr.rep.Restarts++
		noteRecovery(fr.rep, fr.violate, node)
		fr.logFault("node %d restarted (replay: %d redone, %d undone, %d bytes from redo %d, %v to ready)",
			node.ID, redone, undone, node.LastRecovery.Bytes, node.LastRecovery.Redo, node.LastRecovery.Elapsed)
		if fr.postRestart != nil {
			fr.postRestart(p, node)
		}
	})
}

// execDestroy power-fails a node AND destroys its log medium — segments and
// recovery base images both — then schedules the restart, which must rebuild
// every hosted partition from the node's replica set. At most one disk loss
// is outstanding at a time: two simultaneously wiped nodes could be each
// other's only replica, leaving no rebuild source (real deployments solve
// this with rack-aware placement; the simulator keeps the invariant by
// serializing the fault).
func (fr *faultRunner) execDestroy(ev faultEvent) {
	if !fr.c.DataReplicated() {
		fr.logFault("disk loss on node %d skipped (data replication off)", ev.node)
		return
	}
	n := fr.c.Nodes[ev.node]
	if n.Down() {
		fr.logFault("disk loss on node %d skipped (already down)", ev.node)
		return
	}
	if lost := fr.diskLost(); lost != nil {
		fr.logFault("disk loss on node %d skipped (node %d still rebuilding)", ev.node, lost.ID)
		return
	}
	for _, other := range fr.c.Nodes {
		// A node that went down with rot in its acked history not yet scrubbed
		// is a disk loss waiting to be noticed: its restart rebuilds its log
		// wholesale and drops its wrapper copies of the streams it follows —
		// possibly the only other copy of what this node was acknowledged for
		// while their other follower was away.
		if other.Down() && len(other.Log.CheckFlushed()) > 0 {
			fr.logFault("disk loss on node %d skipped (node %d is down with unrepaired rot and will rebuild)", ev.node, other.ID)
			return
		}
	}
	wasLeader := n == fr.c.Master.Node
	fr.c.DestroyDisk(n)
	fr.logFault("disk loss: node %d log medium and bases destroyed (restart after %v)", ev.node, ev.dur)
	fr.rep.Crashes++
	if fr.c.MasterReplicated() && wasLeader {
		fr.rep.LeaderCrashes++
	}
	node := n
	dur := ev.dur
	fr.env.Spawn(fmt.Sprintf("chaos-rebuild-%d", ev.node), func(p *sim.Proc) {
		p.Sleep(dur)
		redone, undone, err := fr.c.RestartNode(p, node)
		if err != nil {
			fr.violate(fmt.Sprintf("rebuild restart of node %d failed: %v", node.ID, err))
			return
		}
		if node.DiskLost() || node.Log.LostDurable() {
			fr.violate(fmt.Sprintf("node %d still marked disk-lost after rebuild restart", node.ID))
			return
		}
		it := node.Log.Iter()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if it.Err() != nil {
			fr.violate(fmt.Sprintf("rebuild of node %d left a corrupt log: %v", node.ID, it.Err()))
		}
		fr.rep.Restarts++
		noteRecovery(fr.rep, fr.violate, node)
		fr.logFault("node %d rebuilt from replicas (replay: %d redone, %d undone, %d bytes, %v to ready)",
			node.ID, redone, undone, node.LastRecovery.Bytes, node.LastRecovery.Elapsed)
		if fr.postRestart != nil {
			fr.postRestart(p, node)
		}
	})
}

// diskLost returns a node whose destroyed disk is not rebuilt yet, or nil.
func (fr *faultRunner) diskLost() *cluster.DataNode {
	for _, n := range fr.c.Nodes {
		if n.DiskLost() {
			return n
		}
	}
	return nil
}

// runner wires the KV harness into the shared fault executor.
func (h *harness) runner() *faultRunner {
	return &faultRunner{
		env:         h.env,
		c:           h.c,
		rep:         h.rep,
		logFault:    h.logFault,
		violate:     h.violate,
		postRestart: h.postRestartSweep,
		migrate: func(ev faultEvent, done func()) {
			h.env.Spawn("chaos-migrate", func(mp *sim.Proc) {
				h.logFault("migration [%d,%d) -> node %d starting", ev.loK, ev.hiK, ev.target)
				err := h.master.MigrateRange(mp, "kv", kvKey(ev.loK), kvKey(ev.hiK), h.c.Nodes[ev.target])
				if err != nil {
					h.logFault("migration [%d,%d) -> node %d aborted: %v", ev.loK, ev.hiK, ev.target, err)
				} else {
					h.logFault("migration [%d,%d) -> node %d complete", ev.loK, ev.hiK, ev.target)
				}
				done()
			})
		},
	}
}

// postRestartSweep reads every key the oracle knows right after a restart;
// the observations flow into the same end-of-run validation as workload
// reads, so "every acknowledged commit readable after restart" is checked
// at the restart boundary itself, not only at the end.
func (h *harness) postRestartSweep(p *sim.Proc, restarted *cluster.DataNode) {
	s := h.master.Begin(p, ccSnapshot, restarted)
	keys := make([]int64, 0, len(h.oracle.hist))
	for k := range h.oracle.hist {
		keys = append(keys, k)
	}
	sortInt64s(keys)
	var seen []readObs
	for _, k := range keys {
		v, ok, err := s.Get(p, "kv", kvKey(k))
		if err != nil {
			// Another fault window may overlap the sweep; skip silently.
			h.rep.FailedOps++
			continue
		}
		obs := readObs{at: p.Now(), snap: s.Txn.Begin, key: k, ok: ok}
		if ok {
			row, derr := h.schema.DecodeRow(v)
			if derr != nil {
				h.violate(fmt.Sprintf("post-restart sweep: key %d undecodable: %v", k, derr))
				continue
			}
			obs.val = row[1].(string)
		}
		seen = append(seen, obs)
	}
	if h.finishRead(p, s) {
		h.reads = append(h.reads, seen...)
	}
}
