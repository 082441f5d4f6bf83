package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
	faultCoordAhead                   // power-fail the acting coordinator while a follower holds a lease or decision it has not flushed
	faultPublish                      // power-fail the acting coordinator as it sends the oracle's view
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
	hit      int           // aimed crash: matching crash points let pass before it fires
}

// migration is a key range [loK, hiK) a plan moves to another node.
type migration struct{ loK, hiK int64 }

// planner draws a plan's events from the plan's own rng.
type planner struct {
	*rand.Rand
	window time.Duration
	nodes  int
}

// downTime draws how long a crashed node stays off.
func (pl planner) downTime() time.Duration {
	return 12*time.Second + time.Duration(pl.Int63n(int64(10*time.Second)))
}

// anywhere draws an instant in the middle 80 % of the window, midHalf one in
// its middle half.
func (pl planner) anywhere() time.Duration {
	return pl.window/10 + time.Duration(pl.Int63n(int64(pl.window*8/10)))
}

func (pl planner) midHalf() time.Duration {
	return pl.window/4 + time.Duration(pl.Int63n(int64(pl.window/2)))
}

// buildPlan derives the fault schedule from the seed alone — never from
// workload state — so the schedule is identical across reruns. The plan is
// the table below, read top to bottom: each class of fault, how many of it
// the plan carries, and how one is drawn. All classes draw from one rng, so
// a new class is one more entry at the END of the table (and one case in
// spawnExecutor): anywhere else it would shift every later draw and change
// every plan there is.
func buildPlan(cfg Config, salt int64, first, second migration) []faultEvent {
	pl := planner{rand.New(rand.NewSource(cfg.Seed ^ salt)), cfg.Duration, cfg.Nodes}
	aimPublish := cfg.CoordFaults > 1
	classes := []struct {
		n    int
		draw func() []faultEvent
	}{
		// The crash-mid-migration sequence: move the first range to the first
		// node without initial data, power-fail that target shortly after the
		// move starts (the hardest window for each repartitioning protocol),
		// and power-fail the coordinator while the move is in flight — the
		// hardest failover window: the leader may die between shipping a
		// migration boundary (or a commit decision) and acting on it, and a
		// follower must take over with the partition table and in-doubt
		// decisions intact.
		{1, func() []faultEvent {
			migAt := pl.window/3 + time.Duration(pl.Int63n(int64(pl.window/6)))
			return []faultEvent{
				{at: migAt, kind: faultMigrate, loK: first.loK, hiK: first.hiK, target: 2},
				{at: migAt + 30*time.Millisecond + time.Duration(pl.Int63n(int64(120*time.Millisecond))),
					kind: faultCrash, node: 2, dur: pl.downTime()},
				{at: migAt + 40*time.Millisecond + time.Duration(pl.Int63n(int64(150*time.Millisecond))),
					kind: faultCrashCoord, dur: pl.downTime()},
			}
		}},
		// More coordinator power failures, at random instants. A plan that asks
		// for more than the default one aims the first of them at the
		// leader's next publication of the oracle's view: acknowledgments wait
		// for it, and must go on waiting across the election.
		{cfg.CoordFaults, func() []faultEvent {
			ev := faultEvent{at: pl.anywhere(), kind: faultCrashCoord, dur: pl.downTime()}
			if aimPublish {
				ev.kind, aimPublish = faultPublish, false
			}
			return []faultEvent{ev}
		}},
		// Log-medium damage, once each way, on a node with steady log traffic
		// (the first two): a power failure tearing the frame the device was
		// writing, and one leaving a bit-flipped frame at the flushed boundary.
		// Recovery must truncate both tails cleanly.
		{1, func() []faultEvent {
			return []faultEvent{
				pl.tornCrash(pl.midHalf(), faultCrashTorn, 2),
				pl.tornCrash(pl.midHalf(), faultCrashFlip, 2),
			}
		}},
		// Full-disk-loss + acked-history-rot pairs: the wiped node must rebuild
		// everything from its replica set, and the scrubber must repair the
		// flipped frame from a healthy copy.
		{cfg.DiskFaults, func() []faultEvent {
			return []faultEvent{pl.destroyDisk(pl.midHalf()), pl.rotAcked(pl.midHalf())}
		}},
		// Mid-checkpoint power failures: with a checkpointer on every node, each
		// lands at a random step of an in-flight fuzzy checkpoint and the restart
		// must fall back to the previous complete begin/end pair.
		{cfg.CkptFaults, pl.ckptCrash},
		// The random tail: any class, at any instant.
		{cfg.Faults, func() []faultEvent { return pl.random(second) }},
		// The dependency crash.
		{1, pl.depCrash},
		// Coordinator power failures aimed at the window a leader's overlapped
		// forces open — a follower durably holds a lease or a decision the
		// leader's own log has not flushed — which a random instant hits about
		// once in a hundred runs: one per coordinator fault asked for beyond the
		// default one. This class joined the table last — as the next will.
		{cfg.CoordFaults - 1, func() []faultEvent {
			return []faultEvent{{at: pl.anywhere(), kind: faultCoordAhead, dur: pl.downTime()}}
		}},
	}
	var plan []faultEvent
	for _, class := range classes {
		for i := 0; i < class.n; i++ {
			plan = append(plan, class.draw()...)
		}
	}
	// Stable order: by time, with insertion order breaking ties (stability
	// matters — equal-timestamp events must execute in generation order or
	// the schedule would depend on the sort implementation).
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// random draws one event of the plan's random tail: any fault class at any
// instant, the migration being the plan's second range to the last node.
func (pl planner) random(second migration) []faultEvent {
	at := pl.anywhere()
	var ev faultEvent
	switch pl.Intn(8) {
	case 0:
		ev = faultEvent{at: at, kind: faultCrash, node: pl.Intn(pl.nodes), dur: pl.downTime()}
	case 1:
		ev = faultEvent{
			at:    at,
			kind:  faultDiskStall,
			node:  pl.Intn(pl.nodes),
			disk:  pl.Intn(3),
			extra: time.Duration(2+pl.Intn(8)) * time.Millisecond,
			dur:   time.Duration(3+pl.Intn(5)) * time.Second,
		}
	case 2:
		ev = faultEvent{
			at:    at,
			kind:  faultNetSpike,
			extra: time.Duration(1+pl.Intn(4)) * time.Millisecond,
			dur:   time.Duration(2+pl.Intn(4)) * time.Second,
		}
	case 3:
		ev = faultEvent{at: at, kind: faultMigrate, loK: second.loK, hiK: second.hiK, target: pl.nodes - 1}
	case 4:
		ev = pl.tornCrash(at, faultCrashTorn, pl.nodes)
	case 5:
		ev = pl.tornCrash(at, faultCrashFlip, pl.nodes)
	case 6:
		ev = pl.destroyDisk(at)
	case 7:
		ev = pl.rotAcked(at)
	}
	return []faultEvent{ev}
}

// tornCrash builds one log-medium damage crash at the given time on one of
// the first nodes nodes: a power failure tearing the frame the log device was
// writing (partial final record), or — for faultCrashFlip — one leaving a
// byte-complete but bit-flipped frame at the flushed boundary.
func (pl planner) tornCrash(at time.Duration, kind faultKind, nodes int) faultEvent {
	ev := faultEvent{at: at, kind: kind, node: pl.Intn(nodes), flip: -1, dur: pl.downTime()}
	if kind == faultCrashFlip {
		ev.tear = 16 + pl.Intn(256) // often beyond the frame: kept whole, corrupted by the flip
		ev.flip = pl.Intn(1 << 11)
	} else {
		ev.tear = 1 + pl.Intn(96) // strictly partial final frame
	}
	return ev
}

// destroyDisk builds one full-disk-loss event: power-fail the node, wipe its
// log medium and recovery bases, and restart it after dur — the restart must
// rebuild every hosted partition from the node's replica set.
func (pl planner) destroyDisk(at time.Duration) faultEvent {
	return faultEvent{at: at, kind: faultDestroyDisk, node: pl.Intn(pl.nodes), dur: pl.downTime()}
}

// rotAcked builds one acked-history bit-rot event: flip a bit inside a
// flushed, shippable frame of a live node's log (the scrubber must repair it
// from a healthy copy before — or at latest during — the final sweep). The
// node is one of the first two (steady log traffic guarantees a victim frame
// exists).
func (pl planner) rotAcked(at time.Duration) faultEvent {
	return faultEvent{at: at, kind: faultRotAcked, node: pl.Intn(2), flip: pl.Intn(1 << 20)}
}

// ckptCrash builds one mid-checkpoint power failure in the middle half of
// the window: the crash fires at a random one of the node's next "ckpt.*"
// crash points (flush walk, flush batches, begin append, redo scan, end
// append, truncation), so over seeds the plan covers every phase of the
// begin/end pair — including the torn-pair window between the two records.
func (pl planner) ckptCrash() []faultEvent {
	return []faultEvent{{
		at:   pl.midHalf(),
		kind: faultCkptCrash,
		node: pl.Intn(pl.nodes),
		hit:  pl.Intn(8),
		dur:  pl.downTime(),
	}}
}

// depCrash builds the dependency crash every plan carries: a power failure
// of whichever node, from the planned instant on, first seals the fate of an
// unsettled commit a committing transaction is about to wait for (a data node
// if none turns up).
func (pl planner) depCrash() []faultEvent {
	return []faultEvent{{
		at:   pl.window/4 + time.Duration(pl.Int63n(int64(pl.window/3))),
		kind: faultCrashDep,
		node: pl.Intn(2),
		dur:  pl.downTime(),
	}}
}

// spawnExecutor starts the fault executor: it walks the plan on the
// simulator clock, executing crashes (power-fail anywhere, including
// mid-commit, with a scheduled restart), disk stalls, and net spikes itself,
// and handing migrations to the workload (which knows its tables), one at a
// time. Generation counters make overlapping faults well-behaved: each
// injection bumps the device's generation, and an expiry timer clears the
// fault only if no later fault has re-armed that device meanwhile.
func (h *harness) spawnExecutor(plan []faultEvent) {
	migrating := false
	stallGen := make(map[*hw.Disk]int)
	stall := func(node, disk int, extra, dur time.Duration) {
		d := h.c.Nodes[node].HW.Disks[disk]
		h.logFault("disk stall: node %d disk %d +%v for %v", node, disk, extra, dur)
		d.SetStall(extra)
		stallGen[d]++
		mine := stallGen[d]
		h.env.After(dur, func() {
			if stallGen[d] == mine {
				d.SetStall(0)
			}
		})
	}
	netGen := 0
	h.env.Spawn("chaos-executor", func(p *sim.Proc) {
		for _, ev := range plan {
			if wait := ev.at - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			switch ev.kind {
			case faultCrash, faultCrashCoord:
				h.execCrash(ev, "")
			case faultCrashTorn, faultCrashFlip:
				// The frame the power failure tears is then one a follower
				// has whole, and the restart must number over a suffix that
				// survives on another disk. Commits open that window for a
				// millisecond at a time, on whichever node is committing.
				h.crashAimed(aim{ev: ev, anyNode: true, point: "ship.ahead", reach: 2 * time.Second, count: &h.rep.AheadCrashes})
			case faultCrashDep:
				// The wait must end in the dependency's actual fate, and
				// nothing the waiter read may be reported if the commit is
				// lost. Most dependencies need no wait (same log), and the
				// plan's outages stall the rest for a restart's length, hence
				// the long reach.
				h.crashAimed(aim{ev: ev, anyNode: true, point: "commit.depwait", reach: 24 * time.Second, count: &h.rep.DepCrashes})
			case faultCoordAhead:
				// The window opens when the leader's own force lags its
				// follower's, so the seat holder's log disk is slowed for the
				// aim's reach. The crash fires at whichever node holds the seat
				// when the window opens; with no hit in reach, at the seat's
				// holder then.
				const reach = 4 * time.Second
				stall(h.c.Master.LeaderID(), 0, 4*time.Millisecond, reach)
				h.crashAimed(aim{ev: ev, anyNode: true, point: "ship.ahead", reach: reach, count: &h.rep.AheadCrashes,
					when: func(n *cluster.DataNode) bool {
						if n != h.master.Node {
							return false
						}
						_, ok := h.c.CoordAhead(n)
						return ok
					}})
			case faultPublish:
				// Only the seated leader publishes; with no publication in
				// reach, the seat's holder crashes then.
				h.crashAimed(aim{ev: ev, anyNode: true, point: "clock.publish", reach: 24 * time.Second, count: &h.rep.PublishCrashes})
			case faultCkptCrash:
				// Aimed at this node's checkpoints — the one started here and
				// the daemon's next ones — and restarted from the previous
				// complete begin/end pair.
				h.crashAimed(aim{ev: ev, point: "ckpt.*", reach: 4 * ckptInterval, count: &h.rep.CkptCrashes})
				n := h.c.Nodes[ev.node]
				h.env.Spawn(fmt.Sprintf("chaos-ckpt-crash-%d", ev.node), func(p *sim.Proc) { h.c.CheckpointNode(p, n, 0) })
			case faultDiskStall:
				stall(ev.node, ev.disk, ev.extra, ev.dur)
			case faultNetSpike:
				h.logFault("net delay spike: +%v for %v", ev.extra, ev.dur)
				h.c.Net.SetExtraDelay(ev.extra)
				netGen++
				mine := netGen
				h.env.After(ev.dur, func() {
					if netGen == mine {
						h.c.Net.SetExtraDelay(0)
					}
				})
			case faultMigrate:
				if migrating {
					h.logFault("migration [%d,%d) -> node %d skipped (another in flight)", ev.loK, ev.hiK, ev.target)
					continue
				}
				migrating = true
				h.env.Spawn("chaos-migrate", func(mp *sim.Proc) {
					h.w.migrate(mp, ev)
					migrating = false
				})
			case faultDestroyDisk:
				h.execDestroy(ev)
			case faultRotAcked:
				n := h.c.Nodes[ev.node]
				if n.Down() {
					h.logFault("acked-history rot on node %d skipped (down)", ev.node)
					continue
				}
				if lost := h.diskLost(); lost != nil {
					// The mirror of execDestroy's rule: rot that outlives this
					// node's next crash costs it its wrapper copies, which a
					// node rebuilding right now may be about to read.
					h.logFault("acked-history rot on node %d skipped (node %d still rebuilding)", ev.node, lost.ID)
					continue
				}
				if lsn := n.Log.FlipFlushedBit(ev.flip, h.c.RotEligible(n)); lsn != 0 {
					h.rep.RotInjected++
					h.logFault("acked-history rot: node %d frame at LSN %d bit-flipped (pick %d)", ev.node, lsn, ev.flip)
				} else {
					h.logFault("acked-history rot on node %d skipped (no replica-covered frame)", ev.node)
				}
			}
		}
	})
}

// aim is a crash armed on the engine's crash points (cluster.Cluster.Point):
// ev fires at the first point named point — or of a family, "ckpt.*" — that
// ev's node, or any node with anyNode, passes within reach of the arming
// where when (if set) holds, after ev.hit such points have gone by. count
// tallies the crashes that fired there.
type aim struct {
	ev      faultEvent
	anyNode bool
	point   string
	when    func(n *cluster.DataNode) bool
	reach   time.Duration
	count   *int
	done    bool
}

// crashAimed arms a; with no hit in reach the crash lands on the planned node
// at the deadline.
func (h *harness) crashAimed(a aim) {
	h.aims = append(h.aims, &a)
	h.env.After(a.reach, func() {
		if !a.done {
			a.done = true
			h.execCrash(a.ev, " at its deadline (no "+a.point+" hit)")
		}
	})
}

// atPoint is the cluster's crash-point hook: the first armed aim the point
// matches fires on n, synchronously, before the engine goes on.
func (h *harness) atPoint(n *cluster.DataNode, name string) {
	if name == "commit.decided" {
		h.rep.DecidedHits++
	}
	for _, a := range h.aims {
		if a.done || !a.anyNode && a.ev.node != n.ID || !strings.HasPrefix(name, strings.TrimSuffix(a.point, "*")) ||
			a.when != nil && !a.when(n) {
			continue
		}
		if a.ev.hit > 0 {
			a.ev.hit--
			continue
		}
		a.done = true
		a.ev.node = n.ID
		*a.count++
		if name == "ship.ahead" {
			if _, ok := h.c.CoordAhead(n); ok {
				h.rep.CoordAheadCrashes++
			}
		}
		h.execCrash(a.ev, " at "+name)
		return
	}
}

// execCrash power-fails a node — at any instant, including mid-commit — and
// schedules its restart; where names the crash point an aimed crash fired at
// in the fault log. Torn/flip variants additionally damage the log medium:
// part of the frame the device was writing survives on the platter (possibly
// bit-flipped), and the restart must CRC-detect and truncate it while every
// acknowledged commit below the boundary survives.
func (h *harness) execCrash(ev faultEvent, where string) {
	if ev.kind == faultCrashCoord || ev.kind == faultCoordAhead || ev.kind == faultPublish {
		// Resolve the acting coordinator at execution time — after earlier
		// failovers the leader may be any replica-group member — then crash
		// it like any other power failure.
		ev.node = h.c.Master.LeaderID()
	}
	n := h.c.Nodes[ev.node]
	if n.Down() {
		// Already down: a second crash+restart pair for the same outage
		// would double-count and race the first restart.
		h.logFault("crash node %d%s skipped (already down)", ev.node, where)
		return
	}
	h.powerFail(n, ev, func() {
		switch ev.kind {
		case faultCrashTorn:
			torn := h.c.CrashNodeTorn(n, ev.tear, -1)
			if torn > 0 { // an empty unflushed tail degrades to a plain crash
				h.rep.TornCrashes++
			}
			h.logFault("crash node %d%s with torn log tail (%d bytes survive; restart after %v)", ev.node, where, torn, ev.dur)
		case faultCrashFlip:
			torn := h.c.CrashNodeTorn(n, ev.tear, ev.flip)
			if torn > 0 {
				h.rep.BitFlips++
			}
			h.logFault("crash node %d%s with bit-flipped log tail (%d bytes survive, bit %d; restart after %v)",
				ev.node, where, torn, ev.flip, ev.dur)
		default:
			h.c.CrashNode(n)
			h.logFault("crash node %d%s (restart after %v)", ev.node, where, ev.dur)
		}
	})
}

// powerFail is every crash fault's accounting and second half: it counts a
// power failure of n — a leader crash too when n holds the coordinator —
// inflicts it with crash, and schedules the restart.
func (h *harness) powerFail(n *cluster.DataNode, ev faultEvent, crash func()) {
	h.rep.Crashes++
	if n == h.master.Node {
		h.rep.LeaderCrashes++
	}
	crash()
	h.env.Spawn(fmt.Sprintf("chaos-restart-%d", n.ID), func(p *sim.Proc) { h.restartAfter(p, n, ev) })
}

// restartAfter is the second half of every crash fault, whatever it did to
// the node first: stay down for ev.dur, restart, and hold the restart to its
// contract. The node must come back with nothing still marked lost and with a
// fully decodable log — a torn or corrupted (and necessarily unacknowledged)
// tail is truncated, never patched around or left for the next recovery to
// trip on — and its replay must respect the checkpoint bound (noteRecovery).
func (h *harness) restartAfter(p *sim.Proc, n *cluster.DataNode, ev faultEvent) {
	p.Sleep(ev.dur)
	redone, undone, err := h.c.RestartNode(p, n)
	if _, down := err.(cluster.ErrNodeDown); down {
		h.logFault("node %d lost power again inside its restart", n.ID)
		return // that crash scheduled its own restart
	}
	if err != nil {
		h.violate(fmt.Sprintf("restart of node %d failed: %v", n.ID, err))
		return
	}
	if n.DiskLost() || n.Log.LostDurable() {
		h.violate(fmt.Sprintf("node %d still marked disk-lost after its restart", n.ID))
		return
	}
	it := n.Log.Iter()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() != nil {
		h.violate(fmt.Sprintf("restart of node %d left a corrupt log: %v", n.ID, it.Err()))
	}
	h.rep.Restarts++
	h.noteRecovery(n)
	lr := n.LastRecovery
	how, from := "restarted", fmt.Sprintf(" from redo %d", lr.Redo)
	if ev.kind == faultDestroyDisk {
		how, from = "rebuilt from replicas", ""
	}
	h.logFault("node %d %s (replay: %d redone, %d undone, %d bytes%s, %v to ready)",
		n.ID, how, redone, undone, lr.Bytes, from, lr.Elapsed)
	h.w.postRestart(p, n)
}

// execDestroy power-fails a node AND destroys its log medium — segments and
// recovery base images both — then schedules the restart, which must rebuild
// every hosted partition from the node's replica set. At most one disk loss
// is outstanding at a time: two simultaneously wiped nodes could be each
// other's only replica, leaving no rebuild source (real deployments solve
// this with rack-aware placement; the simulator keeps the invariant by
// serializing the fault).
func (h *harness) execDestroy(ev faultEvent) {
	n := h.c.Nodes[ev.node]
	if n.Down() {
		h.logFault("disk loss on node %d skipped (already down)", ev.node)
		return
	}
	if lost := h.diskLost(); lost != nil {
		h.logFault("disk loss on node %d skipped (node %d still rebuilding)", ev.node, lost.ID)
		return
	}
	for _, other := range h.c.Nodes {
		// A node that went down with rot in its acked history not yet scrubbed
		// is a disk loss waiting to be noticed: its restart rebuilds its log
		// wholesale and drops its wrapper copies of the streams it follows —
		// possibly the only other copy of what this node was acknowledged for
		// while their other follower was away.
		if other.Down() && len(other.Log.CheckFlushed()) > 0 {
			h.logFault("disk loss on node %d skipped (node %d is down with unrepaired rot and will rebuild)", ev.node, other.ID)
			return
		}
	}
	h.powerFail(n, ev, func() {
		h.c.DestroyDisk(n)
		h.logFault("disk loss: node %d log medium and bases destroyed (restart after %v)", ev.node, ev.dur)
	})
}

// diskLost returns a node whose destroyed disk is not rebuilt yet, or nil.
func (h *harness) diskLost() *cluster.DataNode {
	for _, n := range h.c.Nodes {
		if n.DiskLost() {
			return n
		}
	}
	return nil
}
