package chaos

import (
	"fmt"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/sim"
)

// Fuzzy-checkpoint chaos wiring. Every run has a background checkpointer on
// every node, so restarts replay only the delta since the last complete
// checkpoint; the plan's -ckpt faults power-fail a node at a random step of
// an in-flight checkpoint, and the restart oracle asserts the bounded-replay
// contract on every recovery.

// ckptInterval is the background checkpoint cadence per node.
const ckptInterval = 2 * time.Second

// spawnCheckpointers starts one fuzzy-checkpoint daemon per node. Crashed,
// disk-lost, or down rounds are skipped (CheckpointNode re-checks itself);
// the daemons exit once h.stop flips so the end-of-run drain terminates.
func (h *harness) spawnCheckpointers() {
	for _, n := range h.c.Nodes {
		h.env.Spawn(fmt.Sprintf("chaos-ckpt-%d", n.ID), func(p *sim.Proc) {
			for !h.stop {
				p.Sleep(ckptInterval)
				if n.Down() || n.DiskLost() {
					continue
				}
				if _, err := h.c.CheckpointNode(p, n, 0); err != nil {
					return // engine failure surfaces through the invariant sweep
				}
			}
		})
	}
}

// noteRecovery folds a completed restart's RecoveryStats into the report and
// checks the bounded-replay oracle: when a complete checkpoint bounded the
// replay, no partition may have applied a record below its recorded redo
// point — restart work is O(delta since checkpoint), not O(retained log).
func (h *harness) noteRecovery(n *cluster.DataNode) {
	lr := n.LastRecovery
	h.rep.ReplayBytes += lr.Bytes
	h.rep.RecoveryTime += lr.Elapsed
	if !lr.Checkpointed {
		return
	}
	h.rep.BoundedRestarts++
	if lr.MinApplied != 0 && lr.MinApplied < lr.Redo {
		h.violate(fmt.Sprintf(
			"recovery bound: node %d replayed LSN %d below its checkpoint redo point %d",
			n.ID, lr.MinApplied, lr.Redo))
	}
}

// execCkptCrash power-fails a node mid-checkpoint: it arms the crash
// countdown and drives a checkpoint into it. If the countdown is consumed
// elsewhere (a concurrent daemon checkpoint picks it up) or the checkpoint
// completes before the countdown expires, the event degrades to a plain
// power failure — still a crash, still restarted by this event's pair. A
// node someone else crashed first is left to that fault's restart pair.
func (h *harness) execCkptCrash(ev faultEvent) {
	n := h.c.Nodes[ev.node]
	if n.Down() || n.DiskLost() {
		h.logFault("mid-checkpoint crash on node %d skipped (already down)", ev.node)
		return
	}
	wasLeader := n == h.c.Master.Node
	h.c.ArmCheckpointCrash(n, ev.tear)
	h.logFault("mid-checkpoint crash armed: node %d after %d steps (restart after %v)",
		ev.node, ev.tear, ev.dur)
	h.env.Spawn(fmt.Sprintf("chaos-ckpt-crash-%d", ev.node), func(p *sim.Proc) {
		h.c.CheckpointNode(p, n, 0)
		if n.Down() && h.c.CheckpointCrashArmed(n) {
			// Another fault power-failed the node while our checkpoint was in
			// flight; its crash/restart pair owns the outage.
			h.c.ArmCheckpointCrash(n, -1)
			h.logFault("mid-checkpoint crash on node %d absorbed by a concurrent crash", n.ID)
			return
		}
		if !n.Down() {
			h.c.ArmCheckpointCrash(n, -1)
			h.c.CrashNode(n)
		}
		h.rep.Crashes++
		h.rep.CkptCrashes++
		if h.c.MasterReplicated() && wasLeader {
			h.rep.LeaderCrashes++
		}
		h.restartAfter(p, n, ev)
	})
}
