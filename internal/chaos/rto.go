package chaos

import (
	"fmt"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/sim"
)

// Fuzzy-checkpoint chaos wiring. Every run has a background checkpointer on
// every node, so restarts replay only the delta since the last complete
// checkpoint; the plan's -ckpt faults start a checkpoint and power-fail the
// node at a random one of its "ckpt.*" crash points (spawnExecutor aims
// them), and the restart oracle asserts the bounded-replay contract on every
// recovery.

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
