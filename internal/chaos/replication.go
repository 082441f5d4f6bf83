package chaos

import (
	"fmt"
	"time"

	"wattdb/internal/sim"
)

// Replication background daemons and end-of-run oracles. Every run has the
// cluster at DataReplicas=2: every node's acked history streams to two
// followers, a destroyed disk rebuilds from them, and a background scrubber
// repairs bit-rotted acked frames.

const (
	shipperInterval  = 20 * time.Millisecond
	scrubberInterval = 1200 * time.Millisecond
)

// spawnReplicationDaemons starts the background shipper (unforced frames ride
// followers' group commits) and the scrubber (CRC-rescan acked history,
// repair from a healthy copy). Both exit once h.stop flips, so the end-of-run
// drain terminates.
func (h *harness) spawnReplicationDaemons() {
	h.env.Spawn("chaos-shipper", func(p *sim.Proc) {
		for !h.stop {
			p.Sleep(shipperInterval)
			h.c.DrainShipQueues(p)
		}
	})
	h.env.Spawn("chaos-scrubber", func(p *sim.Proc) {
		for !h.stop {
			p.Sleep(scrubberInterval)
			h.c.ScrubPass(p)
		}
	})
}

// finalReplicationSweep runs the end-of-run replication oracles in their own
// process (spawn, then env.Run to completion): after all nodes are back up,
// one delivery pass plus one scrub pass must leave every log fully intact —
// no undecodable acked frame survives (rot not repaired would be a silent
// durability loss), no node is still marked disk-lost, and no log still
// reports lost durable history.
func (h *harness) finalReplicationSweep() {
	h.env.Spawn("chaos-replication-sweep", func(p *sim.Proc) {
		h.c.DrainShipQueues(p)
		h.c.ScrubPass(p)
		for _, n := range h.c.Nodes {
			if n.Down() {
				h.violate(fmt.Sprintf("replication sweep: node %d still down", n.ID))
				continue
			}
			if n.DiskLost() {
				h.violate(fmt.Sprintf("replication sweep: node %d still marked disk-lost", n.ID))
			}
			if n.Log.LostDurable() {
				h.violate(fmt.Sprintf("replication sweep: node %d log still reports lost durable history", n.ID))
			}
			if bad := n.Log.CheckFlushed(); len(bad) > 0 {
				h.violate(fmt.Sprintf("replication sweep: node %d has %d unrepaired acked frames (first LSN %d)",
					n.ID, len(bad), bad[0]))
			}
		}
	})
}
