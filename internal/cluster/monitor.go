package cluster

import (
	"time"

	"wattdb/internal/buffer"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/wal"
)

// Policy holds the threshold rules of Sect. 3.4: CPU utilisation above the
// upper bound triggers scale-out, below the lower bound scale-in.
type Policy struct {
	HighCPU float64 // paper: 0.8
	LowCPU  float64
	Enabled bool
	// OnScaleOut/OnScaleIn, when set, perform the data redistribution for
	// a policy decision (the experiment harness wires these to
	// MigrateRange calls appropriate for its tables).
	OnScaleOut func(p *sim.Proc, newNode *DataNode)
	OnScaleIn  func(p *sim.Proc, victim *DataNode)
}

// DefaultPolicy returns the paper's thresholds.
func DefaultPolicy() *Policy { return &Policy{HighCPU: 0.8, LowCPU: 0.25} }

// Monitor collects per-node utilisation every interval, as the nodes'
// reports to the master ("the nodes send their monitoring data every few
// seconds to the master node").
type Monitor struct {
	master   *Master
	interval time.Duration
	policy   *Policy

	inDecision bool

	// RefusedScaleIns counts the scale-ins whose victim refused to power off:
	// it still held data, or followed a live origin's log (DataNode.PowerOff).
	// The victim stays active, and a later tick may pick it again.
	RefusedScaleIns int

	// OnSample, when set, receives every collected sample.
	OnSample func(at time.Duration, util map[int]float64)
}

// StartMonitor spawns the monitoring process on the master.
func (m *Master) StartMonitor(interval time.Duration, policy *Policy) *Monitor {
	mon := &Monitor{master: m, interval: interval, policy: policy}
	m.cluster.Env.Spawn("monitor", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			mon.tick(p)
		}
	})
	return mon
}

func (mon *Monitor) tick(p *sim.Proc) {
	m := mon.master
	util := make(map[int]float64)
	for _, n := range m.cluster.Nodes {
		if n.HW.State() != hw.PowerActive {
			continue
		}
		// The report message itself crosses the network.
		if n != m.Node {
			m.cluster.Net.Transfer(p, n.ID, m.Node.ID, 128)
		}
		util[n.ID] = n.HW.CPUUtilization()
	}
	if mon.OnSample != nil {
		mon.OnSample(p.Now(), util)
	}
	if mon.policy == nil || !mon.policy.Enabled || mon.inDecision {
		return
	}
	avg := mon.meanUtil(util)
	switch {
	case avg > mon.policy.HighCPU:
		if standby := m.cluster.StandbyNode(); standby != nil {
			mon.inDecision = true
			m.cluster.Env.Spawn("scale-out", func(sp *sim.Proc) {
				defer func() { mon.inDecision = false }()
				standby.PowerOn(sp)
				if mon.policy.OnScaleOut != nil {
					mon.policy.OnScaleOut(sp, standby)
				}
			})
		}
	case avg < mon.policy.LowCPU && len(util) > 1:
		victim := mon.idlestNode(util)
		if victim != nil && victim != m.Node {
			mon.inDecision = true
			m.cluster.Env.Spawn("scale-in", func(sp *sim.Proc) {
				defer func() { mon.inDecision = false }()
				if mon.policy.OnScaleIn != nil {
					mon.policy.OnScaleIn(sp, victim)
				}
				if victim.PowerOff(sp) != nil {
					mon.RefusedScaleIns++
				}
			})
		}
	}
}

// meanUtil averages a sample over the reporting nodes, summed in ascending
// node ID: float addition does not commute bit for bit, and a sample's map
// order changes from run to run.
func (mon *Monitor) meanUtil(util map[int]float64) float64 {
	var sum float64
	for _, n := range mon.master.cluster.Nodes {
		sum += util[n.ID] // absent (not active): adds zero
	}
	return sum / float64(len(util))
}

// idlestNode picks the scale-in victim: the least utilised reporting node
// other than the master's, the lowest node ID among equals — at idle every
// node ties, and map order must not decide which one drains.
func (mon *Monitor) idlestNode(util map[int]float64) *DataNode {
	var victim *DataNode
	best := 2.0
	for _, n := range mon.master.cluster.Nodes {
		u, reported := util[n.ID]
		if !reported || n == mon.master.Node {
			continue
		}
		if u < best {
			best = u
			victim = n
		}
	}
	return victim
}

// StandbyNode returns a powered-off node, or nil.
func (c *Cluster) StandbyNode() *DataNode {
	for _, n := range c.Nodes {
		if n.HW.State() == hw.PowerOff {
			return n
		}
	}
	return nil
}

// AttachHelper wires helper to relieve busy during rebalancing (Sect. 5.2):
// busy's log is shipped to the helper's disk and the helper's DRAM becomes
// an rDMA page cache for busy's evictions.
func (m *Master) AttachHelper(p *sim.Proc, busy, helper *DataNode) {
	busy.Log.Flush(p, busy.Log.TailLSN()-1)
	busy.shippedFrom = wal.DiskDevice{Disk: busy.HW.LogDisk()}
	busy.Log.SetDevice(wal.ShippedDevice{
		Net:  m.cluster.Net,
		From: busy.ID,
		To:   helper.ID,
		Disk: helper.HW.LogDisk(),
	})
	remote := buffer.NewRemote(m.cluster.Net, busy.ID, helper.ID, m.cluster.Cal.BufferFrames)
	busy.Pool.AttachRemote(remote)
}

// DetachHelper restores busy's local logging and drops the remote cache.
func (m *Master) DetachHelper(p *sim.Proc, busy *DataNode) {
	busy.Log.Flush(p, busy.Log.TailLSN()-1)
	if busy.shippedFrom != nil {
		busy.Log.SetDevice(busy.shippedFrom)
		busy.shippedFrom = nil
	}
	busy.Pool.AttachRemote(nil)
}
