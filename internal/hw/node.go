package hw

import (
	"fmt"
	"time"

	"wattdb/internal/sim"
)

// PowerState is a node's position in its power lifecycle.
type PowerState int

const (
	PowerOff PowerState = iota // standby: only wake-on-LAN circuitry live
	PowerBooting
	PowerActive
	PowerShuttingDown
)

// String returns the state's display name.
func (s PowerState) String() string {
	switch s {
	case PowerOff:
		return "standby"
	case PowerBooting:
		return "booting"
	case PowerActive:
		return "active"
	default:
		return "shutting-down"
	}
}

// Node models one wimpy cluster machine: CPU cores, local disks, a network
// link, and a power state. Higher layers (buffer pool, partitions, query
// engine) attach to a Node for their timing.
type Node struct {
	ID    int
	env   *sim.Env
	cal   Calibration
	CPU   *sim.Resource
	Disks []*Disk
	Net   *Network

	state        PowerState
	stateChanged time.Duration
	// Busy-time snapshot bookkeeping for windowed utilisation.
	lastCPUBusy float64
	lastSample  time.Duration
}

// NewNode creates a node with the paper's device complement (1 HDD + 2 SSD)
// attached to net.
func NewNode(env *sim.Env, id int, cal Calibration, net *Network) *Node {
	n := &Node{
		ID:    id,
		env:   env,
		cal:   cal,
		CPU:   sim.NewResource(env, int64(cal.Cores)),
		Net:   net,
		state: PowerOff,
	}
	n.Disks = []*Disk{
		NewDisk(env, HDD, cal),
		NewDisk(env, SSD, cal),
		NewDisk(env, SSD, cal),
	}
	net.AddNode(id)
	return n
}

// Cal returns the node's calibration.
func (n *Node) Cal() Calibration { return n.cal }

// Env returns the simulation environment.
func (n *Node) Env() *sim.Env { return n.env }

// State returns the node's current power state.
func (n *Node) State() PowerState { return n.state }

// LogDisk returns the device used for WAL appends (the HDD, keeping SSDs
// free for data, as in the paper's setup).
func (n *Node) LogDisk() *Disk { return n.Disks[0] }

// DataDisks returns the devices used for segments (the SSDs).
func (n *Node) DataDisks() []*Disk { return n.Disks[1:] }

// Compute occupies one CPU core for d of virtual time, queueing if all
// cores are busy.
func (n *Node) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	defer p.Meter(sim.CatCPU)()
	n.CPU.Use(p, 1, func() { p.Sleep(d) })
}

// PowerOn boots the node from standby, blocking p for the boot time.
// Booting an already active node is a no-op.
func (n *Node) PowerOn(p *sim.Proc) {
	if n.state == PowerActive {
		return
	}
	if n.state != PowerOff {
		panic(fmt.Sprintf("hw: power on node %d in state %v", n.ID, n.state))
	}
	n.state = PowerBooting
	n.stateChanged = n.env.Now()
	p.Sleep(n.cal.BootTime)
	n.state = PowerActive
	n.stateChanged = n.env.Now()
}

// PowerOff transitions the node to standby, blocking p for the shutdown
// time. The caller must have quiesced the node first.
func (n *Node) PowerOff(p *sim.Proc) {
	if n.state == PowerOff {
		return
	}
	n.state = PowerShuttingDown
	n.stateChanged = n.env.Now()
	p.Sleep(n.cal.ShutdownTime)
	n.state = PowerOff
	n.stateChanged = n.env.Now()
}

// ForceActive marks the node active without simulating the boot delay.
// Used when building initial cluster configurations at t=0.
func (n *Node) ForceActive() {
	n.state = PowerActive
	n.stateChanged = n.env.Now()
}

// ForceOff models an abrupt power failure: the node drops to standby
// instantly, with no orderly shutdown sequence. Volatile state loss is the
// caller's responsibility (see cluster.CrashNode).
func (n *Node) ForceOff() {
	n.state = PowerOff
	n.stateChanged = n.env.Now()
}

// CPUUtilization returns the fraction of core capacity used since the last
// call (a sampling window). The first call measures from node creation.
func (n *Node) CPUUtilization() float64 {
	now := n.env.Now()
	busy := n.CPU.BusyIntegral()
	dt := (now - n.lastSample).Seconds()
	du := busy - n.lastCPUBusy
	n.lastSample = now
	n.lastCPUBusy = busy
	if dt <= 0 {
		return 0
	}
	u := du / (dt * float64(n.cal.Cores))
	if u > 1 {
		u = 1
	}
	return u
}

// Power returns the node's instantaneous power draw in Watts given a CPU
// utilisation in [0,1]. Standby nodes draw the standby power; booting and
// shutting-down nodes draw full power.
func (n *Node) Power(util float64) float64 {
	switch n.state {
	case PowerOff:
		return n.cal.PowerStandby
	case PowerBooting, PowerShuttingDown:
		return n.cal.PowerMax
	default:
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		return n.cal.PowerIdle + (n.cal.PowerMax-n.cal.PowerIdle)*util
	}
}
