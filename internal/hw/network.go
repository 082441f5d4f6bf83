package hw

import (
	"time"

	"wattdb/internal/sim"
)

// Network models the cluster interconnect: one switch with a dedicated
// full-duplex link per node. A transfer serialises on the sender's uplink
// for its transmission time and then pays one propagation/stack latency; a
// send to several nodes serialises every copy and pays the latency once.
// Switch fabric contention is not modelled (the paper's switch is
// non-blocking for 10 GbE-class aggregate traffic).
type Network struct {
	env *sim.Env
	cal Calibration

	// extraDelay is an injected additional one-way latency applied to every
	// transfer while set (fault injection: congestion spike, flaky switch).
	extraDelay time.Duration

	links map[int]*link
}

type link struct {
	tx        *sim.Resource
	bytesSent int64
	messages  int64
}

// NewNetwork returns an empty network; nodes attach via AddNode.
func NewNetwork(env *sim.Env, cal Calibration) *Network {
	return &Network{env: env, cal: cal, links: make(map[int]*link)}
}

// AddNode provisions a link for the node with the given ID.
func (n *Network) AddNode(nodeID int) {
	if _, ok := n.links[nodeID]; !ok {
		n.links[nodeID] = &link{tx: sim.NewResource(n.env, 1)}
	}
}

// TransferTime returns the unloaded wire time for a payload of the given size.
func (n *Network) TransferTime(bytes int64) time.Duration {
	wire := time.Duration(float64(bytes+int64(n.cal.NetFrameSize)) / n.cal.NetBandwidth * float64(time.Second))
	return n.cal.NetLatency + wire
}

// Transfer ships bytes from node from to node to, blocking p for the queueing
// plus wire time. Transfers between a node and itself are free (records move
// through main memory, Sect. 3.3).
func (n *Network) Transfer(p *sim.Proc, from, to int, bytes int64) {
	if from == to {
		return
	}
	n.mustHaveLink(to)
	n.send(p, from, 1, bytes)
}

// Multicast ships one copy of bytes from node from to every node in to and
// returns when all of them hold it. The sender's uplink carries the copies
// one after another — each is a message of its own, charged in full — and
// they then cross the switch side by side, so k destinations cost k wire
// times and a single propagation latency. A destination equal to the sender
// is free, as in Transfer.
func (n *Network) Multicast(p *sim.Proc, from int, to []int, bytes int64) {
	copies := 0
	for _, t := range to {
		if t != from {
			n.mustHaveLink(t)
			copies++
		}
	}
	if copies > 0 {
		n.send(p, from, copies, bytes)
	}
}

func (n *Network) mustHaveLink(to int) {
	if _, ok := n.links[to]; !ok {
		panic("hw: transfer to unknown node")
	}
}

func (n *Network) send(p *sim.Proc, from, copies int, bytes int64) {
	defer p.Meter(sim.CatNetworkIO)()
	l, ok := n.links[from]
	if !ok {
		panic("hw: transfer from unknown node")
	}
	wire := time.Duration(float64(bytes+int64(n.cal.NetFrameSize)) / n.cal.NetBandwidth * float64(time.Second))
	l.tx.Use(p, 1, func() { p.Sleep(time.Duration(copies) * wire) })
	l.bytesSent += int64(copies) * bytes
	l.messages += int64(copies)
	p.Sleep(n.cal.NetLatency + n.extraDelay)
}

// SetExtraDelay injects an additional one-way latency on every transfer
// (0 clears the fault). Used by the chaos harness for delay spikes.
func (n *Network) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.extraDelay = d
}

// BytesSent returns the cumulative bytes sent by the node's uplink.
func (n *Network) BytesSent(nodeID int) int64 {
	if l, ok := n.links[nodeID]; ok {
		return l.bytesSent
	}
	return 0
}

// Messages returns the cumulative message count sent by the node.
func (n *Network) Messages(nodeID int) int64 {
	if l, ok := n.links[nodeID]; ok {
		return l.messages
	}
	return 0
}
