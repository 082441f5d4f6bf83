package cluster

import (
	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
)

// The published clock. A snapshot-isolation Begin sends no message to the
// master: it reads the oracle's view — the clock and the safe snapshot — that
// the seated leader last multicast to every active node. A multicast lands on
// all of its destinations at the same instant, so the one landed view the
// oracle keeps (cc.Oracle.Land) is what every node that was active when it
// left holds; a node that boots later gets it with its restart's coordinator
// exchange. A writer's Commit returns nil only once the view covers its commit
// timestamp (awaitPublished), so every commit acknowledged before a Begin
// anywhere is in that Begin's snapshot. The publication leaves at the commit
// point and takes one network latency, the commit's force takes longer, and
// so the wait is almost always over before it begins.

// pubBytes is one publication: the clock and the safe snapshot.
const pubBytes = 16

// publisher is the cluster's one publication process and what it shares with
// the oracle and the waiting acknowledgments.
type publisher struct {
	dirty  bool        // the view moved since the last publication left
	wake   *sim.Signal // the process parks on it while nothing moved
	landed *sim.Signal // fired at every landing; acknowledgments park on it
	to     []int       // a publication's destinations, reused
}

// poke marks the view moved and wakes the publisher if it is parked.
func (pb *publisher) poke() {
	pb.dirty = true
	pb.wake.Fire()
}

// startPublisher attaches the publisher to the oracle and spawns its process:
// at most one publication in flight, each carrying the view as it stands when
// it leaves, and a new one as soon as the last has landed if the view moved
// meanwhile. A publication whose sender lost power or the seat on the way is
// dropped; electFrom pokes the publisher when it seats the next leader.
func (m *Master) startPublisher() {
	c := m.cluster
	pb := &publisher{wake: sim.NewSignal(c.Env), landed: sim.NewSignal(c.Env)}
	m.pub = pb
	m.Oracle.Publish(pb.poke)
	c.Env.Spawn("clock-publisher", func(p *sim.Proc) {
		for {
			for !pb.dirty {
				pb.wake.Wait(p)
			}
			pb.dirty = false
			sender, epoch := m.Node, m.epoch
			if c.point(sender, "clock.publish"); m.down || m.epoch != epoch {
				continue
			}
			clock, safe := m.Oracle.View()
			pb.to = pb.to[:0]
			for _, n := range c.Nodes {
				if n != sender && !n.crashed && n.HW.State() == hw.PowerActive {
					pb.to = append(pb.to, n.ID)
				}
			}
			c.Net.Multicast(p, sender.ID, pb.to, pubBytes)
			if !m.down && m.epoch == epoch {
				m.Oracle.Land(clock, safe)
				pb.landed.Fire()
			}
		}
	})
}

// awaitPublished holds an acknowledgment until the published view covers the
// commit timestamp ts. It parks across a leader crash — the next leader's
// first publication covers every timestamp the old one issued — and never
// fails: the commit is durable by the time anyone waits here.
func (m *Master) awaitPublished(p *sim.Proc, ts cc.Timestamp) {
	for pub, _ := m.Oracle.Published(); pub < ts; pub, _ = m.Oracle.Published() {
		stop := p.Meter(sim.CatNetworkIO)
		m.pub.landed.Wait(p)
		stop()
	}
}
