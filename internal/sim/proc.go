package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

type procState int

const (
	stateRunning procState = iota
	stateBlocked
	stateDone
)

type wakeReason int

const (
	wakeScheduled wakeReason = iota // timer fired / initial start
	wakeSignaled                    // signal, resource grant, queue element
	wakeKilled                      // environment shutting down
)

// killed is the sentinel panic value used to unwind a process goroutine when
// the environment is closed.
type killed struct{}

// Proc is a simulation process. Its methods may only be called by the
// process's own goroutine while it is the running process.
type Proc struct {
	env    *Env
	id     uint64
	name   string
	wake   chan struct{}
	state  procState
	reason wakeReason

	// waiter is the wait-list entry the process is currently parked on,
	// if any. Used to deregister on timeout.
	waiter *waiter

	// Breakdown, when non-nil, accumulates per-category virtual time for
	// this process (used for the paper's Fig. 7 runtime decomposition).
	Breakdown *Breakdown
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

func (p *Proc) run(fn func(p *Proc)) {
	// Wait for the initial resume from the scheduler.
	<-p.wake
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(killed); !ok {
				p.env.fail(p, fmt.Sprintf("%v\n%s", v, debug.Stack()))
			}
		}
		p.state = stateDone
		delete(p.env.procs, p.id)
		p.env.yield <- struct{}{}
	}()
	if p.reason == wakeKilled {
		panic(killed{})
	}
	fn(p)
}

// block suspends the process until something calls resume. It returns the
// reason the process was woken.
func (p *Proc) block() wakeReason {
	p.state = stateBlocked
	p.env.yield <- struct{}{}
	<-p.wake
	p.state = stateRunning
	if p.reason == wakeKilled {
		panic(killed{})
	}
	return p.reason
}

// resume hands control to the process. It must be called from the scheduler
// context (an event callback), never from another process.
func (p *Proc) resume(r wakeReason) {
	p.reason = r
	p.wake <- struct{}{}
	<-p.env.yield
}

// Sleep suspends the process for d of virtual time. The timer is a typed
// kernel event, so sleeping allocates nothing.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleResume(p.env.now+d, p, wakeScheduled)
	p.block()
}

// Yield lets every other event scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Fork runs body(c, 0) … body(c, n-1) as n child processes named name,
// spawned in index order at the current instant, and parks p until every
// one of them has returned. The children overlap in virtual time, so p waits
// for the slowest of them, not for their sum.
//
// When p carries a Breakdown each child meters into one of its own, and the
// last child to finish — the one p actually waited for — has its categories
// folded into p's: the caller's breakdown keeps splitting its elapsed time
// without counting overlapping waits twice.
func (p *Proc) Fork(name string, n int, body func(c *Proc, i int)) {
	if n <= 0 {
		return
	}
	remaining := n
	var last *Breakdown
	for i := 0; i < n; i++ {
		var bd *Breakdown
		if p.Breakdown != nil {
			bd = &Breakdown{}
		}
		p.env.Spawn(name, func(c *Proc) {
			c.Breakdown = bd
			body(c, i)
			remaining--
			if remaining == 0 {
				last = bd
				p.env.scheduleResume(p.env.now, p, wakeSignaled)
			}
		})
	}
	p.block()
	if last != nil {
		p.Breakdown.AddAll(last)
	}
}

// Meter starts measuring virtual time against category cat and returns a
// function that stops the measurement. Usage:
//
//	defer p.Meter(CatDiskIO)()
//
// If the process has no Breakdown attached, Meter is a no-op.
func (p *Proc) Meter(cat Category) func() {
	if p.Breakdown == nil {
		return func() {}
	}
	start := p.env.now
	b := p.Breakdown
	return func() { b.Add(cat, p.env.now-start) }
}
