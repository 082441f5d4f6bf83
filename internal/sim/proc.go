package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

type wakeReason int

const (
	wakeScheduled wakeReason = iota // timer fired / initial start
	wakeSignaled                    // signal, resource grant, queue element
	wakeKilled                      // environment shutting down
)

// killed is the sentinel panic value used to unwind a process body when the
// environment is closed.
type killed struct{}

// Proc is a simulation process. Its body runs on a coroutine the Env pools
// (see coro): blocking switches back to the scheduler, and a wake-up
// switches in again, on the one goroutine that drives Run. Its methods may
// only be called by the process's own body while it is the running process.
//
// A panic in the body is captured and fails the run (Run returns it with
// the body's stack). A runtime.Goexit in the body — what t.FailNow does —
// ends the goroutine that called Run, not just the process.
type Proc struct {
	env    *Env
	co     *coro // nil once the body has ended
	name   string
	reason wakeReason

	// prevLive and nextLive link the Env's live processes in spawn order.
	prevLive, nextLive *Proc

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

// coro is a pooled coroutine (iter.Pull) that runs process bodies one after
// another. Between bodies it sits on its Env's free list, so Spawn in
// steady state allocates only the Proc.
type coro struct {
	next  func() (struct{}, bool) // switch in: run until the body blocks or ends
	stop  func()
	yield func(struct{}) bool // switch out, back to whoever called next
	proc  *Proc               // the process whose body is queued or running
	body  func(p *Proc)
	free  *coro // next coroutine on the Env's free list
}

// newCoro starts a coroutine whose loop runs one body per Spawn and returns
// to e's free list after each. A Goexit inside a body leaves the loop for
// good: iter.Pull passes it on to the goroutine that called next.
func (e *Env) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.run()
			c.free = e.free
			e.free = c
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run executes the queued body to its end. A killed unwind ends it quietly;
// any other panic fails the Env with its stack.
func (c *coro) run() {
	p, body := c.proc, c.body
	c.proc, c.body = nil, nil
	defer func() {
		p.env.unlink(p)
		p.co = nil
		if v := recover(); v != nil {
			if _, ok := v.(killed); !ok {
				p.env.fail(p, fmt.Sprintf("%v\n%s", v, debug.Stack()))
			}
		}
	}()
	if p.reason == wakeKilled {
		panic(killed{})
	}
	body(p)
}

// block suspends the process until something calls resume. It returns the
// reason the process was woken.
func (p *Proc) block() wakeReason {
	p.co.yield(struct{}{})
	if p.reason == wakeKilled {
		panic(killed{})
	}
	return p.reason
}

// resume hands control to the process until it blocks or ends. It must be
// called from the scheduler context (an event callback), never from another
// process.
func (p *Proc) resume(r wakeReason) {
	p.reason = r
	p.co.next()
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
