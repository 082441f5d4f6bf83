// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives cooperative processes over a virtual clock. Exactly one
// process runs at any instant; a process yields control only at explicit
// blocking points (Sleep, Wait, Acquire, ...). Events scheduled for the same
// virtual time fire in schedule order, so a run with a fixed seed is fully
// reproducible.
//
// Processes are coroutines (iter.Pull), pooled per Env: a wake-up is a
// coroutine switch on the goroutine that drives Run, not a hand-off between
// goroutines, and a finished body's coroutine runs the next spawned body. A
// panic in a body is captured and returned by Run; a runtime.Goexit in a
// body ends the goroutine that called Run.
//
// All of WattDB's timing — CPU service times, disk I/O, network transfers,
// lock and latch waits — is expressed as virtual-time waits on this kernel,
// while the data structures being exercised (pages, B*-trees, version
// chains) are real.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Spawn, and drive it with
// Run or RunUntil. An Env is not safe for concurrent use from multiple
// OS threads; all interaction must happen from the scheduler goroutine or
// from within a running simulation process.
type Env struct {
	now     time.Duration
	events  []event // binary min-heap ordered by (at, seq)
	seq     uint64
	stopped bool
	failure error

	// live lists the spawned processes whose bodies have not ended, in
	// spawn order (linked through Proc.prevLive/nextLive); free is the
	// stack of coroutines waiting for their next body.
	liveHead, liveTail *Proc
	nlive              int
	free               *coro

	stats      Stats
	waiterFree *waiter

	// Rand is the environment's seeded random source. All stochastic
	// behaviour in a simulation must draw from it to stay reproducible.
	Rand *rand.Rand
}

// Stats is a snapshot of kernel counters, exposed for observability and
// benchmarking (see Env.Stats).
type Stats struct {
	// Events is the total number of events dispatched.
	Events uint64
	// Wakeups counts events that resumed a parked process directly
	// (the allocation-free fast path: timers, grants, signals).
	Wakeups uint64
	// Callbacks counts events that invoked a scheduled closure.
	Callbacks uint64
	// HeapDepth is the current event-queue length.
	HeapDepth int
	// MaxHeapDepth is the high-water mark of the event queue.
	MaxHeapDepth int
	// WaiterAllocs / WaiterReuses count wait-list entries newly allocated
	// vs. served from the kernel's free list.
	WaiterAllocs uint64
	WaiterReuses uint64
}

// event is one entry of the event queue. The common case — waking a parked
// process — is expressed by a non-nil proc, so dispatching it allocates
// nothing. fn is the fallback for arbitrary scheduled callbacks.
type event struct {
	at     time.Duration
	seq    uint64
	proc   *Proc
	reason wakeReason
	fn     func()
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the event heap. The heap is hand-rolled over the
// slice (rather than container/heap) so no interface boxing occurs on the
// per-event hot path.
func (e *Env) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.events[i].before(e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
	if len(e.events) > e.stats.MaxHeapDepth {
		e.stats.MaxHeapDepth = len(e.events)
	}
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (e *Env) pop() event {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{} // release the closure/proc references
	e.events = e.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && e.events[r].before(e.events[l]) {
			c = r
		}
		if !e.events[c].before(e.events[i]) {
			break
		}
		e.events[i], e.events[c] = e.events[c], e.events[i]
		i = c
	}
	return top
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{Rand: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Stats returns a snapshot of the kernel's counters.
func (e *Env) Stats() Stats {
	s := e.stats
	s.HeapDepth = len(e.events)
	return s
}

// Schedule registers fn to run at absolute virtual time at (clamped to the
// present). fn runs in the scheduler context and must not block; to do
// blocking work, have fn spawn a process.
func (e *Env) Schedule(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
}

// After registers fn to run d from now.
func (e *Env) After(d time.Duration, fn func()) { e.Schedule(e.now+d, fn) }

// scheduleResume registers a typed proc-wakeup event: p is resumed with
// reason at time at. Unlike Schedule, no closure is allocated.
func (e *Env) scheduleResume(at time.Duration, p *Proc, reason wakeReason) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, proc: p, reason: reason})
}

// getWaiter returns a wait-list entry from the free list (or a fresh one),
// initialised to park p.
func (e *Env) getWaiter(p *Proc) *waiter {
	w := e.waiterFree
	if w == nil {
		e.stats.WaiterAllocs++
		return &waiter{p: p}
	}
	e.waiterFree = w.next
	e.stats.WaiterReuses++
	w.p = p
	w.amount = 0
	w.state = waitPending
	w.pinned = false
	w.next = nil
	return w
}

// putWaiter recycles a consumed wait-list entry. Pinned entries (still
// referenced by a timeout callback) are left for the GC.
func (e *Env) putWaiter(w *waiter) {
	if w.pinned {
		return
	}
	w.p = nil
	w.next = e.waiterFree
	e.waiterFree = w
}

// Spawn starts a new simulation process executing fn. The process begins at
// the current virtual time, after the spawning process next yields. Its body
// runs on a pooled coroutine, or a new one when none is free.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	c := e.free
	if c == nil {
		c = e.newCoro()
	} else {
		e.free = c.free
		c.free = nil
	}
	p := &Proc{env: e, co: c, name: name, prevLive: e.liveTail}
	c.proc, c.body = p, fn
	if e.liveTail == nil {
		e.liveHead = p
	} else {
		e.liveTail.nextLive = p
	}
	e.liveTail = p
	e.nlive++
	e.scheduleResume(e.now, p, wakeScheduled)
	return p
}

// unlink takes p, whose body has ended, off the live list.
func (e *Env) unlink(p *Proc) {
	if p.prevLive == nil {
		e.liveHead = p.nextLive
	} else {
		p.prevLive.nextLive = p.nextLive
	}
	if p.nextLive == nil {
		e.liveTail = p.prevLive
	} else {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
	e.nlive--
}

// Run processes events until the queue drains or Stop is called.
// It returns the first process failure, if any.
func (e *Env) Run() error { return e.RunUntil(1<<62 - 1) }

// RunUntil processes all events with timestamp <= deadline, then advances
// the clock to deadline. Processes that are still blocked stay suspended and
// are killed when Close is called.
func (e *Env) RunUntil(deadline time.Duration) error {
	for !e.stopped && e.failure == nil && len(e.events) > 0 {
		if e.events[0].at > deadline {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.stats.Events++
		if ev.proc != nil {
			e.stats.Wakeups++
			ev.proc.resume(ev.reason)
		} else {
			e.stats.Callbacks++
			ev.fn()
		}
	}
	if e.failure == nil && e.now < deadline && deadline < 1<<62-1 {
		e.now = deadline
	}
	return e.failure
}

// Stop halts the scheduler after the currently executing event completes.
func (e *Env) Stop() { e.stopped = true }

// Close kills every live process in spawn order — blocked ones, and ones
// spawned but never started — then stops every pooled coroutine, so no
// goroutine outlives the environment. The environment must not be used
// afterwards.
func (e *Env) Close() {
	for e.liveHead != nil {
		e.liveHead.resume(wakeKilled)
	}
	for c := e.free; c != nil; c = c.free {
		c.stop()
	}
	e.free = nil
	e.events = nil
}

// Live reports the number of processes that have been spawned and not yet
// finished.
func (e *Env) Live() int { return e.nlive }

func (e *Env) fail(p *Proc, v interface{}) {
	if e.failure == nil {
		e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, v)
	}
}
