package sim

import "time"

type waiterState int

const (
	waitPending waiterState = iota
	waitGranted
	waitCancelled
)

// waiter is one wait-list entry. Entries are recycled through the
// environment's free list (getWaiter/putWaiter) so parking on a signal,
// resource, or channel allocates nothing in steady state. An entry that a
// timeout callback still references is pinned and exempt from recycling.
type waiter struct {
	p      *Proc
	amount int64
	state  waiterState
	pinned bool
	next   *waiter // free-list link
}

// Signal is a broadcast condition: Wait parks the calling process until the
// next Fire. Fire wakes every currently parked process. Signals are
// level-free (a Fire with no waiters is lost), like sync.Cond.
type Signal struct {
	env     *Env
	waiters []*waiter
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait parks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	w := s.env.getWaiter(p)
	s.waiters = append(s.waiters, w)
	p.block()
}

// WaitTimeout parks p until the next Fire or until d elapses. It reports
// whether the signal fired (true) or the wait timed out (false).
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	w := s.env.getWaiter(p)
	w.pinned = true // the timer closure below outlives the wait
	s.waiters = append(s.waiters, w)
	s.env.After(d, func() {
		if w.state == waitPending {
			w.state = waitCancelled
			w.p.resume(wakeScheduled)
		}
	})
	return p.block() == wakeSignaled
}

// Fire wakes every process currently waiting on the signal.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		if w.state != waitPending {
			continue
		}
		w.state = waitGranted
		s.env.scheduleResume(s.env.now, w.p, wakeSignaled)
		s.env.putWaiter(w)
	}
}

// Waiting reports how many processes are parked on the signal.
func (s *Signal) Waiting() int {
	n := 0
	for _, w := range s.waiters {
		if w.state == waitPending {
			n++
		}
	}
	return n
}

// Resource is a counted resource (semaphore) with a FIFO wait queue (a
// ring buffer, so grants pop without shifting or re-allocating). It models
// servers such as CPU cores, disk arms, and network links. It also
// integrates busy units over time so callers can compute utilisation.
type Resource struct {
	env      *Env
	capacity int64
	inUse    int64
	queue    ring[*waiter]

	lastChange time.Duration
	busyInt    float64 // integral of inUse over time, in unit·seconds
}

// NewResource returns a resource with the given capacity.
func NewResource(env *Env, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity, lastChange: env.now}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

func (r *Resource) account() {
	now := r.env.now
	r.busyInt += float64(r.inUse) * (now - r.lastChange).Seconds()
	r.lastChange = now
}

// BusyIntegral returns the integral of in-use units over time, in
// unit-seconds, up to the current instant.
func (r *Resource) BusyIntegral() float64 {
	r.account()
	return r.busyInt
}

// Acquire obtains n units for p, waiting in FIFO order if necessary.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic("sim: invalid acquire amount")
	}
	if r.queue.len() == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		return
	}
	w := r.env.getWaiter(p)
	w.amount = n
	r.queue.push(w)
	p.block()
}

// TryAcquire obtains n units if immediately available, reporting success.
func (r *Resource) TryAcquire(n int64) bool {
	if r.queue.len() == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int64) {
	r.account()
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	for r.queue.len() > 0 {
		w := r.queue.peek()
		if w.state == waitCancelled {
			r.queue.pop()
			r.env.putWaiter(w)
			continue
		}
		if r.inUse+w.amount > r.capacity {
			break
		}
		r.queue.pop()
		r.account()
		r.inUse += w.amount
		w.state = waitGranted
		r.env.scheduleResume(r.env.now, w.p, wakeSignaled)
		r.env.putWaiter(w)
	}
}

// Use acquires n units, runs the process's own fn, and releases.
func (r *Resource) Use(p *Proc, n int64, fn func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	fn()
}

// Chan is a bounded FIFO channel between simulation processes, analogous to
// a buffered Go channel but operating in virtual time. The item buffer and
// both wait lists are ring buffers: pops reuse the backing arrays instead
// of abandoning their prefixes.
type Chan[T any] struct {
	env      *Env
	capacity int
	items    ring[T]
	getters  ring[*waiter]
	putters  ring[*waiter]
	closed   bool
}

// NewChan returns a channel with the given capacity (0 means rendezvous is
// not supported; use capacity >= 1).
func NewChan[T any](env *Env, capacity int) *Chan[T] {
	if capacity < 1 {
		panic("sim: channel capacity must be >= 1")
	}
	return &Chan[T]{env: env, capacity: capacity}
}

// Len returns the number of buffered items.
func (c *Chan[T]) Len() int { return c.items.len() }

// Put appends v, blocking while the channel is full. It reports false (and
// drops v) if the channel was closed, which lets producers observe
// cancellation even when they were parked mid-Put.
func (c *Chan[T]) Put(p *Proc, v T) bool {
	for c.items.len() >= c.capacity {
		if c.closed {
			return false
		}
		w := c.env.getWaiter(p)
		c.putters.push(w)
		p.block()
	}
	if c.closed {
		return false
	}
	c.items.push(v)
	c.wakeOne(&c.getters)
	return true
}

// Get removes and returns the oldest item, blocking while the channel is
// empty. ok is false when the channel is closed and drained.
func (c *Chan[T]) Get(p *Proc) (v T, ok bool) {
	for c.items.len() == 0 {
		if c.closed {
			return v, false
		}
		w := c.env.getWaiter(p)
		c.getters.push(w)
		p.block()
	}
	v = c.items.pop()
	c.wakeOne(&c.putters)
	return v, true
}

// Close marks the channel closed and wakes all blocked processes.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.wakeAll(&c.getters)
	c.wakeAll(&c.putters)
}

func (c *Chan[T]) wakeOne(list *ring[*waiter]) {
	for list.len() > 0 {
		w := list.pop()
		if w.state != waitPending {
			c.env.putWaiter(w)
			continue
		}
		w.state = waitGranted
		c.env.scheduleResume(c.env.now, w.p, wakeSignaled)
		c.env.putWaiter(w)
		return
	}
}

func (c *Chan[T]) wakeAll(list *ring[*waiter]) {
	for list.len() > 0 {
		w := list.pop()
		if w.state != waitPending {
			c.env.putWaiter(w)
			continue
		}
		w.state = waitGranted
		c.env.scheduleResume(c.env.now, w.p, wakeSignaled)
		c.env.putWaiter(w)
	}
}
