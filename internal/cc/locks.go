package cc

import (
	"sort"
	"time"

	"wattdb/internal/sim"
)

// LockMode is an MGL-RX lock mode. R(ead)/X(exclusive) locks are taken on
// records; their intention variants IR/IX on coarser granules (partition,
// table) announce finer-grained activity below.
type LockMode int

const (
	LockIR LockMode = iota // intention to read below
	LockIX                 // intention to write below
	LockR                  // shared read
	LockX                  // exclusive
)

// String returns the mode's display name.
func (m LockMode) String() string {
	return [...]string{"IR", "IX", "R", "X"}[m]
}

// compatible reports whether a and b may be held simultaneously by
// different transactions (classical MGL compatibility matrix).
func compatible(a, b LockMode) bool {
	switch a {
	case LockIR:
		return b != LockX
	case LockIX:
		return b == LockIR || b == LockIX
	case LockR:
		return b == LockIR || b == LockR
	default: // LockX
		return false
	}
}

// supremum returns the weakest mode at least as strong as both (upgrade
// target). R+IX jumps to X (no SIX mode, as in the paper's RX scheme).
func supremum(a, b LockMode) LockMode {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case a == LockIR:
		return b
	case a == LockIX && b == LockR:
		return LockX
	default:
		return LockX
	}
}

type lockReq struct {
	txn  *Txn
	mode LockMode
}

type lockHead struct {
	granted map[TxnID]lockReq
	queue   []*lockReq
	freed   *sim.Signal
}

// LockManager implements MGL-RX over named resources. Lock names encode the
// hierarchy externally (e.g. "part/7" and "part/7/key/x"); the manager
// itself is hierarchy-agnostic.
type LockManager struct {
	env   *sim.Env
	locks map[string]*lockHead
	// Waits counts blocking lock acquisitions (contention metric).
	Waits int64
	// failed marks a lock table lost to its node's power failure (Fail).
	failed bool
}

// NewLockManager returns an empty lock table.
func NewLockManager(env *sim.Env) *LockManager {
	return &LockManager{env: env, locks: make(map[string]*lockHead)}
}

func (lm *LockManager) head(name string) *lockHead {
	h, ok := lm.locks[name]
	if !ok {
		h = &lockHead{granted: make(map[TxnID]lockReq), freed: sim.NewSignal(lm.env)}
		lm.locks[name] = h
	}
	return h
}

// grantable reports whether txn may hold mode given current grants
// (ignoring its own) and, for fairness, the wait queue ahead of it.
func (h *lockHead) grantable(txn *Txn, mode LockMode, skipQueue bool) bool {
	for id, g := range h.granted {
		if id == txn.ID {
			continue
		}
		if !compatible(mode, g.mode) {
			return false
		}
	}
	if !skipQueue {
		for _, q := range h.queue {
			if q.txn.ID != txn.ID {
				return false // FIFO: someone is already waiting
			}
		}
	}
	return true
}

// Lock acquires mode on name for txn, waiting up to timeout. Re-acquiring a
// weaker or equal mode is a no-op; a stronger mode upgrades (possibly
// waiting). Lock waits are metered as CatLocking on p and end only at a grant
// or the timeout; while txn is parked here it counts as blocked to
// AcquireWriteIntent's rule, so no intent waiter queues behind it.
func (lm *LockManager) Lock(p *sim.Proc, txn *Txn, name string, mode LockMode, timeout time.Duration) error {
	if !txn.Active() {
		return ErrTxnNotActive
	}
	h := lm.head(name)
	if g, ok := h.granted[txn.ID]; ok {
		need := supremum(g.mode, mode)
		if need == g.mode {
			return nil
		}
		mode = need // upgrade
	}
	// Fast path: grant immediately. Upgrades may bypass the queue (they
	// already hold a grant; making them queue behind incompatible waiters
	// deadlocks instantly).
	_, upgrading := h.granted[txn.ID]
	if h.grantable(txn, mode, upgrading) {
		h.granted[txn.ID] = lockReq{txn, mode}
		return nil
	}
	lm.Waits++
	req := &lockReq{txn, mode}
	h.queue = append(h.queue, req)
	stop := p.Meter(sim.CatLocking)
	defer stop()
	txn.waiting++
	defer func() { txn.waiting-- }()
	deadline := lm.env.Now() + timeout
	for {
		remaining := deadline - lm.env.Now()
		if remaining <= 0 || !h.freed.WaitTimeout(p, remaining) {
			lm.dequeue(h, req)
			return ErrLockTimeout
		}
		if lm.failed {
			return ErrFailed
		}
		if !txn.Active() {
			lm.dequeue(h, req)
			return ErrTxnNotActive
		}
		// Re-check in queue order.
		if len(h.queue) > 0 && h.queue[0] == req && h.grantable(txn, mode, true) {
			h.queue = h.queue[1:]
			h.granted[txn.ID] = lockReq{txn, mode}
			h.freed.Fire() // let the next waiter re-evaluate
			return nil
		}
		if upgrading && h.grantable(txn, mode, true) {
			lm.dequeue(h, req)
			h.granted[txn.ID] = lockReq{txn, mode}
			h.freed.Fire()
			return nil
		}
	}
}

// Fail marks the lock table lost to its node's power failure and wakes every
// waiter, in name order: each returns ErrFailed at this instant instead of at
// its timeout.
func (lm *LockManager) Fail() {
	lm.failed = true
	var names []string
	for name, h := range lm.locks {
		if len(h.queue) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		lm.locks[name].freed.Fire()
	}
}

func (lm *LockManager) dequeue(h *lockHead, req *lockReq) {
	for i, q := range h.queue {
		if q == req {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			break
		}
	}
	h.freed.Fire()
}

// ReleaseAll releases every lock txn holds (commit/abort epilogue). Locks
// are released in name order: each release fires a signal that reschedules
// waiters, so map-iteration order would leak scheduling nondeterminism into
// otherwise identical runs.
func (lm *LockManager) ReleaseAll(txn *Txn) {
	var names []string
	for name, h := range lm.locks {
		if _, held := h.granted[txn.ID]; held {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := lm.locks[name]
		delete(h.granted, txn.ID)
		h.freed.Fire()
		if len(h.granted) == 0 && len(h.queue) == 0 {
			delete(lm.locks, name)
		}
	}
}
