package cc

import (
	"sort"
	"time"

	"wattdb/internal/sim"
)

// Version is one record state: a commit timestamp plus payload, or a delete
// marker. The newest committed version of a record lives in the partition's
// B*-tree; the VersionStore keeps older versions and uncommitted intents, so
// "readers can still access old versions, even if new transactions changed
// the data" (Sect. 3.5) — crucial while records are on the move.
type Version struct {
	TS      Timestamp
	Deleted bool
	Val     []byte
}

// Bytes returns the version's storage footprint for the Fig. 3 metric.
func (v Version) Bytes() int64 { return int64(len(v.Val)) + 9 }

type mvccEntry struct {
	writer     *Txn
	pending    Version
	hasPending bool
	history    []Version // committed versions the tree leaf superseded, oldest first
	lastCommit Timestamp
	released   *sim.Signal
}

// VersionStore holds MVCC state for one partition. All methods must be
// called from simulation processes of the owning node.
type VersionStore struct {
	env     *sim.Env
	entries map[string]*mvccEntry

	// Commits is the owning node's commit table: every version a transaction
	// resolves to is looked up there, and one whose commit is unsettled makes
	// its writer a dependency of the reader (observe). Nil — a store outside
	// a cluster — tracks none.
	Commits *CommitTable

	// versionBytes tracks retained old-version bytes (Fig. 3's storage
	// overhead line).
	versionBytes int64

	// intentKeys is the set of keys holding an active write intent;
	// maxCommit is the newest commit timestamp installed through this
	// store. Together they let ChangedSince answer its common no-change
	// case without scanning, and keep CommittedPending proportional to the
	// number of in-flight writers rather than the number of entries.
	intentKeys map[string]struct{}
	maxCommit  Timestamp

	// recent maps keys to their last commit timestamp for commits newer
	// than the GC watermark. It bounds ChangedSince's commit check by the
	// number of commits since the last vacuum instead of the number of
	// entries: any key pruned from the set committed at or below the
	// watermark, which no active snapshot (every mover included) predates.
	recent map[string]Timestamp

	// Intents counts why write intents were not granted at once. A new store
	// has its own; a cluster points its node's stores at one tally, which
	// outlives a crashed or dropped partition.
	Intents *IntentStats

	// failed marks a store lost to its node's power failure (Fail).
	failed bool
}

// IntentStats counts AcquireWriteIntent's decisions on a key held by another
// writer: Waited counts the acquisitions that parked (rules 2 and 4, once per
// acquisition), and the other three how an acquisition ended without the key —
// DiedCommitted by rule 1, DiedBlocked by rule 3, TimedOut by the backstop. An
// acquisition that waited and then died counts in both. StaleAtGrant counts
// the acquisitions that found the key free but committed above their snapshot.
// Refreshed and RefreshRefused count the snapshot moves a locking read asked
// for at rule 1 or at the grant (AcquireRefreshing); a refused one also counts
// as DiedCommitted or StaleAtGrant.
type IntentStats struct {
	Waited, DiedCommitted, DiedBlocked, TimedOut int
	StaleAtGrant, Refreshed, RefreshRefused      int
}

// Add folds o into s.
func (s *IntentStats) Add(o IntentStats) {
	s.Waited += o.Waited
	s.DiedCommitted += o.DiedCommitted
	s.DiedBlocked += o.DiedBlocked
	s.TimedOut += o.TimedOut
	s.StaleAtGrant += o.StaleAtGrant
	s.Refreshed += o.Refreshed
	s.RefreshRefused += o.RefreshRefused
}

// Refresher moves a transaction's snapshot up instead of letting a locking
// read die on a row committed above it. Refresh moves Txn.Begin to ts and
// reports true only if nothing the transaction read has a committed version,
// or a committed writer still installing, with a timestamp in (Begin, ts];
// otherwise it leaves Begin alone and reports false. It may block.
type Refresher interface {
	Refresh(p *sim.Proc, ts Timestamp) bool
}

// NewVersionStore returns an empty store.
func NewVersionStore(env *sim.Env) *VersionStore {
	return &VersionStore{
		env:        env,
		entries:    make(map[string]*mvccEntry),
		intentKeys: make(map[string]struct{}),
		recent:     make(map[string]Timestamp),
		Intents:    &IntentStats{},
	}
}

// observe records that txn resolved to the version stamped ts: if that
// commit is still unsettled, txn now depends on it.
func (vs *VersionStore) observe(txn *Txn, ts Timestamp) {
	if w := vs.Commits.Unsettled(ts); w != nil && w != txn {
		txn.dependOn(w)
	}
}

func (vs *VersionStore) entry(key string) *mvccEntry {
	e, ok := vs.entries[key]
	if !ok {
		e = &mvccEntry{released: sim.NewSignal(vs.env)}
		vs.entries[key] = e
	}
	return e
}

// AcquireWriteIntent makes txn the exclusive pending writer of key. leafTS
// is the commit timestamp of the record's current tree version (0 if the
// record does not exist); it feeds the first-committer-wins check.
//
// A key held by another writer w is decided at the intent, by one rule:
//  1. w committed above txn's snapshot: first-committer-wins has decided
//     already, and ErrWriteConflict comes at once rather than after w's
//     install.
//  2. w committed at or below the snapshot, or aborted, and still holds the
//     intent: its install or roll-back is in flight, and such a holder waits
//     on no intent, so txn waits for the release.
//  3. w active and itself parked in a cc wait: ErrWriteConflict at once. No
//     wait chains through a waiter, so no convoy forms behind a blocked
//     holder and no waits-for cycle can close — the edge that would close one
//     finds its target blocked.
//  4. w active and running: txn waits for w's commit point or abort and
//     applies the rule again. If w aborted the key is txn's; if it committed,
//     rule 1 answers at its commit point, not after its commit force.
//
// timeout stays as the backstop. Waiting is metered as CatLocking. The rule
// reads w's transaction record where the intent lives and charges no message
// for it, the modeling assumption resolve's committed-writer path makes too.
func (vs *VersionStore) AcquireWriteIntent(p *sim.Proc, txn *Txn, key string, leafTS Timestamp, timeout time.Duration) error {
	return vs.AcquireRefreshing(p, txn, key, leafTS, timeout, nil)
}

// AcquireRefreshing is AcquireWriteIntent for a locking read: where the rule
// answers ErrWriteConflict because key was committed above txn's snapshot —
// rule 1, or a free key whose newest commit is above it — it first asks r to
// move the snapshot up to that commit's timestamp, and goes on with the rule
// if r did. A nil r refreshes nothing.
func (vs *VersionStore) AcquireRefreshing(p *sim.Proc, txn *Txn, key string, leafTS Timestamp, timeout time.Duration, r Refresher) error {
	if !txn.Active() {
		return ErrTxnNotActive
	}
	for {
		e := vs.entry(key)
		if e.writer == txn {
			return nil
		}
		if e.writer != nil {
			if err := vs.awaitIntent(p, txn, key, timeout, r); err != nil {
				return err
			}
			e = vs.entry(key) // a vacuum may have dropped the entry meanwhile
		}
		last := e.lastCommit
		if leafTS > last {
			last = leafTS
		}
		if last > txn.Begin {
			// Someone committed this record after we took our snapshot.
			if !vs.refresh(p, r, last) {
				vs.Intents.StaleAtGrant++
				return ErrWriteConflict
			}
			if vs.failed {
				return ErrFailed
			}
			continue // the refresh may have blocked: decide again
		}
		// Overwriting a version is observing it, read or not: this write is
		// ordered after that commit and must not outlive it.
		vs.observe(txn, last)
		e.writer = txn
		e.hasPending = false
		vs.intentKeys[key] = struct{}{}
		return nil
	}
}

// refresh asks r to move the snapshot up to ts and counts the answer.
func (vs *VersionStore) refresh(p *sim.Proc, r Refresher, ts Timestamp) bool {
	if r == nil {
		return false
	}
	if r.Refresh(p, ts) {
		vs.Intents.Refreshed++
		return true
	}
	vs.Intents.RefreshRefused++
	return false
}

// awaitIntent applies AcquireWriteIntent's rule until key's intent is free
// (nil) or the rule or the backstop decides against txn.
func (vs *VersionStore) awaitIntent(p *sim.Proc, txn *Txn, key string, timeout time.Duration, r Refresher) error {
	deadline := vs.env.Now() + timeout
	txn.waiting++
	defer func() { txn.waiting-- }()
	waited := false
	for {
		if vs.failed {
			return ErrFailed
		}
		e := vs.entry(key)
		w := e.writer
		var until *sim.Signal
		switch {
		case w == nil:
			return nil
		case w.State == TxnCommitted && w.Commit > txn.Begin:
			if vs.refresh(p, r, w.Commit) {
				continue // now at or below the snapshot: rule 2, or free
			}
			vs.Intents.DiedCommitted++
			return ErrWriteConflict
		case w.State != TxnActive:
			until = e.released
		case w.waiting > 0:
			vs.Intents.DiedBlocked++
			return ErrWriteConflict
		default:
			if w.decided == nil {
				w.decided = sim.NewSignal(vs.env)
			}
			until = w.decided
		}
		if !waited {
			vs.Intents.Waited++
			waited = true
		}
		remaining := deadline - vs.env.Now()
		stop := p.Meter(sim.CatLocking)
		ok := remaining > 0 && until.WaitTimeout(p, remaining)
		stop()
		if !ok {
			vs.Intents.TimedOut++
			return ErrLockTimeout
		}
		if !txn.Active() {
			return ErrTxnNotActive
		}
	}
}

// Fail marks the store lost to its node's power failure and wakes every
// writer parked on one of its intents, whichever signal it waits on: each
// returns ErrFailed at this instant instead of at its timeout, waiting for a
// release that a dead store never gives. Keys wake in order, for determinism.
func (vs *VersionStore) Fail() {
	vs.failed = true
	keys := make([]string, 0, len(vs.intentKeys))
	for k := range vs.intentKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := vs.entries[k]
		e.released.Fire()
		e.writer.decide()
	}
}

// StagePending records txn's new value for key. txn must hold the write
// intent.
func (vs *VersionStore) StagePending(txn *Txn, key string, deleted bool, val []byte) {
	e := vs.entry(key)
	if e.writer != txn {
		panic("cc: StagePending without write intent")
	}
	e.pending = Version{Deleted: deleted, Val: val}
	e.hasPending = true
}

// ReadVisible resolves the version of key visible to txn. leaf is the
// current tree version (nil if the key is absent from the tree). It returns
// ok=false if no version is visible at txn's snapshot (absent, or a
// visible tombstone).
func (vs *VersionStore) ReadVisible(txn *Txn, key string, leaf *Version) (Version, bool) {
	v, exists := vs.VisibleVersion(txn, key, leaf)
	if !exists || v.Deleted {
		return Version{}, false
	}
	return v, true
}

// VisibleVersion is ReadVisible distinguishing "no version at this
// snapshot" (exists=false) from a visible tombstone (exists=true,
// Deleted=true). Migration routing needs the distinction: a tombstone at a
// range's new location is an authoritative committed state, not a license
// to fall back to the old copy.
//
// Visible means committed at or below the snapshot, not settled: the version
// returned may belong to a commit still in its force, and then txn takes a
// dependency on its writer (observe) instead of being denied the version.
func (vs *VersionStore) VisibleVersion(txn *Txn, key string, leaf *Version) (Version, bool) {
	v, ok := vs.resolve(txn, key, leaf)
	if ok {
		vs.observe(txn, v.TS)
	}
	return v, ok
}

func (vs *VersionStore) resolve(txn *Txn, key string, leaf *Version) (Version, bool) {
	e := vs.entries[key]
	if e != nil && e.writer == txn && e.hasPending {
		// Own uncommitted write.
		return e.pending, true
	}
	if e != nil && e.writer != nil && e.writer != txn && e.hasPending &&
		e.writer.State == TxnCommitted && e.writer.Commit <= txn.Begin {
		// The writer is past its commit point (its timestamp is assigned and
		// below our snapshot) but the tree install is still in flight: a
		// single-node commit between its timestamp and its install, or a
		// distributed one anywhere between its timestamp, its durable decision
		// and the last participant's install. The staged value is the
		// authoritative newest version for this snapshot.
		v := e.pending
		v.TS = e.writer.Commit
		return v, true
	}
	if leaf != nil && leaf.TS <= txn.Begin {
		return *leaf, true
	}
	if e != nil {
		for i := len(e.history) - 1; i >= 0; i-- {
			if v := e.history[i]; v.TS <= txn.Begin {
				return v, true
			}
		}
	}
	return Version{}, false
}

// ChangedSince reports whether any key in [lo, hi) (nil bounds are open)
// has a write txn cannot have seen: a foreign write intent still in flight,
// or a commit newer than txn's snapshot. Record movement uses it — in the
// same non-blocking step as the boundary advance — before retargeting a
// migration window: a record that was invisible to the mover's scan
// (tombstoned, not yet staged, or not yet committed) but was (or is being)
// (re-)written at the source would otherwise be stranded there once routing
// points at the destination. Keys compare bytewise (the key codec is
// order-preserving). ownIntents is the number of intents txn itself holds
// in this store (the mover's staged batch): when every live intent is the
// caller's and nothing committed past its snapshot, the store provably
// contains no relevant change and the entry scan is skipped.
func (vs *VersionStore) ChangedSince(txn *Txn, lo, hi []byte, ownIntents int) bool {
	if len(vs.intentKeys) == ownIntents && vs.maxCommit <= txn.Begin {
		return false
	}
	for k := range vs.intentKeys {
		e := vs.entries[k]
		if e == nil || e.writer == nil || e.writer == txn {
			continue
		}
		if lo != nil && k < string(lo) {
			continue
		}
		if hi != nil && k >= string(hi) {
			continue
		}
		return true
	}
	if vs.maxCommit <= txn.Begin {
		return false
	}
	// Commit check over the watermark-pruned recent-commit set: every key
	// whose last commit could postdate txn's snapshot is in it (txn is
	// active, so the GC watermark is at or below txn.Begin and cannot have
	// pruned a relevant commit). The walk is bounded by commits since the
	// last vacuum, not by the store's entry count.
	for k, ts := range vs.recent {
		if ts <= txn.Begin {
			continue
		}
		if lo != nil && k < string(lo) {
			continue
		}
		if hi != nil && k >= string(hi) {
			continue
		}
		return true
	}
	return false
}

// PendingRead is one committed-but-still-installing write visible to a
// snapshot (see CommittedPending).
type PendingRead struct {
	Key string
	Ver Version
}

// CommittedPending returns, sorted by key, the staged writes in [lo, hi)
// (nil bounds open) whose transactions committed at or below txn's snapshot
// but whose tree installs are still in flight. Such writes have no tree
// leaf yet, so a concurrent scan would miss them entirely — a committed
// insert must not be invisible to a snapshot that covers its timestamp.
// Point reads get the same answer through VisibleVersion's
// committed-writer path.
func (vs *VersionStore) CommittedPending(txn *Txn, lo, hi []byte) []PendingRead {
	if len(vs.intentKeys) == 0 {
		return nil // common case: no writer in flight anywhere
	}
	var out []PendingRead
	for k := range vs.intentKeys {
		e := vs.entries[k]
		if e == nil || e.writer == nil || e.writer == txn || !e.hasPending ||
			e.writer.State != TxnCommitted || e.writer.Commit > txn.Begin {
			continue
		}
		if lo != nil && k < string(lo) {
			continue
		}
		if hi != nil && k >= string(hi) {
			continue
		}
		v := e.pending
		v.TS = e.writer.Commit
		out = append(out, PendingRead{Key: k, Ver: v})
	}
	// The common case is empty: keep it allocation-free (sort.Slice boxes
	// its argument even for a nil slice, and scans run per batch on the
	// executor's hot path).
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	// Dependencies are taken in key order, not in the map's: Commit settles
	// txn.Deps front to back and skips the ones settled meanwhile, so their
	// order decides how many it waits for and in which order.
	for _, pr := range out {
		vs.observe(txn, pr.Ver.TS)
	}
	return out
}

// CommittedIn reports whether key has a committed version, or a committed
// writer still installing, with a timestamp in (lo, hi]. It is the check a
// snapshot refresh makes of every key its transaction read: lo is the
// transaction's snapshot, at or above the GC watermark, so no version the
// check must find has been collected.
func (vs *VersionStore) CommittedIn(key []byte, lo, hi Timestamp) bool {
	e := vs.entries[string(key)]
	if e == nil {
		return false
	}
	in := func(ts Timestamp) bool { return ts > lo && ts <= hi }
	if w := e.writer; w != nil && w.State == TxnCommitted && in(w.Commit) {
		return true
	}
	if in(e.lastCommit) {
		return true
	}
	for i := len(e.history) - 1; i >= 0 && e.history[i].TS > lo; i-- {
		if e.history[i].TS <= hi {
			return true
		}
	}
	return false
}

// StaleLeaf reports whether a caller-held copy of key's tree leaf (commit
// timestamp leafTS) predates a later install. Batched leaf-at-a-time scans
// copy a whole page and then emit from the copy; an install that lands
// between the copy and the emit leaves the copy stale, and the version the
// snapshot must see may live only in the current tree leaf or the history
// entries pushed by the newer installs (never in the stale copy). Callers
// that see true must re-read the current leaf before resolving visibility —
// even when the newest commit is above the reader's snapshot, an
// intermediate visible version may have landed after the copy too.
func (vs *VersionStore) StaleLeaf(key string, leafTS Timestamp) bool {
	e := vs.entries[key]
	return e != nil && e.lastCommit > leafTS
}

// HasIntent reports whether txn holds the write intent on key with a staged
// value (used by scans to include own inserts).
func (vs *VersionStore) HasIntent(txn *Txn, key string) (Version, bool) {
	e := vs.entries[key]
	if e != nil && e.writer == txn && e.hasPending {
		return e.pending, true
	}
	return Version{}, false
}

// BeginCommitKey stamps txn's pending write of key with its commit
// timestamp and returns the version the caller must install in the tree.
// The write intent is NOT released: while the (possibly blocking) tree
// install is in flight, ReadVisible keeps serving the staged value through
// its committed-writer path, so readers whose snapshot covers commitTS
// never fall back to the stale leaf. Call FinishCommitKey after the
// install.
func (vs *VersionStore) BeginCommitKey(txn *Txn, key string, commitTS Timestamp) Version {
	e := vs.entry(key)
	if e.writer != txn || !e.hasPending {
		panic("cc: BeginCommitKey without staged write")
	}
	v := e.pending
	v.TS = commitTS
	return v
}

// FinishCommitKey finalises txn's write of key after the tree install:
// oldLeaf (the version the install replaced, nil if none) is pushed into
// the history so older snapshots can still read it, and the write intent is
// released, waking queued writers — who now see the new leaf.
func (vs *VersionStore) FinishCommitKey(txn *Txn, key string, oldLeaf *Version, commitTS Timestamp) {
	e := vs.entry(key)
	if e.writer != txn || !e.hasPending {
		panic("cc: FinishCommitKey without staged write")
	}
	if oldLeaf != nil && oldLeaf.TS > txn.Begin {
		panic("cc: first-committer-wins violation: overwriting a version newer than the snapshot")
	}
	if oldLeaf != nil {
		e.history = append(e.history, *oldLeaf)
		vs.versionBytes += oldLeaf.Bytes()
	}
	e.lastCommit = commitTS
	e.writer = nil
	e.hasPending = false
	delete(vs.intentKeys, key)
	if commitTS > vs.maxCommit {
		vs.maxCommit = commitTS
	}
	vs.recent[key] = commitTS
	e.released.Fire()
}

// CommitKey is BeginCommitKey+FinishCommitKey in one step, for callers that
// install without blocking (tests, single-site usage).
func (vs *VersionStore) CommitKey(txn *Txn, key string, oldLeaf *Version, commitTS Timestamp) Version {
	v := vs.BeginCommitKey(txn, key, commitTS)
	vs.FinishCommitKey(txn, key, oldLeaf, commitTS)
	return v
}

// AbortKey drops txn's write intent on key.
func (vs *VersionStore) AbortKey(txn *Txn, key string) {
	e, ok := vs.entries[key]
	if !ok || e.writer != txn {
		return
	}
	e.writer = nil
	e.hasPending = false
	delete(vs.intentKeys, key)
	e.released.Fire()
}

// GC discards history versions that no active snapshot can read (all but
// the newest version older than watermark) and returns the bytes freed.
func (vs *VersionStore) GC(watermark Timestamp) int64 {
	var freed int64
	for key, e := range vs.entries {
		if len(e.history) > 0 {
			// Keep versions needed by snapshots >= watermark: drop all
			// versions strictly older than the newest one <= watermark.
			drop := 0
			for i := len(e.history) - 1; i > 0; i-- {
				if e.history[i].TS <= watermark {
					drop = i
					break
				}
			}
			for _, v := range e.history[:drop] {
				freed += v.Bytes()
			}
			n := copy(e.history, e.history[drop:])
			clear(e.history[n:])
			e.history = e.history[:n]
			// The tree's leaf version supersedes any history version
			// fully below the watermark.
			if len(e.history) > 0 && e.lastCommit <= watermark {
				for _, v := range e.history {
					freed += v.Bytes()
				}
				e.history = nil
			}
		}
		// Entries whose last commit is above the watermark must survive even
		// with an empty history: ChangedSince relies on lastCommit to spot
		// writes newer than an active snapshot (e.g. a record mover's).
		if e.writer == nil && len(e.history) == 0 && e.released.Waiting() == 0 &&
			e.lastCommit <= watermark {
			delete(vs.entries, key)
		}
	}
	// Prune the recent-commit set: a commit at or below the watermark
	// predates every active snapshot, so no ChangedSince caller can care.
	// The survivors move to a fresh map — deleting in place would leave the
	// old map's bucket array at its high-water size, and ChangedSince's walk
	// would stay proportional to the busiest interval ever seen instead of
	// the commits since this vacuum.
	if len(vs.recent) > 0 {
		kept := make(map[string]Timestamp)
		for key, ts := range vs.recent {
			if ts > watermark {
				kept[key] = ts
			}
		}
		vs.recent = kept
	}
	// intentKeys empties as writers finish but its buckets do not; rebuild
	// it when quiescent so scans' CommittedPending walks stay small too.
	if len(vs.intentKeys) == 0 {
		vs.intentKeys = make(map[string]struct{})
	}
	vs.versionBytes -= freed
	return freed
}

// RecentCommits reports the size of the watermark-pruned recent-commit set
// (diagnostics and benchmarks).
func (vs *VersionStore) RecentCommits() int { return len(vs.recent) }

// VersionBytes returns retained old-version bytes.
func (vs *VersionStore) VersionBytes() int64 { return vs.versionBytes }

// Entries returns the number of keys with MVCC state.
func (vs *VersionStore) Entries() int { return len(vs.entries) }
