// Package chaos is WattDB's deterministic fault-injection harness: one
// harness, run over one of two workloads. It drives the workload's clients
// against a simulated, fully replicated cluster while a seeded fault plan
// power-fails nodes (including mid-migration, for each of the three
// repartitioning protocols, and mid-checkpoint), tears and rots logs,
// destroys disks, stalls disks, and spikes network latency — then checks the
// invariants the paper's energy-proportional operation depends on:
//
//   - durability: every acknowledged commit is readable after restart;
//   - atomicity: no write of an unacknowledged transaction is ever visible;
//   - snapshot isolation: every read and range scan matches the committed
//     version history at the reader's snapshot, and every snapshot covers
//     each commit acknowledged before its session began (real-time order);
//   - partition-table consistency: after an interrupted migration no key is
//     unreachable or doubly owned, and every range table stays contiguous;
//   - power accounting: the meter never goes negative, energy is monotone,
//     and standby nodes draw standby watts.
//
// The harness (chaos.go, plan.go, rto.go, replication.go) owns the cluster,
// the daemons, the plan and its executor, the restart and replication
// oracles and the hash. A workload (kv.go: Run, tpcc.go: RunTPCC) supplies
// what differs: its tables and load, its clients, the two key ranges its plan
// migrates, and its final check. A new fault class is one entry in
// buildPlan's table and one case in spawnExecutor, for both workloads at once.
//
// Crashes that need a narrow window are aimed, not timed: the engine names
// its crash points (cluster.Cluster.Point — "ckpt.*", "ship.ahead",
// "commit.depwait", "clock.publish") and the executor arms a crash on one, firing
// synchronously at the k-th hit within reach of the planned instant, or at
// the deadline on the planned node. A new window is one point in the engine
// and one crashAimed in spawnExecutor.
//
// The seed also picks which fault families the plan turns up (MixOf), so one
// sweep over consecutive seeds runs every mix.
//
// Everything — the workload, the fault schedule, and the engine — runs on
// the sim package's deterministic virtual clock, so one seed produces one
// fault schedule and one final state hash: any failure is reproducible with
// `go run ./cmd/wattdb-chaos -seed N -scheme S` (or `make chaos`).
package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Shorthands for states used across the harness files.
const (
	hwActive   = hw.PowerActive
	hwOff      = hw.PowerOff
	ccSnapshot = cc.SnapshotIsolation
)

// Config parameterizes one chaos run. The seed draws the run's fault
// schedule and picks its fault mix (MixOf).
type Config struct {
	Seed   int64
	Scheme table.Scheme
	// Duration is the simulated workload window, 45 s if unset; faults land
	// inside it.
	Duration time.Duration
}

// The shape every run shares: the cluster size (the key space is split
// across nodes 0 and 1, later nodes are migration targets), the KV key space
// [0, kvKeys), the concurrent workload processes, and the random fault
// events drawn on top of the always-present crash-during-migration sequence.
// A fault family the run's mix leaves light carries lightFaults of its
// faults; one it turns up carries heavyFaults, or heavyReaders analytics
// readers.
const (
	clusterNodes = 4
	kvKeys       = 400
	workers      = 4
	randomFaults = 4
	lightFaults  = 1
	heavyFaults  = 3
	heavyReaders = 4
)

// Mix is a run's fault mix: one bit per fault family the run turns up from
// lightFaults to its heavy count.
type Mix uint8

const (
	// mixCoord adds random coordinator power failures, aims the first at the
	// leader's next publication of the oracle's view, and adds crashes aimed
	// at a lease or decision a follower holds ahead of the leader, so
	// elections, lease handoffs and in-doubt reconciliation dominate the run.
	mixCoord Mix = 1 << iota
	// mixDisk adds full-disk-loss + acked-history-rot pairs: each wiped node
	// rebuilds every hosted partition from its replica set, and the scrubber
	// repairs each rotted frame from a healthy copy.
	mixDisk
	// mixCkpt adds power failures partway through a fuzzy checkpoint; each
	// restart falls back to the previous complete begin/end pair.
	mixCkpt
	// mixHTAP adds analytics readers running validated scan-aggregate
	// snapshot queries beside the OLTP workload, the even-numbered ones with
	// the follower-read offloading hint.
	mixHTAP
)

// MixOf is seed's fault mix: the seed mod 16, so every 16 consecutive seeds
// run every combination of the four families. The mix draws nothing from the
// plan's rng: a seed whose mix turns up one family replays the run the
// family's heavy count alone gave that seed.
func MixOf(seed int64) Mix { return Mix(seed & 15) }

// String names the families m turns up, "coord+ckpt", or "light" for none.
func (m Mix) String() string {
	var names []string
	for i, name := range []string{"coord", "disk", "ckpt", "htap"} {
		if m&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "light"
	}
	return strings.Join(names, "+")
}

// faults is the count of family f in a run of mix m: heavy if m turns f up,
// lightFaults if not.
func (m Mix) faults(f Mix, heavy int) int {
	if m&f != 0 {
		return heavy
	}
	return lightFaults
}

// Report is the outcome of one chaos run.
type Report struct {
	Seed    int64
	Scheme  table.Scheme
	SimTime time.Duration

	Commits   int
	Aborts    int
	FailedOps int // operations rejected by faults (down nodes, conflicts)
	Reads     int
	Scans     int
	Crashes   int
	Restarts  int
	// TornCrashes/BitFlips count the crashes that additionally damaged the
	// log medium (torn final frame / bit-rotted boundary frame); both are
	// included in Crashes.
	TornCrashes int
	BitFlips    int
	// AheadCrashes counts the crashes fired at the "ship.ahead" crash point:
	// a node's own log force behind a follower's, whose disk then holds
	// frames the node lost, which no recovery path may use (included in
	// Crashes).
	AheadCrashes int
	// CoordAheadCrashes counts the AheadCrashes that left a lease or a 2PC
	// decision durable on a follower of the crashed node and not on its own
	// disk: the coordinator records an election may adopt although the leader
	// that logged them never flushed them (cluster.Cluster.CoordAhead).
	CoordAheadCrashes int
	// DepCrashes counts the crashes fired at the "commit.depwait" crash
	// point: a node whose unsettled commit a committing transaction is about
	// to wait for (included in Crashes).
	DepCrashes int
	// PublishCrashes counts the crashes fired at the "clock.publish" crash
	// point: the seated leader about to send the oracle's view, with the
	// acknowledgments of the commits it carries waiting for it to land
	// (included in Crashes and LeaderCrashes).
	PublishCrashes int
	// DecidedHits counts the passes of the "commit.decided" crash point: a
	// branch of a distributed commit acknowledged at its decision, about to
	// install. No plan aims a crash there; a crash that lands anyway is
	// rolled forward from the in-doubt branch.
	DecidedHits int
	// LeaderCrashes counts crashes that hit the acting coordinator;
	// Failovers counts the leader elections the master went through.
	LeaderCrashes int
	Failovers     int
	// Replicated-history counters: DiskLosses counts full log-medium
	// destructions, Rebuilds the restarts that reconstructed a node's
	// history from its replica set, RotInjected the acked-history bit flips
	// landed, ScrubRepairs the frames the scrubber patched back from a
	// healthy copy, FollowerReads the snapshot reads served by replicas.
	DiskLosses    int
	Rebuilds      int
	RotInjected   int
	ScrubRepairs  int
	FollowerReads int
	// Fuzzy-checkpoint / recovery-time counters: Checkpoints is the number
	// of complete fuzzy checkpoints taken across all nodes, CkptCrashes the
	// crashes fired at a "ckpt.*" crash point, BoundedRestarts the restarts
	// whose replay was bounded by a checkpoint redo point, ReplayBytes the
	// framed log bytes replayed across all restarts, RecoveryTime the summed
	// simulated power-on-to-ready time.
	Checkpoints     int
	CkptCrashes     int
	BoundedRestarts int
	ReplayBytes     int64
	RecoveryTime    time.Duration
	// HTAP analytics counters: AnalyticsQueries is the number of completed
	// scan-aggregate snapshot queries the online readers ran, AnalyticsRows
	// the rows they aggregated.
	AnalyticsQueries int
	AnalyticsRows    int64
	// Commit-dependency counters: DepWaits is the number of unsettled commits
	// that committing transactions — read-only ones included — had to wait
	// for, DepLost the waits that ended in the dependency rolled back by a
	// power failure, failing the dependent.
	DepWaits int
	DepLost  int
	// Write-intent counters (cc.IntentStats summed over the nodes): the
	// acquisitions that waited for a held key, and those that ended without it
	// because the holder had committed above their snapshot, because the
	// holder was itself blocked, or at the lock timeout; the free keys found
	// committed above the snapshot at the grant; and the snapshot refreshes
	// locking reads made and were refused.
	IntentWaits          int
	IntentDiedCommitted  int
	IntentDiedBlocked    int
	IntentTimeouts       int
	IntentStaleAtGrant   int
	IntentRefreshed      int
	IntentRefreshRefused int

	Faults     []string // executed fault schedule, in order
	Violations []string // invariant violations (empty = PASS)

	// StateHash digests the fault schedule, the final table contents, and
	// every counter above: identical seeds must produce identical hashes.
	StateHash string
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

const maxViolations = 25

// workload is what the two chaos runs differ in; everything else — the
// cluster, the daemons, the fault plan's shape and its executor, the restart
// and replication oracles, the hash — is the harness's and exists once.
type workload interface {
	// deploy creates the workload's tables on the fresh cluster and load,
	// run inside the load process, fills them.
	deploy(h *harness) error
	load(p *sim.Proc) error
	// spawnClients starts the client processes; the order they are spawned
	// in is part of the schedule.
	spawnClients()
	// plan is buildPlan with the workload's salt and its two migrations.
	plan() []faultEvent
	// tables names the range-partitioned tables, in migration order.
	tables() []string
	// migrate moves ev's key range to ev's target and writes the move's
	// fault-log lines (their text is hashed).
	migrate(mp *sim.Proc, ev faultEvent)
	// postRestart runs in the restarting process after every successful
	// restart the plan scheduled.
	postRestart(p *sim.Proc, n *cluster.DataNode)
	// finalCheck verifies the end state through s, a snapshot session on
	// node 0, and returns the canonical state dump for the hash.
	finalCheck(p *sim.Proc, s *cluster.Session) string
}

type harness struct {
	cfg    Config
	env    *sim.Env
	c      *cluster.Cluster
	master *cluster.Master
	w      workload
	mix    Mix

	stop   bool
	stopAt time.Duration
	aims   []*aim // armed crashes, in arming order (atPoint)
	// acked is the highest commit timestamp acknowledged so far (ack): no
	// session begun from then on may read below it (begin).
	acked cc.Timestamp

	rep *Report
}

func (h *harness) violate(msg string) {
	if len(h.rep.Violations) < maxViolations {
		h.rep.Violations = append(h.rep.Violations, msg)
	}
}

func (h *harness) logFault(format string, args ...interface{}) {
	h.rep.Faults = append(h.rep.Faults,
		fmt.Sprintf("t=%7.3fs  ", h.env.Now().Seconds())+fmt.Sprintf(format, args...))
}

// aliveNode picks a powered-on node for a transaction's home, or nil.
func (h *harness) aliveNode(rng *rand.Rand) *cluster.DataNode {
	var alive []*cluster.DataNode
	for _, n := range h.c.Nodes {
		if !n.Down() && n.HW.State() == hwActive {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	return alive[rng.Intn(len(alive))]
}

// begin starts a snapshot session at home and holds it to real-time order: its
// snapshot must cover every commit acknowledged before Begin was called,
// wherever the session is homed. A session refused by a fenced coordinator
// has no snapshot to check.
func (h *harness) begin(p *sim.Proc, home *cluster.DataNode) *cluster.Session {
	acked := h.acked
	s := h.master.Begin(p, ccSnapshot, home)
	if s.Txn.Active() && s.Txn.Begin < acked {
		h.violate(fmt.Sprintf("real-time order: session begun at %v on node %d reads at %d, below commit %d acknowledged before it began",
			p.Now(), home.ID, s.Txn.Begin, acked))
	}
	return s
}

// ack records that s's commit was acknowledged; call it the instant Commit
// returned nil.
func (h *harness) ack(s *cluster.Session) { h.acked = max(h.acked, s.Txn.Commit) }

// failOp aborts a transaction that hit a fault (down node, conflict,
// timeout, lost dependency) and counts it; nothing it observed is kept.
func (h *harness) failOp(p *sim.Proc, s *cluster.Session) {
	s.Abort(p)
	h.rep.FailedOps++
}

// finishRead commits a read-only transaction. What it read is an observation
// only if this succeeds: a snapshot covers commits still in their force, and
// Commit is where the session waits them out — or fails, when a power failure
// rolled one back and the values it returned never existed.
func (h *harness) finishRead(p *sim.Proc, s *cluster.Session) bool {
	if err := s.Commit(p); err != nil {
		h.failOp(p, s)
		return false
	}
	return true
}

// run executes one chaos run of w and returns its report. The error return
// is reserved for harness-level failures (a simulation process panicking);
// invariant breaks land in Report.Violations.
func run(cfg Config, w workload) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 45 * time.Second
	}
	env := sim.NewEnv(cfg.Seed)
	defer env.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = clusterNodes
	ccfg.MasterReplicas = 2
	ccfg.DataReplicas = 2
	c := cluster.New(env, ccfg)
	for _, n := range c.Nodes[1:] {
		n.HW.ForceActive()
	}

	h := &harness{
		cfg:    cfg,
		env:    env,
		c:      c,
		master: c.Master,
		w:      w,
		mix:    MixOf(cfg.Seed),
		stopAt: cfg.Duration,
		rep:    &Report{Seed: cfg.Seed, Scheme: cfg.Scheme},
	}
	c.Point = h.atPoint
	if err := w.deploy(h); err != nil {
		return h.rep, err
	}
	var loadErr error
	env.Spawn("chaos-load", func(p *sim.Proc) { loadErr = w.load(p) })
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	if loadErr != nil {
		return h.rep, loadErr
	}
	c.SetupReplicationDrain()

	// Clients, replication and checkpoint daemons, fault plan.
	w.spawnClients()
	h.spawnReplicationDaemons()
	h.spawnCheckpointers()
	h.spawnExecutor(w.plan())

	if err := env.RunUntil(cfg.Duration); err != nil {
		return h.rep, err
	}
	h.stop = true
	// Drain: clients exit, in-flight migrations finish or abort, pending
	// restarts complete, ghost/old-pointer cleanups run out.
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	for _, n := range c.Nodes {
		if n.Down() {
			// A late crash left the node down past the drain: bring it
			// back for the final verification.
			node := n
			env.Spawn("chaos-final-restart", func(p *sim.Proc) {
				if _, _, err := c.RestartNode(p, node); err != nil {
					h.violate(fmt.Sprintf("final restart of node %d: %v", node.ID, err))
					return
				}
				h.rep.Restarts++
				h.noteRecovery(node)
			})
		}
	}
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	h.finalReplicationSweep()
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	h.rep.Rebuilds, h.rep.ScrubRepairs, h.rep.FollowerReads, h.rep.DiskLosses = c.ReplicationStats()
	h.rep.DepWaits, h.rep.DepLost = c.DepWaits, c.DepLost
	var intents cc.IntentStats
	for _, n := range c.Nodes {
		h.rep.Checkpoints += n.Checkpoints
		intents.Add(n.Intents)
	}
	h.rep.IntentWaits, h.rep.IntentDiedCommitted = intents.Waited, intents.DiedCommitted
	h.rep.IntentDiedBlocked, h.rep.IntentTimeouts = intents.DiedBlocked, intents.TimedOut
	h.rep.IntentStaleAtGrant = intents.StaleAtGrant
	h.rep.IntentRefreshed, h.rep.IntentRefreshRefused = intents.Refreshed, intents.RefreshRefused

	// Coordinator-failover oracles: after the drain the master must be
	// available under some leader, and every recorded commit decision must
	// have been acknowledged by all its participants (the decision map
	// drains to empty — nothing leaks across failovers).
	if c.Master.Fenced() {
		h.violate("coordinator still fenced after drain (no leader elected)")
	}
	if n := c.Master.InDoubtDecisionCount(); n != 0 {
		h.violate(fmt.Sprintf("decision map leak: %d commit decisions never fully acknowledged: %s",
			n, strings.Join(c.Master.OutstandingDecisions(), "; ")))
	}
	h.rep.Failovers = c.Master.Failovers()

	// Final invariant sweep.
	finalState := h.runFinalCheck()
	for _, name := range w.tables() {
		h.checkRanges(name)
	}
	h.rep.SimTime = env.Now()
	h.rep.StateHash = stateHash(h.rep, finalState)
	return h.rep, nil
}

// runFinalCheck runs the workload's end-state verification in a snapshot
// session on node 0 and returns its state dump.
func (h *harness) runFinalCheck() string {
	var dump string
	h.env.Spawn("chaos-final-check", func(p *sim.Proc) {
		home := h.c.Nodes[0]
		if home.Down() {
			h.violate("final check: node 0 still down")
			return
		}
		s := h.begin(p, home)
		dump = h.w.finalCheck(p, s)
		s.Abort(p)
	})
	if err := h.env.Run(); err != nil {
		h.violate(fmt.Sprintf("final check crashed: %v", err))
	}
	return dump
}

// checkRanges verifies that a table's range table is sorted and contiguous,
// covers the whole key space, and names a partition and an owner for every
// range.
func (h *harness) checkRanges(name string) {
	tm, err := h.master.Table(name)
	if err != nil {
		h.violate(err.Error())
		return
	}
	entries := tm.Entries()
	if len(entries) == 0 {
		h.violate(fmt.Sprintf("%s: partition table empty", name))
		return
	}
	if entries[0].Low != nil {
		h.violate(fmt.Sprintf("%s: first range does not start at -inf", name))
	}
	if entries[len(entries)-1].High != nil {
		h.violate(fmt.Sprintf("%s: last range does not end at +inf", name))
	}
	for i, e := range entries {
		if i > 0 && string(entries[i-1].High) != string(e.Low) {
			h.violate(fmt.Sprintf("%s: gap/overlap between entry %d and %d", name, i-1, i))
		}
		if e.Part == nil || e.Owner == nil {
			h.violate(fmt.Sprintf("%s: entry %d has nil partition/owner", name, i))
		}
	}
}

// EachCounter calls fn with the name and value of every counter of the
// report — whatever integer and duration fields Report has, in declaration
// order, by reflection — so that a counter added later is hashed by stateHash
// and printed by the CLI without anyone listing it.
func (r *Report) EachCounter(fn func(name string, value any)) {
	v := reflect.ValueOf(*r)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() {
			fn(v.Type().Field(i).Name, f.Interface())
		}
	}
}

// stateHash digests a run: the executed fault schedule, every counter of the
// report, and the final table contents. Two runs of the same seed must agree
// byte for byte.
func stateHash(rep *Report, finalState string) string {
	d := sha256.New()
	for _, f := range rep.Faults {
		fmt.Fprintln(d, f)
	}
	rep.EachCounter(func(name string, value any) { fmt.Fprintf(d, "%s=%d\n", name, value) })
	d.Write([]byte(finalState))
	return fmt.Sprintf("%x", d.Sum(nil))[:16]
}

// sortInt64s is a tiny helper for deterministic iteration.
func sortInt64s(ks []int64) { sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] }) }
