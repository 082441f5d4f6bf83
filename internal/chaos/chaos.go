// Package chaos is WattDB's deterministic fault-injection harness. It runs
// a randomized key-value workload against a simulated cluster while a
// seeded fault plan power-fails nodes (including mid-migration, for each of
// the three repartitioning protocols), stalls disks, and spikes network
// latency — then checks the invariants the paper's energy-proportional
// operation depends on:
//
//   - durability: every acknowledged commit is readable after restart;
//   - atomicity: no write of an unacknowledged transaction is ever visible;
//   - snapshot isolation: every read and range scan matches the committed
//     version history at the reader's snapshot;
//   - partition-table consistency: after an interrupted migration no key is
//     unreachable or doubly owned, and the range table stays contiguous;
//   - power accounting: the meter never goes negative, energy is monotone,
//     and standby nodes draw standby watts.
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
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Shorthands for states used across the harness files.
const (
	hwActive   = hw.PowerActive
	hwOff      = hw.PowerOff
	ccSnapshot = cc.SnapshotIsolation
)

// Config parameterizes one chaos run.
type Config struct {
	Seed   int64
	Scheme table.Scheme
	// Nodes is the cluster size; the key space is split across nodes 0 and
	// 1, later nodes are migration targets. Minimum 3.
	Nodes int
	// Keys is the key-space size [0, Keys).
	Keys int
	// Workers is the number of concurrent workload processes.
	Workers int
	// Duration is the simulated workload window; faults land inside it.
	Duration time.Duration
	// Faults is the number of random fault events drawn on top of the
	// always-present crash-during-migration sequence.
	Faults int
	// CoordFaults is the number of random coordinator power-fails drawn on
	// top of the always-present mid-migration coordinator crash. The master
	// runs replicated (two follower replicas) and every run must fail over
	// and keep all invariants.
	CoordFaults int
	// DiskFaults is the number of guaranteed full-disk-loss + acked-history
	// bit-rot pairs in the plan. Every run ships acked history to follower
	// replicas; each disk-loss victim must rebuild all hosted partitions
	// from its replica set, and the scrubber must repair every rot hit.
	DiskFaults int
	// CkptFaults is the number of guaranteed mid-checkpoint power failures
	// in the plan. Every run takes periodic fuzzy checkpoints on all nodes;
	// each of these crashes lands partway through one (including between the
	// begin and end records) and the restart must fall back to the previous
	// complete checkpoint pair.
	CkptFaults int
	// HTAP is the number of concurrent analytics readers running
	// scan-aggregate snapshot queries alongside the OLTP workload while the
	// fault plan executes — the HTAP interference path. Even-numbered
	// readers set the PreferFollower offloading hint so replica snapshot
	// reads are exercised under faults. KV readers validate every observed
	// row against the oracle at their snapshot; TPC-C readers check
	// snapshot-internal warehouse invariants. -1 disables.
	HTAP int
}

func (c Config) withDefaults() Config {
	if c.Nodes < 3 {
		c.Nodes = 4
	}
	if c.Keys <= 0 {
		c.Keys = 400
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 45 * time.Second
	}
	if c.Faults < 0 {
		c.Faults = 0
	} else if c.Faults == 0 {
		c.Faults = 4
	}
	if c.CoordFaults < 0 {
		c.CoordFaults = 0
	} else if c.CoordFaults == 0 {
		c.CoordFaults = 1
	}
	if c.DiskFaults < 0 {
		c.DiskFaults = 0
	} else if c.DiskFaults == 0 {
		c.DiskFaults = 1
	}
	if c.CkptFaults < 0 {
		c.CkptFaults = 0
	} else if c.CkptFaults == 0 {
		c.CkptFaults = 1
	}
	if c.HTAP < 0 {
		c.HTAP = 0
	} else if c.HTAP == 0 {
		c.HTAP = 1
	}
	return c
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
	// AheadCrashes counts the crashes that caught a node with its own log
	// force behind a follower's: the follower's disk holds frames the node
	// lost, which no recovery path may use (included in Crashes).
	AheadCrashes int
	// DepCrashes counts the crashes that caught a node with a transaction
	// parked in Commit on one of its unsettled commits (included in Crashes).
	DepCrashes int
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
	// injected mid-checkpoint power failures, BoundedRestarts the restarts
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

	Faults     []string // executed fault schedule, in order
	Violations []string // invariant violations (empty = PASS)

	// StateHash digests the fault schedule, the final table contents, and
	// every counter above: identical seeds must produce identical hashes.
	StateHash string
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

const maxViolations = 25

type harness struct {
	cfg    Config
	env    *sim.Env
	c      *cluster.Cluster
	master *cluster.Master
	schema *table.Schema
	oracle *oracle

	stop   bool
	stopAt time.Duration

	reads []readObs
	scans []scanObs

	rep *Report
}

func kvKey(k int64) []byte { return keycodec.Int64Key(k) }

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

// Run executes one chaos run and returns its report. The error return is
// reserved for harness-level failures (a simulation process panicking);
// invariant breaks land in Report.Violations.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv(cfg.Seed)
	defer env.Close()

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = cfg.Nodes
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
		oracle: newOracle(),
		stopAt: cfg.Duration,
		rep:    &Report{Seed: cfg.Seed, Scheme: cfg.Scheme},
	}
	h.schema = &table.Schema{
		ID: 1, Name: "kv", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
	mid := kvKey(int64(cfg.Keys / 2))
	if _, err := c.Master.CreateTable(h.schema, cfg.Scheme, []cluster.RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	}); err != nil {
		return nil, err
	}
	var loadErr error
	env.Spawn("chaos-load", func(p *sim.Proc) {
		i := 0
		loadErr = c.Master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
			if i >= cfg.Keys {
				return nil, nil, false
			}
			k := int64(i)
			val := fmt.Sprintf("init-%d", k)
			row := table.Row{k, val}
			key, _ := h.schema.Key(row)
			payload, _ := h.schema.EncodeRow(row)
			h.oracle.load(k, val)
			i++
			return key, payload, true
		})
	})
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	if loadErr != nil {
		return h.rep, loadErr
	}
	c.SetupReplicationDrain()

	// Workload, analytics readers, fault plan, power sampler, and
	// replication daemons.
	for w := 0; w < cfg.Workers; w++ {
		h.spawnWorker(w)
	}
	for q := 0; q < cfg.HTAP; q++ {
		h.spawnAnalytics(q)
	}
	h.spawnPowerSampler()
	spawnReplicationDaemons(env, c, &h.stop)
	spawnCheckpointers(env, c, &h.stop)
	h.runner().spawnExecutor(buildPlan(cfg))

	if err := env.RunUntil(cfg.Duration); err != nil {
		return h.rep, err
	}
	h.stop = true
	// Drain: workers exit, in-flight migrations finish or abort, pending
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
				noteRecovery(h.rep, h.violate, node)
			})
		}
	}
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	finalReplicationSweep(env, c, h.violate)
	if err := env.Run(); err != nil {
		return h.rep, err
	}
	h.rep.Rebuilds, h.rep.ScrubRepairs, h.rep.FollowerReads, h.rep.DiskLosses = c.ReplicationStats()
	h.rep.DepWaits, h.rep.DepLost = c.DepWaits, c.DepLost
	for _, n := range c.Nodes {
		h.rep.Checkpoints += n.Checkpoints
	}

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
	finalState := h.finalCheck()
	validateReads(h.oracle, h.reads, h.scans, h.violate)
	h.checkPartitionTable()
	h.rep.SimTime = env.Now()
	h.rep.StateHash = stateHash(h.rep, finalState)
	return h.rep, nil
}

// spawnWorker starts one workload process: randomized single- and
// multi-key read, write, delete, and scan transactions with unique values,
// feeding the oracle on every acknowledged commit.
func (h *harness) spawnWorker(w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + int64(w)))
	seq := 0
	h.env.Spawn(fmt.Sprintf("chaos-worker-%d", w), func(p *sim.Proc) {
		p.Sleep(time.Duration(w) * 3 * time.Millisecond) // desynchronize
		for !h.stop && p.Now() < h.stopAt {
			home := h.aliveNode(rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			h.runTxn(p, w, rng, &seq, home)
			p.Sleep(time.Duration(2+rng.Intn(6)) * time.Millisecond)
		}
	})
}

// runTxn executes one randomized transaction.
func (h *harness) runTxn(p *sim.Proc, w int, rng *rand.Rand, seq *int, home *cluster.DataNode) {
	s := h.master.Begin(p, cc.SnapshotIsolation, home)
	kind := rng.Intn(10)
	switch {
	case kind < 5: // write transaction (puts, occasionally deletes)
		nOps := 1 + rng.Intn(3)
		var writes []kvWrite
		for i := 0; i < nOps; i++ {
			k := int64(rng.Intn(h.cfg.Keys))
			if rng.Intn(8) == 0 {
				if err := s.Delete(p, "kv", kvKey(k)); err != nil {
					h.failOp(p, s)
					return
				}
				writes = append(writes, kvWrite{key: k, deleted: true})
				continue
			}
			*seq++
			val := fmt.Sprintf("w%d.%d", w, *seq)
			payload, _ := h.schema.EncodeRow(table.Row{k, val})
			if err := s.Put(p, "kv", kvKey(k), payload); err != nil {
				h.failOp(p, s)
				return
			}
			writes = append(writes, kvWrite{key: k, val: val})
		}
		if rng.Intn(10) == 0 {
			// Deliberate abort: none of these writes may ever surface.
			s.Abort(p)
			h.rep.Aborts++
			return
		}
		if err := s.Commit(p); err != nil {
			s.Abort(p)
			h.rep.Aborts++
			return
		}
		// Acknowledged: record at the engine's commit timestamp before any
		// further blocking call.
		h.oracle.commit(s.Txn.Commit, writes)
		h.rep.Commits++
	case kind < 9: // read transaction
		nOps := 2 + rng.Intn(3)
		var seen []readObs
		for i := 0; i < nOps; i++ {
			k := int64(rng.Intn(h.cfg.Keys))
			v, ok, err := s.Get(p, "kv", kvKey(k))
			if err != nil {
				h.failOp(p, s)
				return
			}
			obs := readObs{at: p.Now(), snap: s.Txn.Begin, key: k, ok: ok}
			if ok {
				row, derr := h.schema.DecodeRow(v)
				if derr != nil {
					h.violate(fmt.Sprintf("read@%v key %d: undecodable payload: %v", p.Now(), k, derr))
					h.failOp(p, s)
					return
				}
				obs.val = row[1].(string)
			}
			seen = append(seen, obs)
		}
		if !h.finishRead(p, s) {
			return
		}
		h.reads = append(h.reads, seen...)
		h.rep.Reads += len(seen)
	default: // range scan
		span := int64(10 + rng.Intn(30))
		lo := int64(rng.Intn(h.cfg.Keys))
		hi := lo + span
		if hi > int64(h.cfg.Keys) {
			hi = int64(h.cfg.Keys)
		}
		obs := scanObs{at: p.Now(), snap: s.Txn.Begin, lo: lo, hi: hi}
		err := s.Scan(p, "kv", kvKey(lo), kvKey(hi), func(kb, v []byte) bool {
			k, _, _ := keycodec.DecodeInt64(kb)
			row, derr := h.schema.DecodeRow(v)
			if derr != nil {
				h.violate(fmt.Sprintf("scan@%v key %d: undecodable payload: %v", p.Now(), k, derr))
				return false
			}
			obs.keys = append(obs.keys, k)
			obs.vals = append(obs.vals, row[1].(string))
			return true
		})
		if err != nil {
			h.failOp(p, s)
			return
		}
		if !h.finishRead(p, s) {
			return
		}
		h.scans = append(h.scans, obs)
		h.rep.Scans++
	}
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

// spawnAnalytics starts one HTAP reader: a loop of full-table
// scan-aggregate snapshot queries running concurrently with the OLTP
// workload and the fault plan. Even-numbered readers set the
// PreferFollower offloading hint, so replica snapshot reads are exercised
// while crashes, disk losses, and migrations land. Every observed row is
// recorded as a scan observation and validated against the oracle at the
// reader's snapshot, exactly like the workload's range scans — an
// analytics query that surfaces a torn or stale row is an invariant break,
// wherever it was served from.
func (h *harness) spawnAnalytics(q int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*2_000_003 + int64(q)))
	h.env.Spawn(fmt.Sprintf("chaos-htap-%d", q), func(p *sim.Proc) {
		p.Sleep(time.Duration(7+5*q) * time.Millisecond) // desynchronize
		for !h.stop && p.Now() < h.stopAt {
			home := h.aliveNode(rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			s := h.master.Begin(p, cc.SnapshotIsolation, home)
			s.PreferFollower = q%2 == 0
			obs := scanObs{at: p.Now(), lo: 0, hi: int64(h.cfg.Keys)}
			err := s.Scan(p, "kv", nil, nil, func(kb, v []byte) bool {
				k, _, _ := keycodec.DecodeInt64(kb)
				row, derr := h.schema.DecodeRow(v)
				if derr != nil {
					h.violate(fmt.Sprintf("htap@%v key %d: undecodable payload: %v", p.Now(), k, derr))
					return false
				}
				obs.keys = append(obs.keys, k)
				obs.vals = append(obs.vals, row[1].(string))
				return true
			})
			obs.snap = s.Txn.Begin // the safe snapshot, under the hint: fixed by the scan
			if err != nil {
				h.failOp(p, s)
			} else if h.finishRead(p, s) {
				h.scans = append(h.scans, obs)
				h.rep.AnalyticsQueries++
				h.rep.AnalyticsRows += int64(len(obs.keys))
			}
			p.Sleep(time.Duration(40+rng.Intn(60)) * time.Millisecond)
		}
	})
}

// failOp aborts a transaction that hit a fault (down node, conflict,
// timeout, lost dependency) and counts it; nothing it observed is kept.
func (h *harness) failOp(p *sim.Proc, s *cluster.Session) {
	s.Abort(p)
	h.rep.FailedOps++
}

// spawnPowerSampler runs the power-accounting invariant continuously:
// samples are non-negative (at least the always-on switch), energy is
// monotone, and a standby node draws exactly the calibrated standby power.
func (h *harness) spawnPowerSampler() {
	h.env.Spawn("chaos-power", func(p *sim.Proc) {
		lastEnergy := h.c.Meter.EnergyJoules()
		for !h.stop {
			p.Sleep(500 * time.Millisecond)
			watts := h.c.Meter.Sample()
			if watts < h.c.Cal.PowerSwitch {
				h.violate(fmt.Sprintf("power@%v: %.2f W below the always-on switch draw %.2f W",
					p.Now(), watts, h.c.Cal.PowerSwitch))
			}
			if e := h.c.Meter.EnergyJoules(); e < lastEnergy {
				h.violate(fmt.Sprintf("power@%v: energy meter went backwards (%.1f J -> %.1f J)",
					p.Now(), lastEnergy, e))
			} else {
				lastEnergy = e
			}
			for _, n := range h.c.Nodes {
				if n.HW.State() == hwOff && n.HW.Power(0) != h.c.Cal.PowerStandby {
					h.violate(fmt.Sprintf("power@%v: standby node %d draws %.2f W, want %.2f W",
						p.Now(), n.ID, n.HW.Power(0), h.c.Cal.PowerStandby))
				}
			}
		}
	})
}

// finalCheck verifies the cluster's end state against the oracle: a full
// scan must return exactly the oracle's live keys (each once, with its last
// acknowledged value), and every live key must also be point-readable. It
// returns the canonical final-state dump used for the state hash.
func (h *harness) finalCheck() string {
	var dump strings.Builder
	h.env.Spawn("chaos-final-check", func(p *sim.Proc) {
		home := h.c.Nodes[0]
		if home.Down() {
			h.violate("final check: node 0 still down")
			return
		}
		live := h.oracle.liveKeys()
		s := h.master.Begin(p, cc.SnapshotIsolation, home)
		got := make(map[int64]string, len(live))
		var order []int64
		err := s.Scan(p, "kv", nil, nil, func(kb, v []byte) bool {
			k, _, _ := keycodec.DecodeInt64(kb)
			row, derr := h.schema.DecodeRow(v)
			if derr != nil {
				h.violate(fmt.Sprintf("final scan: key %d undecodable: %v", k, derr))
				return false
			}
			if _, dup := got[k]; dup {
				h.violate(fmt.Sprintf("final scan: key %d returned twice (doubly owned)", k))
			}
			got[k] = row[1].(string)
			order = append(order, k)
			return true
		})
		if err != nil {
			h.violate(fmt.Sprintf("final scan failed: %v", err))
		}
		// Durability: every acknowledged write present with its last value.
		for _, k := range live {
			want, _ := h.oracle.current(k)
			val, ok := got[k]
			if !ok {
				h.violate(fmt.Sprintf("durability: key %d (last value %q) lost", k, want))
				continue
			}
			if val != want {
				h.violate(fmt.Sprintf("durability: key %d = %q, oracle says %q", k, val, want))
			}
		}
		// Atomicity/resurrection: nothing beyond the oracle's live set.
		if len(got) != len(live) {
			for _, k := range order {
				if _, ok := h.oracle.current(k); !ok {
					h.violate(fmt.Sprintf("atomicity: key %d visible but never acknowledged live (value %q)", k, got[k]))
				}
			}
		}
		// Reachability via point routing (exercises candidatesFor, not the
		// scan path).
		for _, k := range live {
			v, ok, err := s.Get(p, "kv", kvKey(k))
			if err != nil || !ok {
				h.violate(fmt.Sprintf("reachability: key %d unreadable via Get: ok=%v err=%v", k, ok, err))
				continue
			}
			row, _ := h.schema.DecodeRow(v)
			if want, _ := h.oracle.current(k); row[1].(string) != want {
				h.violate(fmt.Sprintf("reachability: key %d Get = %q, oracle says %q", k, row[1], want))
			}
		}
		s.Abort(p)
		for _, k := range order {
			fmt.Fprintf(&dump, "%d=%s\n", k, got[k])
		}
	})
	if err := h.env.Run(); err != nil {
		h.violate(fmt.Sprintf("final check crashed: %v", err))
	}
	return dump.String()
}

// checkPartitionTable verifies the master's range table is sorted,
// contiguous, and covers the whole key space.
func (h *harness) checkPartitionTable() {
	tm, err := h.master.Table("kv")
	if err != nil {
		h.violate(err.Error())
		return
	}
	entries := tm.Entries()
	if len(entries) == 0 {
		h.violate("partition table empty")
		return
	}
	if entries[0].Low != nil {
		h.violate("partition table: first range does not start at -inf")
	}
	if entries[len(entries)-1].High != nil {
		h.violate("partition table: last range does not end at +inf")
	}
	for i := 1; i < len(entries); i++ {
		if string(entries[i-1].High) != string(entries[i].Low) {
			h.violate(fmt.Sprintf("partition table: gap/overlap between entry %d and %d", i-1, i))
		}
	}
	for i, e := range entries {
		if e.Part == nil || e.Owner == nil {
			h.violate(fmt.Sprintf("partition table: entry %d has nil partition/owner", i))
		}
	}
}

// stateHash digests a run: the executed fault schedule, every counter of the
// report — whatever integer fields Report has, by reflection, so a counter
// added later is hashed without anyone listing it — and the final table
// contents. Two runs of the same seed must agree byte for byte.
func stateHash(rep *Report, finalState string) string {
	d := sha256.New()
	for _, f := range rep.Faults {
		fmt.Fprintln(d, f)
	}
	v := reflect.ValueOf(*rep)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() {
			fmt.Fprintf(d, "%s=%d\n", v.Type().Field(i).Name, f.Int())
		}
	}
	d.Write([]byte(finalState))
	return fmt.Sprintf("%x", d.Sum(nil))[:16]
}

// sortInt64s is a tiny helper for deterministic iteration.
func sortInt64s(ks []int64) { sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] }) }
