package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wattdb/internal/cluster"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Run executes one chaos run over the key-value workload: randomized
// single- and multi-key read, write, delete, read-modify-write and scan
// transactions with unique values over one table split across nodes 0 and 1,
// every read and scan checked against an oracle holding the full committed
// version history.
func Run(cfg Config) (*Report, error) { return run(cfg, &kvWorkload{oracle: newOracle()}) }

type kvWorkload struct {
	*harness
	schema *table.Schema
	oracle *oracle

	reads []readObs
	scans []scanObs
}

func kvKey(k int64) []byte { return keycodec.Int64Key(k) }

func (kv *kvWorkload) deploy(h *harness) error {
	kv.harness = h
	kv.schema = &table.Schema{
		ID: 1, Name: "kv", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}
	mid := kvKey(kvKeys / 2)
	_, err := kv.master.CreateTable(kv.schema, kv.cfg.Scheme, []cluster.RangeSpec{
		{Low: nil, High: mid, Owner: kv.c.Nodes[0]},
		{Low: mid, High: nil, Owner: kv.c.Nodes[1]},
	})
	return err
}

func (kv *kvWorkload) load(p *sim.Proc) error {
	i := 0
	return kv.master.BulkLoad(p, "kv", func() ([]byte, []byte, bool) {
		if i >= kvKeys {
			return nil, nil, false
		}
		key := int64(i)
		val := fmt.Sprintf("init-%d", key)
		row := table.Row{key, val}
		kb, _ := kv.schema.Key(row)
		payload, _ := kv.schema.EncodeRow(row)
		kv.oracle.load(key, val)
		i++
		return kb, payload, true
	})
}

// spawnClients starts the workers, the analytics readers and the power
// sampler, in that order.
func (kv *kvWorkload) spawnClients() {
	for w := 0; w < workers; w++ {
		kv.spawnWorker(w)
	}
	for q := 0; q < kv.mix.faults(mixHTAP, heavyReaders); q++ {
		kv.spawnAnalytics(q)
	}
	kv.spawnPowerSampler()
}

// plan moves the third quarter of the key space to the first spare node in
// every run, and the first quarter to the last node when the seed draws it.
func (kv *kvWorkload) plan() []faultEvent {
	return buildPlan(kv.cfg, 0x5eed_c8a0_5eed_c8a0, migration{kvKeys / 2, 3 * kvKeys / 4}, migration{0, kvKeys / 4})
}

func (kv *kvWorkload) tables() []string { return []string{"kv"} }

func (kv *kvWorkload) migrate(mp *sim.Proc, ev faultEvent) {
	kv.logFault("migration [%d,%d) -> node %d starting", ev.loK, ev.hiK, ev.target)
	err := kv.master.MigrateRange(mp, "kv", kvKey(ev.loK), kvKey(ev.hiK), kv.c.Nodes[ev.target])
	if err != nil {
		kv.logFault("migration [%d,%d) -> node %d aborted: %v", ev.loK, ev.hiK, ev.target, err)
	} else {
		kv.logFault("migration [%d,%d) -> node %d complete", ev.loK, ev.hiK, ev.target)
	}
}

// spawnWorker starts one workload process: randomized single- and
// multi-key read, write, delete, and scan transactions with unique values,
// feeding the oracle on every acknowledged commit.
func (kv *kvWorkload) spawnWorker(w int) {
	rng := rand.New(rand.NewSource(kv.cfg.Seed*1_000_003 + int64(w)))
	seq := 0
	kv.env.Spawn(fmt.Sprintf("chaos-worker-%d", w), func(p *sim.Proc) {
		p.Sleep(time.Duration(w) * 3 * time.Millisecond) // desynchronize
		for !kv.stop && p.Now() < kv.stopAt {
			home := kv.aliveNode(rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			kv.runTxn(p, w, rng, &seq, home)
			p.Sleep(time.Duration(2+rng.Intn(6)) * time.Millisecond)
		}
	})
}

// runTxn executes one randomized transaction.
func (kv *kvWorkload) runTxn(p *sim.Proc, w int, rng *rand.Rand, seq *int, home *cluster.DataNode) {
	s := kv.begin(p, home)
	kind := rng.Intn(10)
	switch {
	case kind < 4: // write transaction (puts, occasionally deletes)
		nOps := 1 + rng.Intn(3)
		var writes []kvWrite
		for i := 0; i < nOps; i++ {
			k := int64(rng.Intn(kvKeys))
			if rng.Intn(8) == 0 {
				if err := s.Delete(p, "kv", kvKey(k)); err != nil {
					kv.failOp(p, s)
					return
				}
				writes = append(writes, kvWrite{key: k, deleted: true})
				continue
			}
			*seq++
			val := fmt.Sprintf("w%d.%d", w, *seq)
			payload, _ := kv.schema.EncodeRow(table.Row{k, val})
			if err := s.Put(p, "kv", kvKey(k), payload); err != nil {
				kv.failOp(p, s)
				return
			}
			writes = append(writes, kvWrite{key: k, val: val})
		}
		if rng.Intn(10) == 0 {
			// Deliberate abort: none of these writes may ever surface.
			s.Abort(p)
			kv.rep.Aborts++
			return
		}
		if err := s.Commit(p); err != nil {
			s.Abort(p)
			kv.rep.Aborts++
			return
		}
		// Acknowledged: record at the engine's commit timestamp before any
		// further blocking call.
		kv.ack(s)
		kv.oracle.commit(s.Txn.Commit, writes)
		kv.rep.Commits++
	case kind < 5:
		kv.readModifyWrite(p, w, rng, seq, s)
	case kind < 9: // read transaction
		nOps := 2 + rng.Intn(3)
		var seen []readObs
		for i := 0; i < nOps; i++ {
			k := int64(rng.Intn(kvKeys))
			v, ok, err := s.Get(p, "kv", kvKey(k))
			if err != nil {
				kv.failOp(p, s)
				return
			}
			obs := readObs{at: p.Now(), snap: s.Txn.Begin, key: k, ok: ok}
			if ok {
				row, derr := kv.schema.DecodeRow(v)
				if derr != nil {
					kv.violate(fmt.Sprintf("read@%v key %d: undecodable payload: %v", p.Now(), k, derr))
					kv.failOp(p, s)
					return
				}
				obs.val = row[1].(string)
			}
			seen = append(seen, obs)
		}
		if !kv.finishRead(p, s) {
			return
		}
		kv.reads = append(kv.reads, seen...)
		kv.rep.Reads += len(seen)
	default: // range scan
		span := int64(10 + rng.Intn(30))
		lo := int64(rng.Intn(kvKeys))
		hi := lo + span
		if hi > kvKeys {
			hi = kvKeys
		}
		obs := scanObs{at: p.Now(), snap: s.Txn.Begin, lo: lo, hi: hi}
		err := s.Scan(p, "kv", kvKey(lo), kvKey(hi), func(kb, v []byte) bool {
			k, _, _ := keycodec.DecodeInt64(kb)
			row, derr := kv.schema.DecodeRow(v)
			if derr != nil {
				kv.violate(fmt.Sprintf("scan@%v key %d: undecodable payload: %v", p.Now(), k, derr))
				return false
			}
			obs.keys = append(obs.keys, k)
			obs.vals = append(obs.vals, row[1].(string))
			return true
		})
		if err != nil {
			kv.failOp(p, s)
			return
		}
		if !kv.finishRead(p, s) {
			return
		}
		kv.scans = append(kv.scans, obs)
		kv.rep.Scans++
	}
}

// rmwHotKeys is the low key range a read-modify-write reads first and
// updates: hot enough that its locking reads meet commits above their
// snapshots, and that its first read has often changed when they refresh.
const rmwHotKeys = 4

// readModifyWrite reads k1, takes k2 for update (both hot), reads k3, then
// writes k2 a
// value naming the version it read ("w<worker>.<seq><<that id>", rmwPrev). A
// refresh inside GetForUpdate may move the snapshot past the first read, so
// every read is checked at the snapshot the transaction committed at, and the
// oracle's lostUpdates checks that each such value follows the version it
// names.
func (kv *kvWorkload) readModifyWrite(p *sim.Proc, w int, rng *rand.Rand, seq *int, s *cluster.Session) {
	var seen [3]readObs
	for i := range seen {
		k := int64(rng.Intn(kvKeys))
		if i < 2 {
			k = int64(rng.Intn(rmwHotKeys))
		}
		get := s.Get
		if i == 1 {
			get = s.GetForUpdate
		}
		v, ok, err := get(p, "kv", kvKey(k))
		if err != nil {
			kv.failOp(p, s)
			return
		}
		seen[i] = readObs{at: p.Now(), key: k, ok: ok}
		if ok {
			row, derr := kv.schema.DecodeRow(v)
			if derr != nil {
				kv.violate(fmt.Sprintf("rmw@%v key %d: undecodable payload: %v", p.Now(), k, derr))
				kv.failOp(p, s)
				return
			}
			seen[i].val = row[1].(string)
		}
	}
	*seq++
	k2 := seen[1].key
	val := fmt.Sprintf("w%d.%d<%s", w, *seq, rmwPrev(seen[1].val, seen[1].ok))
	payload, _ := kv.schema.EncodeRow(table.Row{k2, val})
	if err := s.Put(p, "kv", kvKey(k2), payload); err != nil {
		kv.failOp(p, s)
		return
	}
	if err := s.Commit(p); err != nil {
		s.Abort(p)
		kv.rep.Aborts++
		return
	}
	kv.ack(s)
	kv.oracle.commit(s.Txn.Commit, []kvWrite{{key: k2, val: val}})
	kv.rep.Commits++
	for i := range seen {
		seen[i].snap = s.Txn.Begin
	}
	kv.reads = append(kv.reads, seen[:]...)
	kv.rep.Reads += len(seen)
}

// rmwPrev names the version a read-modify-write read: the value up to its
// first '<', or "-" for none.
func rmwPrev(val string, ok bool) string {
	if !ok {
		return "-"
	}
	if i := strings.IndexByte(val, '<'); i >= 0 {
		return val[:i]
	}
	return val
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
func (kv *kvWorkload) spawnAnalytics(q int) {
	rng := rand.New(rand.NewSource(kv.cfg.Seed*2_000_003 + int64(q)))
	kv.env.Spawn(fmt.Sprintf("chaos-htap-%d", q), func(p *sim.Proc) {
		p.Sleep(time.Duration(7+5*q) * time.Millisecond) // desynchronize
		for !kv.stop && p.Now() < kv.stopAt {
			home := kv.aliveNode(rng)
			if home == nil {
				p.Sleep(50 * time.Millisecond)
				continue
			}
			s := kv.begin(p, home)
			s.PreferFollower = q%2 == 0
			obs := scanObs{at: p.Now(), lo: 0, hi: kvKeys}
			err := s.Scan(p, "kv", nil, nil, func(kb, v []byte) bool {
				k, _, _ := keycodec.DecodeInt64(kb)
				row, derr := kv.schema.DecodeRow(v)
				if derr != nil {
					kv.violate(fmt.Sprintf("htap@%v key %d: undecodable payload: %v", p.Now(), k, derr))
					return false
				}
				obs.keys = append(obs.keys, k)
				obs.vals = append(obs.vals, row[1].(string))
				return true
			})
			obs.snap = s.Txn.Begin // the safe snapshot, under the hint: fixed by the scan
			if err != nil {
				kv.failOp(p, s)
			} else if kv.finishRead(p, s) {
				kv.scans = append(kv.scans, obs)
				kv.rep.AnalyticsQueries++
				kv.rep.AnalyticsRows += int64(len(obs.keys))
			}
			p.Sleep(time.Duration(40+rng.Intn(60)) * time.Millisecond)
		}
	})
}

// spawnPowerSampler runs the power-accounting invariant continuously:
// samples are non-negative (at least the always-on switch), energy is
// monotone, and a standby node draws exactly the calibrated standby power.
func (kv *kvWorkload) spawnPowerSampler() {
	kv.env.Spawn("chaos-power", func(p *sim.Proc) {
		lastEnergy := kv.c.Meter.EnergyJoules()
		for !kv.stop {
			p.Sleep(500 * time.Millisecond)
			watts := kv.c.Meter.Sample()
			if watts < kv.c.Cal.PowerSwitch {
				kv.violate(fmt.Sprintf("power@%v: %.2f W below the always-on switch draw %.2f W",
					p.Now(), watts, kv.c.Cal.PowerSwitch))
			}
			if e := kv.c.Meter.EnergyJoules(); e < lastEnergy {
				kv.violate(fmt.Sprintf("power@%v: energy meter went backwards (%.1f J -> %.1f J)",
					p.Now(), lastEnergy, e))
			} else {
				lastEnergy = e
			}
			for _, n := range kv.c.Nodes {
				if n.HW.State() == hwOff && n.HW.Power(0) != kv.c.Cal.PowerStandby {
					kv.violate(fmt.Sprintf("power@%v: standby node %d draws %.2f W, want %.2f W",
						p.Now(), n.ID, n.HW.Power(0), kv.c.Cal.PowerStandby))
				}
			}
		}
	})
}

// finalCheck verifies the cluster's end state against the oracle: a full
// scan must return exactly the oracle's live keys (each once, with its last
// acknowledged value), and every live key must also be point-readable; then
// every read and scan recorded during the run is checked against the now
// complete commit history. The dump is the scanned table, in scan order.
func (kv *kvWorkload) finalCheck(p *sim.Proc, s *cluster.Session) string {
	live := kv.oracle.liveKeys()
	got := make(map[int64]string, len(live))
	var order []int64
	err := s.Scan(p, "kv", nil, nil, func(kb, v []byte) bool {
		k, _, _ := keycodec.DecodeInt64(kb)
		row, derr := kv.schema.DecodeRow(v)
		if derr != nil {
			kv.violate(fmt.Sprintf("final scan: key %d undecodable: %v", k, derr))
			return false
		}
		if _, dup := got[k]; dup {
			kv.violate(fmt.Sprintf("final scan: key %d returned twice (doubly owned)", k))
		}
		got[k] = row[1].(string)
		order = append(order, k)
		return true
	})
	if err != nil {
		kv.violate(fmt.Sprintf("final scan failed: %v", err))
	}
	// Durability: every acknowledged write present with its last value.
	for _, k := range live {
		want, _ := kv.oracle.current(k)
		val, ok := got[k]
		if !ok {
			kv.violate(fmt.Sprintf("durability: key %d (last value %q) lost", k, want))
			continue
		}
		if val != want {
			kv.violate(fmt.Sprintf("durability: key %d = %q, oracle says %q", k, val, want))
		}
	}
	// Atomicity/resurrection: nothing beyond the oracle's live set.
	if len(got) != len(live) {
		for _, k := range order {
			if _, ok := kv.oracle.current(k); !ok {
				kv.violate(fmt.Sprintf("atomicity: key %d visible but never acknowledged live (value %q)", k, got[k]))
			}
		}
	}
	// Reachability via point routing (exercises candidatesFor, not the
	// scan path).
	for _, k := range live {
		v, ok, err := s.Get(p, "kv", kvKey(k))
		if err != nil || !ok {
			kv.violate(fmt.Sprintf("reachability: key %d unreadable via Get: ok=%v err=%v", k, ok, err))
			continue
		}
		row, _ := kv.schema.DecodeRow(v)
		if want, _ := kv.oracle.current(k); row[1].(string) != want {
			kv.violate(fmt.Sprintf("reachability: key %d Get = %q, oracle says %q", k, row[1], want))
		}
	}
	validateReads(kv.oracle, kv.reads, kv.scans, kv.violate)
	kv.oracle.lostUpdates(kv.violate)
	var dump strings.Builder
	for _, k := range order {
		fmt.Fprintf(&dump, "%d=%s\n", k, got[k])
	}
	return dump.String()
}

// postRestart reads every key the oracle knows right after a restart;
// the observations flow into the same end-of-run validation as workload
// reads, so "every acknowledged commit readable after restart" is checked
// at the restart boundary itself, not only at the end.
func (kv *kvWorkload) postRestart(p *sim.Proc, restarted *cluster.DataNode) {
	s := kv.begin(p, restarted)
	keys := make([]int64, 0, len(kv.oracle.hist))
	for k := range kv.oracle.hist {
		keys = append(keys, k)
	}
	sortInt64s(keys)
	var seen []readObs
	for _, k := range keys {
		v, ok, err := s.Get(p, "kv", kvKey(k))
		if err != nil {
			// Another fault window may overlap the sweep; skip silently.
			kv.rep.FailedOps++
			continue
		}
		obs := readObs{at: p.Now(), snap: s.Txn.Begin, key: k, ok: ok}
		if ok {
			row, derr := kv.schema.DecodeRow(v)
			if derr != nil {
				kv.violate(fmt.Sprintf("post-restart sweep: key %d undecodable: %v", k, derr))
				continue
			}
			obs.val = row[1].(string)
		}
		seen = append(seen, obs)
	}
	if kv.finishRead(p, s) {
		kv.reads = append(kv.reads, seen...)
	}
}
