package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/chbench"
	"wattdb/internal/exec"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/tpcc"
)

// verify checks the outputs of a finished run from a fresh process inside
// the same simulation and returns a digest of the final table contents.
// Clients have stopped, so every check reads a quiescent database.
func (r *run) verify() (digest string, err error) {
	done := false
	r.env.Spawn("verify", func(p *sim.Proc) {
		defer func() { done = true }()
		if r.c.DataReplicated() {
			r.c.DrainShipQueues(p)
		}
		if n := r.c.Master.InDoubtDecisionCount(); n != 0 {
			err = fmt.Errorf("%d commit decisions never fully acknowledged: %s",
				n, strings.Join(r.c.Master.OutstandingDecisions(), "; "))
			return
		}
		h := sha256.New()
		if r.dep != nil {
			err = r.verifyTPCC(p, h)
			if err == nil && r.spec.Analytics > 0 {
				err = r.verifyFollowerReads(p)
			}
		} else if err = r.verifyKV(p, h); err == nil {
			err = r.countFollowerGap(p)
		}
		digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	})
	for deadline := r.env.Now() + 10*time.Minute; !done && r.env.Now() < deadline; {
		if e := r.env.RunUntil(r.env.Now() + time.Second); e != nil {
			return "", e
		}
	}
	if !done {
		return "", fmt.Errorf("verification did not finish within 10 simulated minutes")
	}
	return digest, err
}

// verifyTPCC scans every partitioned table once, folding it into the digest
// and checking the TPC-C consistency conditions that survive any committed
// history: the YTD a warehouse gained equals what its districts gained,
// D_NEXT_O_ID - 1 is the district's highest order id, and a district holds
// exactly sum(O_OL_CNT) order lines.
func (r *run) verifyTPCC(p *sim.Proc, h hash.Hash) error {
	s := r.c.Master.Begin(p, cc.SnapshotIsolation, r.c.Nodes[0])
	defer s.Abort(p)
	type dist struct{ w, d int64 }
	wYTD := map[int64]float64{}
	dYTD := map[int64]float64{}
	nextO := map[dist]int64{}
	maxO := map[dist]int64{}
	olCnt := map[dist]int64{}
	lines := map[dist]int64{}
	var decodeErr error
	for _, name := range tpcc.PartitionedTables() {
		schema := r.dep.Schemas[name]
		err := s.Scan(p, name, nil, nil, func(k, v []byte) bool {
			h.Write(k)
			h.Write(v)
			switch name {
			case tpcc.TWarehouse, tpcc.TDistrict, tpcc.TOrders, tpcc.TOrderLine:
			default:
				return true
			}
			row, err := schema.DecodeRow(v)
			if err != nil {
				decodeErr = fmt.Errorf("%s: %w", name, err)
				return false
			}
			switch name {
			case tpcc.TWarehouse:
				wYTD[row[0].(int64)] = row[3].(float64)
			case tpcc.TDistrict:
				w, d := row[0].(int64), row[1].(int64)
				dYTD[w] += row[4].(float64) - 30000
				nextO[dist{w, d}] = row[5].(int64)
			case tpcc.TOrders:
				k := dist{row[0].(int64), row[1].(int64)}
				if o := row[2].(int64); o > maxO[k] {
					maxO[k] = o
				}
				olCnt[k] += row[6].(int64)
			case tpcc.TOrderLine:
				lines[dist{row[0].(int64), row[1].(int64)}]++
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("scan %s: %w", name, err)
		}
		if decodeErr != nil {
			return decodeErr
		}
	}
	if len(wYTD) != r.spec.Warehouses || len(nextO) != r.spec.Warehouses*districtsPerW {
		return fmt.Errorf("found %d warehouses and %d districts, loaded %d and %d",
			len(wYTD), len(nextO), r.spec.Warehouses, r.spec.Warehouses*districtsPerW)
	}
	for w, ytd := range wYTD {
		if got, want := ytd-300000, dYTD[w]; got-want > 1e-6*(1+want) || want-got > 1e-6*(1+want) {
			return fmt.Errorf("warehouse %d gained YTD %.4f, its districts gained %.4f", w, got, want)
		}
	}
	for k, next := range nextO {
		if next-1 != maxO[k] {
			return fmt.Errorf("district %d/%d: D_NEXT_O_ID-1 = %d, highest order id %d", k.w, k.d, next-1, maxO[k])
		}
		if lines[k] != olCnt[k] {
			return fmt.Errorf("district %d/%d: %d order lines, sum(O_OL_CNT) = %d", k.w, k.d, lines[k], olCnt[k])
		}
	}
	return nil
}

// verifyFollowerReads runs every suite query once on the owners and once on
// follower replicas, with no commit in between so both read the same
// snapshot, and requires identical rows.
func (r *run) verifyFollowerReads(p *sim.Proc) error {
	home := r.c.Nodes[2]
	runner := &chbench.Runner{Dep: r.dep, Node: home.HW, CPUPerRow: analyticsCPUPerRow, Vector: analyticsVector}
	collect := func(q chbench.Query, follower bool) (string, int, error) {
		// A locking-mode session never qualifies for follower reads, so it
		// is the way to pin a read-only query to the owners.
		mode := cc.Locking
		if follower {
			mode = cc.SnapshotIsolation
		}
		_, _, before, _ := r.c.ReplicationStats()
		sess := r.c.Master.Begin(p, mode, home)
		sess.PreferFollower = follower
		rows, err := exec.Collect(p, q.Plan(sess))
		sess.Abort(p)
		_, _, after, _ := r.c.ReplicationStats()
		return fmt.Sprint(rows), after - before, err
	}
	for _, q := range runner.Queries() {
		onOwner, ownerHits, err := collect(q, false)
		if err != nil {
			return fmt.Errorf("query %s on owners: %w", q.Name, err)
		}
		onFollower, followerHits, err := collect(q, true)
		if err != nil {
			return fmt.Errorf("query %s on followers: %w", q.Name, err)
		}
		if ownerHits != 0 || followerHits == 0 {
			return fmt.Errorf("query %s: owner run made %d follower reads, follower run %d", q.Name, ownerHits, followerHits)
		}
		if onOwner != onFollower {
			return fmt.Errorf("query %s: owner and follower rows differ at the same snapshot", q.Name)
		}
	}
	return nil
}

// verifyKV checks durability and atomicity after the last restart: every
// key reads back the newest acknowledged value, so no acknowledged write is
// lost and no unacknowledged one is visible. The scan runs in locking mode,
// which never qualifies for follower reads: the owners are the authority on
// what is durable (followerGaps looks at the replicas).
func (r *run) verifyKV(p *sim.Proc, h hash.Hash) error {
	kv := r.kv
	s := r.c.Master.Begin(p, cc.Locking, r.c.Nodes[0])
	defer s.Abort(p)
	seen := 0
	var bad error
	err := s.Scan(p, kvTable, nil, nil, func(kb, v []byte) bool {
		h.Write(kb)
		h.Write(v)
		k, _, err := keycodec.DecodeInt64(kb)
		if err != nil {
			bad = err
			return false
		}
		row, err := kv.schema.DecodeRow(v)
		if err != nil {
			bad = fmt.Errorf("key %d: %w", k, err)
			return false
		}
		seen++
		got := row[1].(string)
		switch want := kv.acked[k].val; {
		case got == want:
		case kv.unacked[got]:
			bad = fmt.Errorf("key %d holds %q, a write that was never acknowledged", k, got[:16])
		default:
			bad = fmt.Errorf("key %d holds %q, last acknowledged write is %q", k, got[:16], want[:16])
		}
		return bad == nil
	})
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if bad != nil {
		return bad
	}
	if seen != kv.keys {
		return fmt.Errorf("final scan returned %d keys, %d were loaded", seen, kv.keys)
	}
	return nil
}

// countFollowerGap scans the table through follower replicas and records how
// many keys the scan misses. It is a reported number, not a gate: at the
// commit that added this benchmark the replica a rebuilt node re-seeds after
// the crash / checkpointed-restart / disk-loss sequence lacks every key that
// was never updated, while the owners (verifyKV) hold them all.
func (r *run) countFollowerGap(p *sim.Proc) error {
	s := r.c.Master.Begin(p, cc.SnapshotIsolation, r.c.Nodes[2])
	defer s.Abort(p)
	s.PreferFollower = true
	seen := 0
	if err := s.Scan(p, kvTable, nil, nil, func(_, _ []byte) bool { seen++; return true }); err != nil {
		return fmt.Errorf("follower scan: %w", err)
	}
	r.followerGap = r.kv.keys - seen
	return nil
}
