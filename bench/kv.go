package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

const kvTable = "kv"

// kvState is the KV workload's table plus the oracle its durability check
// reads: the newest acknowledged value of every key, by commit timestamp.
type kvState struct {
	schema *table.Schema
	keys   int
	acked  map[int64]kvVersion
	// unacked holds every value a transaction tried to write and was not
	// acknowledged for: none may be readable after the last restart.
	unacked map[string]bool
}

type kvVersion struct {
	ts  cc.Timestamp
	val string
}

func newKV(c *cluster.Cluster, keys int) (*kvState, error) {
	kv := &kvState{
		schema: &table.Schema{ID: 1, Name: kvTable, KeyCols: 1,
			Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}}},
		keys:    keys,
		acked:   make(map[int64]kvVersion, keys),
		unacked: map[string]bool{},
	}
	mid := keycodec.Int64Key(int64(keys / 2))
	_, err := c.Master.CreateTable(kv.schema, table.Physiological, []cluster.RangeSpec{
		{Low: nil, High: mid, Owner: c.Nodes[0]},
		{Low: mid, High: nil, Owner: c.Nodes[1]},
	})
	return kv, err
}

// kvValue is a unique, fixed-size value: writer, sequence number, padding.
func kvValue(writer string, seq int) string {
	v := fmt.Sprintf("%s.%08d.", writer, seq)
	return v + strings.Repeat("x", kvValueBytes-len(v))
}

func (kv *kvState) load(p *sim.Proc, m *cluster.Master) error {
	i := 0
	return m.BulkLoad(p, kvTable, func() ([]byte, []byte, bool) {
		if i >= kv.keys {
			return nil, nil, false
		}
		k := int64(i)
		val := kvValue("init", i)
		payload, err := kv.schema.EncodeRow(table.Row{k, val})
		if err != nil {
			panic(err) // the schema above always encodes (int64, string)
		}
		kv.acked[k] = kvVersion{val: val}
		i++
		return keycodec.Int64Key(k), payload, true
	})
}

// kvQueueLimit is how long a request may wait for its connection before the
// client gives up on it. It is ten intervals: far above any healthy service
// time, far below an outage.
const kvQueueLimit = 200 * time.Millisecond

// spawnKVWorker runs one open-loop worker — a connection on which a request
// is due every Interval whether or not the previous one finished, timed from
// when it was due. A request still waiting for its connection kvQueueLimit
// after it was due is refused and counts as failed: a stall (a commit parked
// across an outage holds its connection for the whole restart) is charged
// as unavailability, not as a 12 s backlog whose catch-up phase would put
// half the run's requests, and every percentile, in the tail. Mix: 50 %
// single-key read, 40 % single-key update, 10 % two-key update spanning both
// partitions (2PC).
func (r *run) spawnKVWorker(w int) {
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(w)))
	kv := r.kv
	writer := fmt.Sprintf("w%02d", w)
	seq := 0
	r.env.Spawn(fmt.Sprintf("kv-worker-%d", w), func(p *sim.Proc) {
		// Workers are phase-shifted evenly across one interval.
		due := time.Duration(w) * r.spec.Interval / time.Duration(r.spec.Clients)
		for ; !r.stop; due += r.spec.Interval {
			if wait := due - p.Now(); wait > 0 {
				p.Sleep(wait)
			} else if -wait > kvQueueLimit {
				r.txns = append(r.txns, txnRec{start: due, end: p.Now(), num: noTxn})
				continue
			}
			kind := rng.Intn(10)
			half := int64(kv.keys / 2)
			k1 := rng.Int63n(half)        // node 0's partition
			k2 := half + rng.Int63n(half) // node 1's partition
			var keys []int64
			switch {
			case kind < 9 && rng.Intn(2) == 0:
				keys = []int64{k1}
			case kind < 9:
				keys = []int64{k2}
			default:
				keys = []int64{k1, k2}
			}
			var vals []string
			rec := r.transact(p, rng, due, r.kvHome(keys[0]), len(keys) == 2, func(sess *cluster.Session) error {
				vals = vals[:0]
				for _, k := range keys {
					key := keycodec.Int64Key(k)
					if kind < 5 {
						_, _, err := sess.Get(p, kvTable, key)
						if err != nil {
							return err
						}
						continue
					}
					seq++
					val := kvValue(writer, seq)
					vals = append(vals, val)
					payload, err := kv.schema.EncodeRow(table.Row{k, val})
					if err != nil {
						return err
					}
					kv.unacked[val] = true
					if err := sess.Put(p, kvTable, key, payload); err != nil {
						return err
					}
				}
				return nil
			})
			if rec.committed {
				ts := rec.commitTS
				for i, val := range vals {
					delete(kv.unacked, val)
					if cur := kv.acked[keys[i]]; ts >= cur.ts {
						kv.acked[keys[i]] = kvVersion{ts: ts, val: val}
					}
				}
			}
		}
	})
}

// kvHome is where a KV transaction executes: the owner of its first key, or
// — while that node is down — the lowest-numbered live node, so requests
// keep arriving during an outage and are refused rather than withheld.
func (r *run) kvHome(k int64) *cluster.DataNode {
	owner := r.c.Nodes[0]
	if k >= int64(r.kv.keys/2) {
		owner = r.c.Nodes[1]
	}
	if !owner.Down() {
		return owner
	}
	for _, n := range r.c.Nodes {
		if !n.Down() {
			return n
		}
	}
	return owner
}
