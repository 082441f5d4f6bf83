package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wattdb/internal/cc"
)

// version is one committed state of a key in the oracle's model.
type version struct {
	ts      cc.Timestamp
	val     string
	deleted bool
}

// kvWrite is one write of an acknowledged transaction.
type kvWrite struct {
	key     int64
	val     string
	deleted bool
}

// oracle is the harness's in-memory model of the database: the full
// committed version history of every key, keyed by the engine's own commit
// timestamps. It is maintained outside the engine (applied the instant a
// commit is acknowledged, before the acknowledging process can block), so
// any divergence between a read and the model is an engine bug, not a
// bookkeeping race.
type oracle struct {
	hist map[int64][]version // ascending commit timestamp
}

func newOracle() *oracle {
	return &oracle{hist: make(map[int64][]version)}
}

// load records the initial bulk-loaded value of a key (commit timestamp 1,
// matching table.EncodeLoadValue).
func (o *oracle) load(key int64, val string) {
	o.hist[key] = append(o.hist[key], version{ts: 1, val: val})
}

// commit applies an acknowledged transaction's writes at its engine-issued
// commit timestamp. Acknowledgments can arrive out of timestamp order (a
// distributed commit acquires its timestamp, then spends I/O installing on
// every participant before acking, while a later-stamped single-node commit
// acks immediately), so versions are inserted in timestamp order.
func (o *oracle) commit(ts cc.Timestamp, writes []kvWrite) {
	for _, w := range writes {
		hs := o.hist[w.key]
		i := len(hs)
		for i > 0 && hs[i-1].ts > ts {
			i--
		}
		hs = append(hs, version{})
		copy(hs[i+1:], hs[i:])
		hs[i] = version{ts: ts, val: w.val, deleted: w.deleted}
		o.hist[w.key] = hs
	}
}

// at returns the version of key visible to a snapshot-isolation reader with
// begin timestamp snap: the newest version with ts <= snap. ok reports
// whether such a version exists and is not a tombstone.
func (o *oracle) at(key int64, snap cc.Timestamp) (version, bool) {
	hs := o.hist[key]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].ts <= snap {
			return hs[i], !hs[i].deleted
		}
	}
	return version{}, false
}

// liveKeys returns the keys whose newest version is not a tombstone, in
// ascending order.
func (o *oracle) liveKeys() []int64 {
	out := make([]int64, 0, len(o.hist))
	for k, hs := range o.hist {
		if len(hs) > 0 && !hs[len(hs)-1].deleted {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// current returns the newest value of key (ok=false if deleted or absent).
func (o *oracle) current(key int64) (string, bool) {
	hs := o.hist[key]
	if len(hs) == 0 || hs[len(hs)-1].deleted {
		return "", false
	}
	return hs[len(hs)-1].val, true
}

// readObs is one point-read observation: what a transaction with snapshot
// snap saw for key. Observations are validated against the oracle at the
// end of the run, when the full commit history is known.
type readObs struct {
	at   time.Duration
	snap cc.Timestamp
	key  int64
	val  string
	ok   bool
}

// scanObs is one completed range-scan observation.
type scanObs struct {
	at     time.Duration
	snap   cc.Timestamp
	lo, hi int64 // [lo, hi)
	keys   []int64
	vals   []string
}

// tsOf locates the commit timestamp of an observed value in a key's
// history (0 if the value was never acknowledged — an atomicity breach).
func (o *oracle) tsOf(key int64, val string) cc.Timestamp {
	for _, v := range o.hist[key] {
		if v.val == val && !v.deleted {
			return v.ts
		}
	}
	return 0
}

// lostUpdates checks every read-modify-write version in the history (a value
// with a '<', readModifyWrite): the version it names must be the one right
// below it, or no update between its read and its commit survives.
func (o *oracle) lostUpdates(violate func(string)) {
	keys := make([]int64, 0, len(o.hist))
	for k := range o.hist {
		keys = append(keys, k)
	}
	sortInt64s(keys)
	for _, k := range keys {
		hs := o.hist[k]
		for i, v := range hs {
			at := strings.IndexByte(v.val, '<')
			if v.deleted || at < 0 {
				continue
			}
			want := "-"
			if i > 0 {
				want = rmwPrev(hs[i-1].val, !hs[i-1].deleted)
			}
			if got := v.val[at+1:]; got != want {
				violate(fmt.Sprintf("lost update: key %d version %q (ts %d) read %q, but the version below it is %q (ts %d)",
					k, v.val, v.ts, got, want, hs[max(i-1, 0)].ts))
			}
		}
	}
}

// validateReads checks every recorded observation against the oracle and
// reports each divergence through violate.
func validateReads(o *oracle, reads []readObs, scans []scanObs, violate func(string)) {
	for _, r := range reads {
		want, ok := o.at(r.key, r.snap)
		if ok != r.ok {
			violate(fmt.Sprintf("read@%v key %d snap %d: visible=%v, oracle says %v",
				r.at, r.key, r.snap, r.ok, ok))
			continue
		}
		if ok && r.val != want.val {
			violate(fmt.Sprintf("read@%v key %d snap %d: saw %q (ts %d), oracle says %q (ts %d)",
				r.at, r.key, r.snap, r.val, o.tsOf(r.key, r.val), want.val, want.ts))
		}
	}
	for _, s := range scans {
		got := make(map[int64]string, len(s.keys))
		for i, k := range s.keys {
			if _, dup := got[k]; dup {
				violate(fmt.Sprintf("scan@%v [%d,%d) snap %d: key %d returned twice (doubly owned)",
					s.at, s.lo, s.hi, s.snap, k))
			}
			got[k] = s.vals[i]
		}
		for k := s.lo; k < s.hi; k++ {
			want, ok := o.at(k, s.snap)
			val, seen := got[k]
			if ok != seen {
				violate(fmt.Sprintf("scan@%v [%d,%d) snap %d: key %d present=%v, oracle says %v",
					s.at, s.lo, s.hi, s.snap, k, seen, ok))
				continue
			}
			if ok && val != want.val {
				violate(fmt.Sprintf("scan@%v [%d,%d) snap %d: key %d = %q (ts %d), oracle says %q (ts %d)",
					s.at, s.lo, s.hi, s.snap, k, val, o.tsOf(k, val), want.val, want.ts))
			}
		}
		// Iterate the recorded order, not the map: the violation list (and
		// its cap) must be identical across reruns of the same seed.
		for _, k := range s.keys {
			if k < s.lo || k >= s.hi {
				violate(fmt.Sprintf("scan@%v [%d,%d) snap %d: key %d outside requested range",
					s.at, s.lo, s.hi, s.snap, k))
			}
		}
	}
}
