package table

import (
	"bytes"
	"fmt"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// BulkLoad fills an empty partition from records supplied in strictly
// ascending key order, stamped with commit timestamp ts. Loading bypasses
// the buffer pool and charges no simulation time: it models the state of
// the database *before* the measured experiment begins (data generation is
// not part of any of the paper's measurements).
//
// Physiological partitions are built as a sequence of mini-partitions, each
// a self-contained segment filled to fillFraction; spanning partitions get
// one tree laid out across as many segments as needed.
func (pt *Partition) BulkLoad(p *sim.Proc, fillFraction float64, next func() (key, payload []byte, ok bool)) error {
	if fillFraction <= 0 || fillFraction > 1 {
		fillFraction = 0.7
	}
	if pt.Scheme != Physiological {
		return pt.bulkLoadSpanning(p, fillFraction, next)
	}
	return pt.bulkLoadPhysio(p, fillFraction, next)
}

func (pt *Partition) bulkLoadPhysio(p *sim.Proc, fill float64, next func() (key, payload []byte, ok bool)) error {
	if len(pt.segs) != 0 {
		return fmt.Errorf("table: bulk load into non-empty partition %d", pt.ID)
	}
	var (
		pending    []byte // one look-ahead record
		pendingKey []byte
		exhausted  bool
		prevHigh   = bytes.Clone(pt.Low)
		segBudget  int64
	)
	pull := func() (k, v []byte, ok bool) {
		if pendingKey != nil {
			k, v = pendingKey, pending
			pendingKey, pending = nil, nil
			return k, v, true
		}
		if exhausted {
			return nil, nil, false
		}
		k, v, ok = next()
		if !ok {
			exhausted = true
		}
		return k, v, ok
	}

	for {
		k, v, ok := pull()
		if !ok {
			break
		}
		// Start a new mini-partition.
		seg, err := pt.deps.Factory.NewSegment(p)
		if err != nil {
			return err
		}
		segBudget = int64(float64(int64(seg.Capacity())*int64(seg.PageSize())) * fill)
		h := &SegHandle{
			Seg:   seg,
			Pager: pt.deps.Factory.Pager(seg),
			Low:   prevHigh,
		}
		mem := btree.MemPager{Seg: seg}
		h.Tree = btree.New(mem, 0, func(no storage.PageNo) { seg.TreeRoot = no })
		var used int64
		firstRecord := true
		err = h.Tree.BulkLoad(p, 0.95, func() ([]byte, []byte, bool) {
			if !firstRecord {
				var ok bool
				k, v, ok = pull()
				if !ok {
					return nil, nil, false
				}
			}
			firstRecord = false
			cell := int64(len(k) + len(v) + 15)
			if used+cell > segBudget && used > 0 {
				// Segment full: push the record back for the next one.
				pendingKey, pending = k, v
				return nil, nil, false
			}
			used += cell
			return k, v, true
		})
		if err != nil {
			return err
		}
		// Determine the boundary: the next record's key (already pulled
		// back) or the partition bound.
		if pendingKey != nil {
			h.High = bytes.Clone(pendingKey)
		} else {
			h.High = bytes.Clone(pt.High)
		}
		seg.LowKey, seg.HighKey = h.Low, h.High
		// Re-wire the tree onto the runtime (buffered) pager.
		h.Tree = btree.New(h.Pager, seg.TreeRoot, func(no storage.PageNo) { seg.TreeRoot = no })
		h.Tree.Serialize(pt.deps.Env)
		pt.segs = append(pt.segs, h)
		prevHigh = h.High
	}
	return nil
}

func (pt *Partition) bulkLoadSpanning(p *sim.Proc, fill float64, next func() (key, payload []byte, ok bool)) error {
	if len(pt.segs) != 0 {
		return fmt.Errorf("table: bulk load into non-empty partition %d", pt.ID)
	}
	builder := btree.New(&spanningPager{pt: pt, direct: true}, 0, nil)
	if err := builder.BulkLoad(p, fill, next); err != nil {
		return err
	}
	// Hand the loaded tree over to the runtime pager.
	pt.span = btree.New(&spanningPager{pt: pt}, builder.Root(), nil)
	pt.span.Serialize(pt.deps.Env)
	return nil
}

// EncodeLoadValue builds the tree value bulk loaders should supply: a
// committed version at ts with the given payload.
func EncodeLoadValue(ts cc.Timestamp, payload []byte) []byte {
	return EncodeValue(cc.Version{TS: ts, Val: payload})
}
