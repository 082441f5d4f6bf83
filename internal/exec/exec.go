// Package exec implements WattDB's vectorised volcano-style query operators
// (Sect. 3.3): table scans, pipelining operators (projection, filter),
// blocking operators (sort, group/aggregate), a remote exchange that ships
// record batches between nodes, and the asynchronous buffering operator
// that hides network latency during distributed execution.
//
// Every operator runs "on" a node: its CPU work is charged there. Batches
// flow between operators as columnar *table.Batch values; when a plan edge
// crosses nodes, a Remote operator pays the network cost per next() call —
// which is exactly the effect Fig. 1 of the paper quantifies for
// single-record vs vectorised protocols.
package exec

import (
	"fmt"
	"sort"
	"time"

	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// Operator is the volcano iterator interface. Next returns a columnar batch
// of rows (nil = exhausted). Classic single-record operators use batch size
// 1; vectorised operators return up to their configured vector size.
//
// Batch ownership: the *table.Batch returned by Next is only valid until
// the following Next or Close call on that operator — every operator
// refills a privately owned batch (or reuses its child's) across calls.
// Until then the batch belongs to the consumer, which may read it through
// the typed column accessors and may also mutate it in place (Filter
// compacts passing rows to the front, Limit truncates); producers must not
// assume a returned batch comes back intact. An operator that holds batches
// across Next calls (e.g. the asynchronous Buffer) must take a deep copy
// with Batch.CopyFrom. Strings read via Batch.Bytes alias the batch's arena
// and follow the same lifetime.
//
// Parallel lifetimes: operators that run producers concurrently (Buffer,
// Exchange) deep-copy every batch into a recycled free list before it
// crosses the process boundary, so a worker's reused batch never escapes
// its producing process; the consumer-side batch stays valid until the
// merging operator's following Next, exactly like the single-stream
// contract. Close must be safe to call even when Open failed partway
// through the tree (Drain/Collect always close the plan), so operators
// guard their Close against unopened state.
type Operator interface {
	Open(p *sim.Proc) error
	Next(p *sim.Proc) (*table.Batch, error)
	Close(p *sim.Proc)
}

// TableScan reads a partition's visible records in key order, decoding rows
// columnarly into a reused batch of up to Vector rows. Each batch restarts
// the range scan after the last delivered key, so the operator needs no
// long-lived cursor state across blocking points.
type TableScan struct {
	Part   *table.Partition
	Txn    *cc.Txn
	Lo, Hi []byte
	Vector int

	last      []byte
	loBuf     []byte
	batch     *table.Batch
	emit      func(k, payload []byte) bool
	decodeErr error
	started   bool
	done      bool
}

// Open resets the scan.
func (s *TableScan) Open(p *sim.Proc) error {
	if s.Vector <= 0 {
		s.Vector = 1
	}
	if s.batch == nil {
		s.batch = table.NewBatch(s.Part.Schema)
		// One closure for the operator's lifetime: Next stays allocation-free.
		s.emit = func(k, payload []byte) bool {
			if err := s.Part.Schema.AppendDecoded(s.batch, payload); err != nil {
				s.decodeErr = err
				return false
			}
			s.last = append(s.last[:0], k...)
			s.started = true
			return s.batch.Len() < s.Vector
		}
	}
	s.last, s.started, s.done = s.last[:0], false, false
	return nil
}

// Next returns the next batch. The partition scan underneath runs on the
// B*-tree's batched cursor (leaf-at-a-time fetches); the returned batch is
// reused across calls per the Operator contract.
func (s *TableScan) Next(p *sim.Proc) (*table.Batch, error) {
	if s.done {
		return nil, nil
	}
	lo := s.Lo
	if s.started {
		// Resume strictly after the last delivered key.
		s.loBuf = append(append(s.loBuf[:0], s.last...), 0)
		lo = s.loBuf
	}
	s.batch.Reset()
	s.decodeErr = nil
	err := s.Part.Scan(p, s.Txn, lo, s.Hi, s.emit)
	if err == nil {
		err = s.decodeErr
	}
	if err != nil {
		return nil, err
	}
	if s.batch.Len() == 0 {
		s.done = true
		return nil, nil
	}
	if s.batch.Len() < s.Vector {
		s.done = true
	}
	return s.batch, nil
}

// Close releases the scan.
func (s *TableScan) Close(p *sim.Proc) {}

// Project is a pipelining operator emitting a column subset of its child's
// batches; per-record CPU is charged on Node. Its output batches carry a
// derived schema holding just the projected columns.
type Project struct {
	Child     Operator
	Node      *hw.Node
	Cols      []int
	CPUPerRow time.Duration

	out *table.Batch
}

// Open opens the child.
func (o *Project) Open(p *sim.Proc) error { return o.Child.Open(p) }

// Next projects the child's next batch with column-vector copies into a
// reused output batch (Operator contract).
func (o *Project) Next(p *sim.Proc) (*table.Batch, error) {
	batch, err := o.Child.Next(p)
	if err != nil || batch == nil {
		return nil, err
	}
	o.Node.Compute(p, time.Duration(batch.Len())*o.CPUPerRow)
	if o.out == nil {
		schema, err := projectedSchema(batch.Schema, o.Cols)
		if err != nil {
			return nil, err
		}
		o.out = table.NewBatch(schema)
	}
	o.out.Reset()
	o.out.AppendColumns(batch, o.Cols)
	return o.out, nil
}

// Close closes the child.
func (o *Project) Close(p *sim.Proc) { o.Child.Close(p) }

// projectedSchema derives the output schema of a projection.
func projectedSchema(src *table.Schema, cols []int) (*table.Schema, error) {
	out := &table.Schema{Name: src.Name + ".project", KeyCols: 1}
	for _, c := range cols {
		if c < 0 || c >= len(src.Columns) {
			return nil, fmt.Errorf("exec: project column %d out of range", c)
		}
		out.Columns = append(out.Columns, src.Columns[c])
	}
	return out, nil
}

// Filter is a pipelining operator keeping rows for which Pred returns true.
// Pred receives the batch and a row index and reads columns through the
// typed accessors.
type Filter struct {
	Child     Operator
	Node      *hw.Node
	Pred      func(b *table.Batch, i int) bool
	CPUPerRow time.Duration
}

// Open opens the child.
func (o *Filter) Open(p *sim.Proc) error { return o.Child.Open(p) }

// Next returns the next non-empty filtered batch: passing rows are
// compacted to the front of the child's batch in place (the contract lets a
// consumer mutate the batch it was handed).
func (o *Filter) Next(p *sim.Proc) (*table.Batch, error) {
	for {
		batch, err := o.Child.Next(p)
		if err != nil || batch == nil {
			return nil, err
		}
		o.Node.Compute(p, time.Duration(batch.Len())*o.CPUPerRow)
		w := 0
		for i := 0; i < batch.Len(); i++ {
			if o.Pred(batch, i) {
				if w != i {
					batch.MoveRow(w, i)
				}
				w++
			}
		}
		if w > 0 {
			batch.Truncate(w)
			return batch, nil
		}
	}
}

// Close closes the child.
func (o *Filter) Close(p *sim.Proc) { o.Child.Close(p) }

// Sort is a blocking operator: Open drains the child into one accumulated
// batch, sorts a row permutation with Less, and Next streams the result in
// Vector-sized batches. Sorting costs CPUPerRow·n·ceil(log2 n) on Node —
// blocking operators "generally consume more resources and are therefore
// good candidates for offloading".
type Sort struct {
	Child     Operator
	Node      *hw.Node
	Less      func(b *table.Batch, i, j int) bool
	CPUPerRow time.Duration
	Vector    int

	// OrderBy declares the output ordering Less establishes, as ascending
	// column indexes. Less stays the authority on comparison; OrderBy is the
	// plan-level metadata order-sensitive consumers (MergeJoin) assert
	// against via OrderingOf. Leave nil when Less encodes an ordering that
	// column indexes cannot express (the output is then treated as
	// unordered).
	OrderBy []int

	// Workspace, when set, is the node's shared sort memory (in bytes).
	// A sort that cannot reserve its input size spills: it runs an
	// external merge sort on SpillDisk whose pass count grows with memory
	// oversubscription (each concurrent sort gets a smaller share, so runs
	// are shorter and more merge passes are needed). This work
	// amplification is what makes heavily concurrent sort queries degrade
	// — the paper's "queries compete for CPU and buffer" (Fig. 2).
	Workspace *sim.Resource
	SpillDisk *hw.Disk
	// Group tracks concurrently open sorts sharing the workspace.
	Group *SortGroup

	acc      *table.Batch
	perm     []int
	out      *table.Batch
	pos      int
	reserved int64
	inGroup  bool
}

// SortGroup counts concurrently active sorts on a node.
type SortGroup struct{ Active int }

// Open drains and sorts the child's output.
func (o *Sort) Open(p *sim.Proc) error {
	if o.Vector <= 0 {
		o.Vector = 1
	}
	if err := o.Child.Open(p); err != nil {
		return err
	}
	o.pos = 0
	o.perm = o.perm[:0]
	if o.acc != nil {
		o.acc.Reset()
	}
	for {
		batch, err := o.Child.Next(p)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		if o.acc == nil {
			o.acc = table.NewBatch(batch.Schema)
			o.out = table.NewBatch(batch.Schema)
		}
		o.acc.AppendBatch(batch)
	}
	if o.acc == nil {
		return nil
	}
	n := o.acc.Len()
	for i := 0; i < n; i++ {
		o.perm = append(o.perm, i)
	}
	if n > 1 {
		if o.Group != nil {
			o.Group.Active++
			o.inGroup = true
		}
		if o.Workspace != nil {
			need := o.acc.WireBytes()
			capped := need
			if capped > o.Workspace.Capacity() {
				capped = o.Workspace.Capacity()
			}
			if o.Workspace.TryAcquire(capped) {
				o.reserved = capped
			} else if o.SpillDisk != nil {
				// External merge sort: the per-sort memory share shrinks
				// with concurrency, so the number of read+write passes
				// over the input grows with oversubscription.
				passes := int64(1)
				if o.Group != nil && o.Group.Active > 0 {
					demand := need * int64(o.Group.Active)
					passes = (demand + o.Workspace.Capacity() - 1) / o.Workspace.Capacity()
					if passes < 1 {
						passes = 1
					}
					if passes > 8 {
						passes = 8
					}
				}
				for i := int64(0); i < passes; i++ {
					o.SpillDisk.Write(p, need)
					o.SpillDisk.Read(p, need)
				}
			}
		}
		levels := 1
		for v := n; v > 1; v >>= 1 {
			levels++
		}
		o.Node.Compute(p, time.Duration(n*levels)*o.CPUPerRow)
		sort.SliceStable(o.perm, func(i, j int) bool { return o.Less(o.acc, o.perm[i], o.perm[j]) })
	}
	return nil
}

// Next streams the sorted rows in permutation order through a reused output
// batch.
func (o *Sort) Next(p *sim.Proc) (*table.Batch, error) {
	if o.acc == nil || o.pos >= len(o.perm) {
		return nil, nil
	}
	end := o.pos + o.Vector
	if end > len(o.perm) {
		end = len(o.perm)
	}
	o.out.Reset()
	for _, idx := range o.perm[o.pos:end] {
		o.out.AppendFrom(o.acc, idx)
	}
	o.pos = end
	return o.out, nil
}

// Close releases the buffered rows and any reserved workspace.
func (o *Sort) Close(p *sim.Proc) {
	if o.reserved > 0 {
		o.Workspace.Release(o.reserved)
		o.reserved = 0
	}
	if o.inGroup {
		o.Group.Active--
		o.inGroup = false
	}
	if o.acc != nil {
		o.acc.Reset()
	}
	o.perm = o.perm[:0]
	o.Child.Close(p)
}

// GroupAgg is a blocking hash aggregation: COUNT(*) and SUM(SumCol) per
// distinct GroupCol value, emitted as batches over the derived schema
// [group, count int64, sum float64]. The hash table is typed by the group
// column (no interface-keyed map on the aggregation path). Like Sort and
// HashJoin it re-opens warm: the group batches, the derived schema and the
// index maps keep their storage across Opens while the child's first batch
// carries the same schema. The output schema follows that first batch, as
// an exchange's workers may each hand up a schema of their own.
type GroupAgg struct {
	Child     Operator
	Node      *hw.Node
	GroupCol  int
	SumCol    int // -1: count only
	CPUPerRow time.Duration
	Vector    int

	in     *table.Schema // the child schema groups was derived from
	groups *table.Batch
	out    *table.Batch
	pos    int
	intIdx map[int64]int
	strIdx map[string]int
	fltIdx map[float64]int
}

// Open drains the child and builds the hash table. Group rows accumulate
// directly in the output-ordered groups batch (first-seen order).
func (o *GroupAgg) Open(p *sim.Proc) error {
	if o.Vector <= 0 {
		o.Vector = 1
	}
	if err := o.Child.Open(p); err != nil {
		return err
	}
	o.pos = 0
	if o.groups != nil {
		o.groups.Reset()
	}
	clear(o.intIdx)
	clear(o.strIdx)
	clear(o.fltIdx)
	for first := true; ; first = false {
		batch, err := o.Child.Next(p)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		o.Node.Compute(p, time.Duration(batch.Len())*o.CPUPerRow)
		if first && batch.Schema != o.in {
			o.derive(batch.Schema)
		}
		gtype := batch.Schema.Columns[o.GroupCol].Type
		for i := 0; i < batch.Len(); i++ {
			var idx int
			var seen bool
			switch gtype {
			case table.ColInt64:
				idx, seen = o.intIdx[batch.Int(o.GroupCol, i)]
			case table.ColString:
				idx, seen = o.strIdx[string(batch.Bytes(o.GroupCol, i))]
			case table.ColFloat64:
				idx, seen = o.fltIdx[batch.Float(o.GroupCol, i)]
			}
			if !seen {
				idx = o.groups.Len()
				o.groups.AppendZero()
				switch gtype {
				case table.ColInt64:
					v := batch.Int(o.GroupCol, i)
					o.intIdx[v] = idx
					o.groups.SetInt(0, idx, v)
				case table.ColString:
					v := batch.Bytes(o.GroupCol, i)
					o.strIdx[string(v)] = idx
					o.groups.SetBytes(0, idx, v)
				case table.ColFloat64:
					v := batch.Float(o.GroupCol, i)
					o.fltIdx[v] = idx
					o.groups.SetFloat(0, idx, v)
				}
			}
			o.groups.SetInt(1, idx, o.groups.Int(1, idx)+1)
			if o.SumCol >= 0 {
				switch batch.Schema.Columns[o.SumCol].Type {
				case table.ColInt64:
					o.groups.SetFloat(2, idx, o.groups.Float(2, idx)+float64(batch.Int(o.SumCol, i)))
				case table.ColFloat64:
					o.groups.SetFloat(2, idx, o.groups.Float(2, idx)+batch.Float(o.SumCol, i))
				}
			}
		}
	}
	return nil
}

// derive binds the group batches to the [group, count, sum] schema over
// child schema in.
func (o *GroupAgg) derive(in *table.Schema) {
	gcol := in.Columns[o.GroupCol]
	schema := &table.Schema{
		Name:    in.Name + ".group",
		KeyCols: 1,
		Columns: []table.Column{
			{Name: gcol.Name, Type: gcol.Type},
			{Name: "count", Type: table.ColInt64},
			{Name: "sum", Type: table.ColFloat64},
		},
	}
	if o.groups == nil {
		o.groups, o.out = table.NewBatch(schema), table.NewBatch(schema)
	} else {
		o.groups.Init(schema)
		o.out.Init(schema)
	}
	o.in = in
	switch gcol.Type {
	case table.ColInt64:
		if o.intIdx == nil {
			o.intIdx = make(map[int64]int)
		}
	case table.ColString:
		if o.strIdx == nil {
			o.strIdx = make(map[string]int)
		}
	case table.ColFloat64:
		if o.fltIdx == nil {
			o.fltIdx = make(map[float64]int)
		}
	}
}

// Next streams the aggregated groups.
func (o *GroupAgg) Next(p *sim.Proc) (*table.Batch, error) {
	if o.groups == nil || o.pos >= o.groups.Len() {
		return nil, nil
	}
	end := o.pos + o.Vector
	if end > o.groups.Len() {
		end = o.groups.Len()
	}
	o.out.Reset()
	for i := o.pos; i < end; i++ {
		o.out.AppendFrom(o.groups, i)
	}
	o.pos = end
	return o.out, nil
}

// Close releases the groups, keeping their storage for the next Open.
func (o *GroupAgg) Close(p *sim.Proc) {
	if o.groups != nil {
		o.groups.Reset()
	}
	o.Child.Close(p)
}

// Limit stops after N rows.
type Limit struct {
	Child Operator
	N     int
	seen  int
}

// Open opens the child.
func (o *Limit) Open(p *sim.Proc) error { o.seen = 0; return o.Child.Open(p) }

// Next truncates the child's output at N rows (in place, per the batch
// ownership contract).
func (o *Limit) Next(p *sim.Proc) (*table.Batch, error) {
	if o.seen >= o.N {
		return nil, nil
	}
	batch, err := o.Child.Next(p)
	if err != nil || batch == nil {
		return nil, err
	}
	if o.seen+batch.Len() > o.N {
		batch.Truncate(o.N - o.seen)
	}
	o.seen += batch.Len()
	return batch, nil
}

// Close closes the child.
func (o *Limit) Close(p *sim.Proc) { o.Child.Close(p) }

// Drain runs a plan to exhaustion, returning the total row count. It is the
// query's result sink. The plan is closed even when Open fails: a partially
// opened tree may already hold pooled batches or a spawned prefetcher, and
// every operator's Close is safe on unopened state.
func Drain(p *sim.Proc, op Operator) (int, error) {
	defer op.Close(p)
	if err := op.Open(p); err != nil {
		return 0, err
	}
	n := 0
	for {
		batch, err := op.Next(p)
		if err != nil {
			return n, err
		}
		if batch == nil {
			return n, nil
		}
		n += batch.Len()
	}
}

// Collect runs a plan to exhaustion and returns all rows boxed (testing
// helper). Like Drain, it closes the plan even when Open fails.
func Collect(p *sim.Proc, op Operator) ([]table.Row, error) {
	defer op.Close(p)
	if err := op.Open(p); err != nil {
		return nil, err
	}
	var rows []table.Row
	for {
		batch, err := op.Next(p)
		if err != nil {
			return rows, err
		}
		if batch == nil {
			return rows, nil
		}
		for i := 0; i < batch.Len(); i++ {
			rows = append(rows, batch.Row(i))
		}
	}
}
