package table

import (
	"encoding/binary"
	"fmt"
	"math"

	"wattdb/internal/keycodec"
)

// Batch is a columnar batch of rows: one typed vector per schema column
// (int64 and float64 columns are plain slices; string columns store
// [start, end) offset pairs into a byte arena shared by all string columns
// of the batch). The representation exists so the executor can decode,
// filter, project, and ship records without boxing column values into
// interfaces — a warm Batch is refilled with zero allocations.
//
// A Batch is bound to its Schema by Init (or the first AppendDecoded /
// AppendRow through NewBatch). All accessors take (column, row) positions;
// they do not bounds-check beyond what slice indexing provides.
type Batch struct {
	Schema *Schema

	n     int
	cols  []colVec
	arena []byte
}

// colVec is one column's storage; exactly one field is used, selected by
// the column's type. Strings store 2 offsets per row: arena[off[2i]:off[2i+1]].
type colVec struct {
	ints   []int64
	floats []float64
	off    []uint32
}

// NewBatch returns an empty batch bound to s.
func NewBatch(s *Schema) *Batch {
	b := &Batch{}
	b.Init(s)
	return b
}

// Init binds b to s, resetting any previous contents. Rebinding to the same
// schema keeps the column vectors' capacity.
func (b *Batch) Init(s *Schema) {
	if b.Schema == s && b.cols != nil {
		b.Reset()
		return
	}
	b.Schema = s
	if cap(b.cols) >= len(s.Columns) {
		b.cols = b.cols[:len(s.Columns)]
		for i := range b.cols {
			b.cols[i] = colVec{}
		}
	} else {
		b.cols = make([]colVec, len(s.Columns))
	}
	b.n = 0
	b.arena = b.arena[:0]
}

// Reset empties the batch, keeping all backing storage for reuse.
func (b *Batch) Reset() {
	for i := range b.cols {
		c := &b.cols[i]
		c.ints = c.ints[:0]
		c.floats = c.floats[:0]
		c.off = c.off[:0]
	}
	b.n = 0
	b.arena = b.arena[:0]
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Int returns column col of row i (column type must be ColInt64).
func (b *Batch) Int(col, i int) int64 { return b.cols[col].ints[i] }

// SetInt overwrites column col of row i.
func (b *Batch) SetInt(col, i int, v int64) { b.cols[col].ints[i] = v }

// AppendZero appends a row of zero values (0, 0.0 and empty strings), for a
// caller that fills it in with the setters.
func (b *Batch) AppendZero() {
	for c := range b.Schema.Columns {
		v := &b.cols[c]
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			v.ints = append(v.ints, 0)
		case ColFloat64:
			v.floats = append(v.floats, 0)
		case ColString:
			end := uint32(len(b.arena))
			v.off = append(v.off, end, end)
		}
	}
	b.n++
}

// SetBytes overwrites string column col of row i with a copy of s. The copy
// goes to the end of the arena; the bytes it replaces are reclaimed at the
// next Reset.
func (b *Batch) SetBytes(col, i int, s []byte) {
	start := uint32(len(b.arena))
	b.arena = append(b.arena, s...)
	off := b.cols[col].off
	off[2*i], off[2*i+1] = start, uint32(len(b.arena))
}

// Float returns column col of row i (column type must be ColFloat64).
func (b *Batch) Float(col, i int) float64 { return b.cols[col].floats[i] }

// SetFloat overwrites column col of row i.
func (b *Batch) SetFloat(col, i int, v float64) { b.cols[col].floats[i] = v }

// Bytes returns the string bytes of column col, row i, aliasing the batch's
// arena: valid until the batch is reset or reused.
func (b *Batch) Bytes(col, i int) []byte {
	off := b.cols[col].off
	return b.arena[off[2*i]:off[2*i+1]]
}

// String returns column col of row i as a string (copies the bytes).
func (b *Batch) String(col, i int) string { return string(b.Bytes(col, i)) }

// Value returns column col of row i boxed into an interface (allocates for
// most values; columnar consumers should prefer the typed accessors).
func (b *Batch) Value(col, i int) any {
	switch b.Schema.Columns[col].Type {
	case ColInt64:
		return b.Int(col, i)
	case ColFloat64:
		return b.Float(col, i)
	default:
		return b.String(col, i)
	}
}

// Row materialises row i as a boxed Row (compatibility path; allocates).
func (b *Batch) Row(i int) Row {
	row := make(Row, len(b.Schema.Columns))
	for c := range b.Schema.Columns {
		row[c] = b.Value(c, i)
	}
	return row
}

// AppendRow appends a boxed Row, type-checking each value against the
// schema.
func (b *Batch) AppendRow(row Row) error {
	s := b.Schema
	if len(row) != len(s.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", s.Name, len(row), len(s.Columns))
	}
	arenaLen := len(b.arena)
	for c := range s.Columns {
		col := &s.Columns[c]
		v := &b.cols[c]
		switch col.Type {
		case ColInt64:
			iv, ok := row[c].(int64)
			if !ok {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: col %s: want int64, got %T", s.Name, col.Name, row[c])
			}
			v.ints = append(v.ints, iv)
		case ColFloat64:
			fv, ok := row[c].(float64)
			if !ok {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: col %s: want float64, got %T", s.Name, col.Name, row[c])
			}
			v.floats = append(v.floats, fv)
		case ColString:
			sv, ok := row[c].(string)
			if !ok {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: col %s: want string, got %T", s.Name, col.Name, row[c])
			}
			start := uint32(len(b.arena))
			b.arena = append(b.arena, sv...)
			v.off = append(v.off, start, uint32(len(b.arena)))
		}
	}
	b.n++
	return nil
}

// rollback truncates partially appended column vectors back to the batch's
// committed row count after a failed append.
func (b *Batch) rollback(arenaLen int) {
	for c := range b.cols {
		v := &b.cols[c]
		if len(v.ints) > b.n {
			v.ints = v.ints[:b.n]
		}
		if len(v.floats) > b.n {
			v.floats = v.floats[:b.n]
		}
		if len(v.off) > 2*b.n {
			v.off = v.off[:2*b.n]
		}
	}
	b.arena = b.arena[:arenaLen]
}

// AppendFrom appends row i of src (same schema) to b.
func (b *Batch) AppendFrom(src *Batch, i int) {
	for c := range b.Schema.Columns {
		dv, sv := &b.cols[c], &src.cols[c]
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			dv.ints = append(dv.ints, sv.ints[i])
		case ColFloat64:
			dv.floats = append(dv.floats, sv.floats[i])
		case ColString:
			start := uint32(len(b.arena))
			b.arena = append(b.arena, src.Bytes(c, i)...)
			dv.off = append(dv.off, start, uint32(len(b.arena)))
		}
	}
	b.n++
}

// AppendBatch appends all rows of src (same schema) to b with column-wise
// copies.
func (b *Batch) AppendBatch(src *Batch) {
	for c := range b.Schema.Columns {
		dv, sv := &b.cols[c], &src.cols[c]
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			dv.ints = append(dv.ints, sv.ints[:src.n]...)
		case ColFloat64:
			dv.floats = append(dv.floats, sv.floats[:src.n]...)
		case ColString:
			for i := 0; i < src.n; i++ {
				start := uint32(len(b.arena))
				b.arena = append(b.arena, src.Bytes(c, i)...)
				dv.off = append(dv.off, start, uint32(len(b.arena)))
			}
		}
	}
	b.n += src.n
}

// AppendColumns appends all rows of src, keeping only the columns listed in
// cols (position-matched to b's schema, which must have the same column
// types as the selected src columns).
func (b *Batch) AppendColumns(src *Batch, cols []int) {
	for j, c := range cols {
		dv, sv := &b.cols[j], &src.cols[c]
		switch b.Schema.Columns[j].Type {
		case ColInt64:
			dv.ints = append(dv.ints, sv.ints[:src.n]...)
		case ColFloat64:
			dv.floats = append(dv.floats, sv.floats[:src.n]...)
		case ColString:
			for i := 0; i < src.n; i++ {
				start := uint32(len(b.arena))
				b.arena = append(b.arena, src.Bytes(c, i)...)
				dv.off = append(dv.off, start, uint32(len(b.arena)))
			}
		}
	}
	b.n += src.n
}

// MoveRow copies row src over row dst in place (dst <= src). String bytes
// stay where they are in the arena; only the offset pair moves. Used for
// in-place filter compaction.
func (b *Batch) MoveRow(dst, src int) {
	for c := range b.Schema.Columns {
		v := &b.cols[c]
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			v.ints[dst] = v.ints[src]
		case ColFloat64:
			v.floats[dst] = v.floats[src]
		case ColString:
			v.off[2*dst], v.off[2*dst+1] = v.off[2*src], v.off[2*src+1]
		}
	}
}

// Truncate drops all rows past n (arena bytes of dropped rows are reclaimed
// at the next Reset).
func (b *Batch) Truncate(n int) {
	if n >= b.n {
		return
	}
	for c := range b.cols {
		v := &b.cols[c]
		if len(v.ints) > n {
			v.ints = v.ints[:n]
		}
		if len(v.floats) > n {
			v.floats = v.floats[:n]
		}
		if len(v.off) > 2*n {
			v.off = v.off[:2*n]
		}
	}
	b.n = n
}

// CopyFrom makes b a deep copy of src, reusing b's backing storage. It is
// how operators that hold batches across Next calls (e.g. the asynchronous
// Buffer) take ownership of a batch they did not produce.
func (b *Batch) CopyFrom(src *Batch) {
	b.Init(src.Schema)
	b.arena = append(b.arena[:0], src.arena...)
	for c := range b.cols {
		dv, sv := &b.cols[c], &src.cols[c]
		dv.ints = append(dv.ints[:0], sv.ints...)
		dv.floats = append(dv.floats[:0], sv.floats...)
		dv.off = append(dv.off[:0], sv.off...)
	}
	b.n = src.n
}

// WireBytes estimates the batch's wire size for network cost accounting:
// the schema's cached fixed-width footprint per row plus the live string
// bytes — no per-value interface walk.
func (b *Batch) WireBytes() int64 {
	total := int64(b.n) * b.Schema.FixedWireBytes()
	for c := range b.Schema.Columns {
		if b.Schema.Columns[c].Type != ColString {
			continue
		}
		off := b.cols[c].off
		for i := 0; i < b.n; i++ {
			total += int64(off[2*i+1] - off[2*i])
		}
	}
	return total
}

// AppendDecoded parses one row produced by EncodeRow / AppendEncoded and
// appends it to b. It is the executor's decode-into path: refilling a warm
// batch allocates nothing.
func (s *Schema) AppendDecoded(b *Batch, buf []byte) error {
	if b.Schema == nil {
		b.Init(s)
	}
	arenaLen := len(b.arena)
	for c := range s.Columns {
		col := &s.Columns[c]
		v := &b.cols[c]
		switch col.Type {
		case ColInt64:
			if len(buf) < 8 {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: truncated row at col %s", s.Name, col.Name)
			}
			v.ints = append(v.ints, int64(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case ColFloat64:
			if len(buf) < 8 {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: truncated row at col %s", s.Name, col.Name)
			}
			v.floats = append(v.floats, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case ColString:
			if len(buf) < 2 {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: truncated row at col %s", s.Name, col.Name)
			}
			n := int(binary.LittleEndian.Uint16(buf))
			buf = buf[2:]
			if len(buf) < n {
				b.rollback(arenaLen)
				return fmt.Errorf("table %s: truncated string at col %s", s.Name, col.Name)
			}
			start := uint32(len(b.arena))
			b.arena = append(b.arena, buf[:n]...)
			v.off = append(v.off, start, uint32(len(b.arena)))
			buf = buf[n:]
		}
	}
	if len(buf) != 0 {
		b.rollback(arenaLen)
		return fmt.Errorf("table %s: %d trailing bytes", s.Name, len(buf))
	}
	b.n++
	return nil
}

// AppendEncoded serialises row i of b in EncodeRow's format, appending to
// dst (which may be nil or a reused buffer) and returning the extended
// slice.
func (s *Schema) AppendEncoded(dst []byte, b *Batch, i int) ([]byte, error) {
	for c := range s.Columns {
		col := &s.Columns[c]
		switch col.Type {
		case ColInt64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Int(c, i)))
		case ColFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Float(c, i)))
		case ColString:
			sv := b.Bytes(c, i)
			if len(sv) > 0xFFFF {
				return dst, fmt.Errorf("table %s: col %s: string too long", s.Name, col.Name)
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sv)))
			dst = append(dst, sv...)
		}
	}
	return dst, nil
}

// AppendKey encodes row i's primary key in order-preserving form, appending
// to dst.
func (s *Schema) AppendKey(dst []byte, b *Batch, i int) ([]byte, error) {
	for c := 0; c < s.KeyCols; c++ {
		switch s.Columns[c].Type {
		case ColInt64:
			dst = keycodec.AppendInt64(dst, b.Int(c, i))
		case ColString:
			dst = keycodec.AppendBytes(dst, b.Bytes(c, i))
		case ColFloat64:
			dst = keycodec.AppendFloat64(dst, b.Float(c, i))
		}
	}
	return dst, nil
}

// AppendColsKey encodes the listed columns of row i into dst using the
// order-preserving key codec. Each column encoding is self-delimiting, so the
// concatenation is injective: two rows produce the same bytes iff they agree
// on every listed column. The executor's hash and merge joins use it as the
// composite join key for multi-column and string-typed equality.
func (b *Batch) AppendColsKey(dst []byte, cols []int, i int) []byte {
	for _, c := range cols {
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			dst = keycodec.AppendInt64(dst, b.Int(c, i))
		case ColString:
			dst = keycodec.AppendBytes(dst, b.Bytes(c, i))
		case ColFloat64:
			dst = keycodec.AppendFloat64(dst, b.Float(c, i))
		}
	}
	return dst
}

// JoinSchemas derives the output schema of a join: left columns followed by
// right columns. The result is an executor-internal schema (never stored);
// KeyCols is nominal.
func JoinSchemas(name string, l, r *Schema) *Schema {
	out := &Schema{Name: name, KeyCols: 1}
	out.Columns = append(out.Columns, l.Columns...)
	out.Columns = append(out.Columns, r.Columns...)
	return out
}

// AppendJoined appends the concatenation of row li of l and row ri of r to b,
// whose schema must be JoinSchemas(l.Schema, r.Schema). Column-typed copies;
// refilling a warm batch allocates nothing.
func (b *Batch) AppendJoined(l *Batch, li int, r *Batch, ri int) {
	nl := len(l.Schema.Columns)
	for c := range b.Schema.Columns {
		src, si, sc := l, li, c
		if c >= nl {
			src, si, sc = r, ri, c-nl
		}
		dv, sv := &b.cols[c], &src.cols[sc]
		switch b.Schema.Columns[c].Type {
		case ColInt64:
			dv.ints = append(dv.ints, sv.ints[si])
		case ColFloat64:
			dv.floats = append(dv.floats, sv.floats[si])
		case ColString:
			start := uint32(len(b.arena))
			b.arena = append(b.arena, src.Bytes(sc, si)...)
			dv.off = append(dv.off, start, uint32(len(b.arena)))
		}
	}
	b.n++
}
