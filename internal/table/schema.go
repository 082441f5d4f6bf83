// Package table implements WattDB's logical layer (Fig. 4 of the paper):
// tables split into horizontal partitions, each index-organised by primary
// key and owned by one node. The three partitioning schemes of Sect. 4 are
// all implemented here over the same storage substrate:
//
//   - Physical: one partition-spanning B*-tree whose pages live in segments
//     that may be relocated to other nodes' disks (ownership fixed).
//   - Logical: the same spanning tree, but rebalancing moves records
//     between partitions with delete/insert transactions.
//   - Physiological: per-segment B*-trees (mini-partitions) plus a small
//     top index; rebalancing ships whole segments and transfers ownership.
package table

import (
	"encoding/binary"
	"fmt"
	"math"

	"wattdb/internal/keycodec"
)

// ColType enumerates supported column types.
type ColType int

const (
	ColInt64 ColType = iota
	ColString
	ColFloat64
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: metadata held on the master node. The first
// KeyCols columns form the primary key (all int64 in TPC-C-style keys, but
// strings are supported).
type Schema struct {
	ID      uint32
	Name    string
	Columns []Column
	KeyCols int

	// wireFixed caches the fixed-width wire footprint of one row (framing
	// plus per-column fixed bytes), so wire-cost accounting never re-walks
	// column values. Computed lazily by FixedWireBytes.
	wireFixed int64
}

// Row is one record's values, position-matched to Schema.Columns. Values
// are int64, string, or float64.
type Row []any

// Validate checks the schema's internal consistency.
func (s *Schema) Validate() error {
	if s.KeyCols < 1 || s.KeyCols > len(s.Columns) {
		return fmt.Errorf("table %s: %d key columns of %d", s.Name, s.KeyCols, len(s.Columns))
	}
	return nil
}

// Key encodes row's primary key in order-preserving form.
func (s *Schema) Key(row Row) ([]byte, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("table %s: row has %d values, want %d", s.Name, len(row), len(s.Columns))
	}
	return s.EncodeKeyPrefix(row[:s.KeyCols]...)
}

// EncodeKeyPrefix encodes a (possibly partial) key prefix: useful for range
// bounds like "all orders of warehouse 3".
func (s *Schema) EncodeKeyPrefix(vals ...any) ([]byte, error) {
	return s.AppendKeyPrefix(nil, vals...)
}

// AppendKeyPrefix is EncodeKeyPrefix appending into a reusable buffer. On
// error the buffer (possibly extended by already-encoded columns) is
// returned so callers keep their scratch capacity.
func (s *Schema) AppendKeyPrefix(key []byte, vals ...any) ([]byte, error) {
	if len(vals) > s.KeyCols {
		return key, fmt.Errorf("table %s: %d key values, max %d", s.Name, len(vals), s.KeyCols)
	}
	for i, v := range vals {
		switch s.Columns[i].Type {
		case ColInt64:
			iv, ok := v.(int64)
			if !ok {
				return key, fmt.Errorf("table %s: key col %d: want int64, got %T", s.Name, i, v)
			}
			key = keycodec.AppendInt64(key, iv)
		case ColString:
			sv, ok := v.(string)
			if !ok {
				return key, fmt.Errorf("table %s: key col %d: want string, got %T", s.Name, i, v)
			}
			key = keycodec.AppendString(key, sv)
		case ColFloat64:
			fv, ok := v.(float64)
			if !ok {
				return key, fmt.Errorf("table %s: key col %d: want float64, got %T", s.Name, i, v)
			}
			key = keycodec.AppendFloat64(key, fv)
		}
	}
	return key, nil
}

// AppendKeyPrefix1 is the one-column fast path of AppendKeyPrefix for
// int64-keyed tables: the variadic form boxes every argument into an
// interface (one heap allocation per non-constant int64) plus the []any
// backing array, which the TPC-C range-bound hot paths pay per scan. The
// typed form allocates nothing beyond the key bytes.
func (s *Schema) AppendKeyPrefix1(key []byte, v0 int64) ([]byte, error) {
	if s.KeyCols < 1 {
		return key, fmt.Errorf("table %s: 1 key value, max %d", s.Name, s.KeyCols)
	}
	if s.Columns[0].Type != ColInt64 {
		return key, fmt.Errorf("table %s: key col 0: want %v, got int64", s.Name, s.Columns[0].Type)
	}
	return keycodec.AppendInt64(key, v0), nil
}

// AppendKeyPrefix2 is the two-column int64 fast path of AppendKeyPrefix
// (see AppendKeyPrefix1).
func (s *Schema) AppendKeyPrefix2(key []byte, v0, v1 int64) ([]byte, error) {
	if s.KeyCols < 2 {
		return key, fmt.Errorf("table %s: 2 key values, max %d", s.Name, s.KeyCols)
	}
	if s.Columns[0].Type != ColInt64 || s.Columns[1].Type != ColInt64 {
		return key, fmt.Errorf("table %s: key cols 0,1 must be int64", s.Name)
	}
	return keycodec.AppendInt64(keycodec.AppendInt64(key, v0), v1), nil
}

// EncodeKeyPrefix1 is AppendKeyPrefix1 into a fresh buffer.
func (s *Schema) EncodeKeyPrefix1(v0 int64) ([]byte, error) {
	return s.AppendKeyPrefix1(make([]byte, 0, 8), v0)
}

// EncodeKeyPrefix2 is AppendKeyPrefix2 into a fresh buffer.
func (s *Schema) EncodeKeyPrefix2(v0, v1 int64) ([]byte, error) {
	return s.AppendKeyPrefix2(make([]byte, 0, 16), v0, v1)
}

// EncodeRow serialises all column values (including key columns, so rows
// are self-contained when shipped between nodes).
func (s *Schema) EncodeRow(row Row) ([]byte, error) {
	return s.AppendEncodedRow(nil, row)
}

// AppendEncodedRow is EncodeRow appending into a reusable buffer: encode
// paths that ship one record at a time (TPC-C writes, data generators) use
// it to stop allocating a fresh buffer per record.
func (s *Schema) AppendEncodedRow(dst []byte, row Row) ([]byte, error) {
	if len(row) != len(s.Columns) {
		return dst, fmt.Errorf("table %s: row has %d values, want %d", s.Name, len(row), len(s.Columns))
	}
	for i := range s.Columns {
		col := &s.Columns[i]
		switch col.Type {
		case ColInt64:
			iv, ok := row[i].(int64)
			if !ok {
				return dst, fmt.Errorf("table %s: col %s: want int64, got %T", s.Name, col.Name, row[i])
			}
			dst = binary.LittleEndian.AppendUint64(dst, uint64(iv))
		case ColFloat64:
			fv, ok := row[i].(float64)
			if !ok {
				return dst, fmt.Errorf("table %s: col %s: want float64, got %T", s.Name, col.Name, row[i])
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fv))
		case ColString:
			sv, ok := row[i].(string)
			if !ok {
				return dst, fmt.Errorf("table %s: col %s: want string, got %T", s.Name, col.Name, row[i])
			}
			if len(sv) > 0xFFFF {
				return dst, fmt.Errorf("table %s: col %s: string too long", s.Name, col.Name)
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sv)))
			dst = append(dst, sv...)
		}
	}
	return dst, nil
}

// DecodeRow parses bytes produced by EncodeRow into a boxed Row. It is a
// compatibility wrapper over a one-row Batch; decode hot paths should use
// AppendDecoded into a reused Batch instead.
func (s *Schema) DecodeRow(buf []byte) (Row, error) {
	var b Batch
	b.Init(s)
	if err := s.AppendDecoded(&b, buf); err != nil {
		return nil, err
	}
	return b.Row(0), nil
}

// Project returns the schema of the listed columns of s, in the listed
// order: the output schema of a projection or of a scan that decodes only
// those columns. It is an executor-internal schema (never stored); KeyCols
// is nominal.
func (s *Schema) Project(cols []int) (*Schema, error) {
	out := &Schema{Name: s.Name + ".project", KeyCols: 1}
	for _, c := range cols {
		if c < 0 || c >= len(s.Columns) {
			return nil, fmt.Errorf("table %s: project column %d out of range", s.Name, c)
		}
		out.Columns = append(out.Columns, s.Columns[c])
	}
	return out, nil
}

// FixedWireBytes returns the fixed-width wire footprint of one encoded row:
// 8 bytes framing, 8 per numeric column, and 2 (the length header) per
// string column. String payload bytes are accounted separately by
// Batch.WireBytes.
func (s *Schema) FixedWireBytes() int64 {
	if s.wireFixed == 0 {
		var n int64 = 8 // framing
		for i := range s.Columns {
			if s.Columns[i].Type == ColString {
				n += 2
			} else {
				n += 8
			}
		}
		s.wireFixed = n
	}
	return s.wireFixed
}
