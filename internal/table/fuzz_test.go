package table_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// tpccSchemas lists the TPC-C schemas in a fixed order.
func tpccSchemas() []*table.Schema {
	m := tpcc.Schemas()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]*table.Schema, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// colsOf returns the ascending column positions whose bit is set in mask,
// as a non-nil slice (nil would mean every column).
func colsOf(s *table.Schema, mask uint32) []int {
	cols := []int{}
	for c := range s.Columns {
		if mask&(1<<c) != 0 {
			cols = append(cols, c)
		}
	}
	return cols
}

// encodeSample encodes a row of s whose values derive from seed: strings
// of varying length, negative and fractional numbers.
func encodeSample(s *table.Schema, seed int64) []byte {
	row := make(table.Row, len(s.Columns))
	for c, col := range s.Columns {
		v := seed*31 + int64(c)
		switch col.Type {
		case table.ColInt64:
			row[c] = v - 1000
		case table.ColFloat64:
			row[c] = float64(v) / 7
		case table.ColString:
			row[c] = fmt.Sprintf("%0*d", int(v%13), v)
		}
	}
	enc, err := s.EncodeRow(row)
	if err != nil {
		panic(err)
	}
	return enc
}

// checkProjectedDecode decodes payload once whole and once as cols, each
// into a batch already holding one row, and requires the same verdict: on
// success the projected row equals the listed columns of the full row; on
// failure both fail with the same error and keep only their first row.
func checkProjectedDecode(t *testing.T, s *table.Schema, cols []int, first, payload []byte) {
	t.Helper()
	ps, err := s.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	full, proj := table.NewBatch(s), table.NewBatch(ps)
	if err := s.AppendDecoded(full, first); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDecodedCols(proj, first, cols); err != nil {
		t.Fatal(err)
	}
	fullErr := s.AppendDecoded(full, payload)
	projErr := s.AppendDecodedCols(proj, payload, cols)
	if (fullErr == nil) != (projErr == nil) || fullErr != nil && fullErr.Error() != projErr.Error() {
		t.Fatalf("%s cols %v: full decode says %v, projected decode %v", s.Name, cols, fullErr, projErr)
	}
	want := 2
	if fullErr != nil {
		want = 1
	}
	if full.Len() != want || proj.Len() != want {
		t.Fatalf("%s cols %v: lengths %d (full) and %d (projected), want %d", s.Name, cols, full.Len(), proj.Len(), want)
	}
	for i := 0; i < want; i++ {
		for j, c := range cols {
			got, exp := proj.Value(j, i), full.Value(c, i)
			if gf, ok := got.(float64); ok {
				got, exp = math.Float64bits(gf), math.Float64bits(exp.(float64)) // NaN != NaN
			}
			if got != exp {
				t.Fatalf("%s cols %v row %d: column %d reads %v, full decode %v", s.Name, cols, i, c, got, exp)
			}
		}
	}
}

// malformed returns the broken forms of a valid encoded row of s: cut inside
// the first fixed-width column, cut inside the last string's bytes, and one
// trailing byte.
func malformed(s *table.Schema, enc []byte) map[string][]byte {
	out := map[string][]byte{"trailing bytes": append(slices.Clone(enc), 0xAB)}
	off := 0
	for _, col := range s.Columns {
		switch col.Type {
		case table.ColInt64, table.ColFloat64:
			if _, ok := out["truncated fixed column"]; !ok {
				out["truncated fixed column"] = slices.Clone(enc[:off+3])
			}
			off += 8
		case table.ColString:
			n := int(binary.LittleEndian.Uint16(enc[off:]))
			if n > 0 {
				out["short string"] = slices.Clone(enc[:off+2+n-1])
			}
			off += 2 + n
		}
	}
	return out
}

// TestAppendDecodedColsMatchesFull: for every TPC-C schema and every
// ascending column subset, a projected decode equals the matching columns
// of the full decode, and a truncated fixed column, a short string and
// trailing bytes fail with the full decode's error, leaving the batch at
// its previous length.
func TestAppendDecodedColsMatchesFull(t *testing.T) {
	for _, s := range tpccSchemas() {
		first := encodeSample(s, 1)
		good := encodeSample(s, 12345)
		bad := malformed(s, good)
		hasString := slices.ContainsFunc(s.Columns, func(c table.Column) bool { return c.Type == table.ColString })
		if _, ok := bad["short string"]; hasString && !ok {
			t.Fatalf("%s: no short-string case", s.Name)
		}
		for mask := uint32(0); mask < 1<<len(s.Columns); mask++ {
			cols := colsOf(s, mask)
			checkProjectedDecode(t, s, cols, first, good)
			for _, payload := range bad {
				checkProjectedDecode(t, s, cols, first, payload)
			}
		}
	}
}

// FuzzAppendDecodedCols: any payload, decoded as any ascending column
// subset of any TPC-C schema, agrees with the full decode — the same
// columns on success, the same error and an unchanged batch on failure.
func FuzzAppendDecodedCols(f *testing.F) {
	schemas := tpccSchemas()
	for i, s := range schemas {
		good := encodeSample(s, int64(i)+7)
		f.Add(uint8(i), uint32(0x55), good)
		f.Add(uint8(i), uint32(math.MaxUint32), good)
		for _, payload := range malformed(s, good) {
			f.Add(uint8(i), uint32(0xAA), payload)
		}
	}
	f.Fuzz(func(t *testing.T, tbl uint8, mask uint32, payload []byte) {
		s := schemas[int(tbl)%len(schemas)]
		checkProjectedDecode(t, s, colsOf(s, mask), encodeSample(s, 3), payload)
	})
}
