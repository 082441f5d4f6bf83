package table

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestBatchDecodeMatchesDecodeRow round-trips random rows through both
// representations: AppendEncodedRow must equal EncodeRow's bytes,
// AppendDecoded into a batch must reconstruct the same values the boxed
// DecodeRow sees, and AppendEncoded from the batch must reproduce the
// original encoding byte-for-byte.
func TestBatchDecodeMatchesDecodeRow(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	var encBuf []byte
	f := func(id, branch int64, name string, balance float64) bool {
		if math.IsNaN(balance) {
			return true
		}
		row := Row{id, branch, name, balance}
		enc, err := s.EncodeRow(row)
		if err != nil {
			return false
		}
		encBuf, err = s.AppendEncodedRow(encBuf[:0], row)
		if err != nil || !bytes.Equal(encBuf, enc) {
			return false
		}
		b.Reset()
		if err := s.AppendDecoded(b, enc); err != nil || b.Len() != 1 {
			return false
		}
		if b.Int(0, 0) != id || b.Int(1, 0) != branch ||
			b.String(2, 0) != name || b.Float(3, 0) != balance {
			return false
		}
		reenc, err := s.AppendEncoded(nil, b, 0)
		if err != nil || !bytes.Equal(reenc, enc) {
			return false
		}
		got := b.Row(0)
		want, err := s.DecodeRow(enc)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchKeyMatchesSchemaKey checks AppendKey against the Row-based key
// encoder.
func TestBatchKeyMatchesSchemaKey(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	f := func(id, branch int64, name string, balance float64) bool {
		if math.IsNaN(balance) {
			return true
		}
		row := Row{id, branch, name, balance}
		want, err := s.Key(row)
		if err != nil {
			return false
		}
		b.Reset()
		if err := b.AppendRow(row); err != nil {
			return false
		}
		got, err := s.AppendKey(nil, b, 0)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMultiRowOps exercises the batch manipulation primitives the
// executor relies on: append, move-compaction, truncation, column
// projection, whole-batch append, and deep copy.
func TestBatchMultiRowOps(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	const n = 37
	for i := 0; i < n; i++ {
		row := Row{int64(i), int64(i % 5), string(rune('a' + i%26)), float64(i) / 2}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != n {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.WireBytes(); got <= 0 {
		t.Fatalf("WireBytes = %d", got)
	}

	// Deep copy, then mutate the copy: the original must not change.
	cp := &Batch{}
	cp.CopyFrom(b)
	cp.SetInt(0, 3, -99)
	if b.Int(0, 3) != 3 {
		t.Fatal("CopyFrom aliases the source")
	}
	if cp.Len() != n || cp.String(2, 7) != b.String(2, 7) {
		t.Fatal("CopyFrom mismatch")
	}

	// In-place compaction: keep even ids.
	w := 0
	for i := 0; i < b.Len(); i++ {
		if b.Int(0, i)%2 == 0 {
			if w != i {
				b.MoveRow(w, i)
			}
			w++
		}
	}
	b.Truncate(w)
	if b.Len() != (n+1)/2 {
		t.Fatalf("after filter Len = %d", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if b.Int(0, i) != int64(2*i) {
			t.Fatalf("row %d id = %d", i, b.Int(0, i))
		}
		if b.String(2, i) != string(rune('a'+(2*i)%26)) {
			t.Fatalf("row %d name = %q", i, b.String(2, i))
		}
	}

	// Projection: name + balance only.
	ps := &Schema{Name: "proj", KeyCols: 1, Columns: []Column{s.Columns[2], s.Columns[3]}}
	pb := NewBatch(ps)
	pb.AppendColumns(b, []int{2, 3})
	if pb.Len() != b.Len() || pb.String(0, 1) != b.String(2, 1) || pb.Float(1, 2) != b.Float(3, 2) {
		t.Fatal("AppendColumns mismatch")
	}

	// Whole-batch append doubles the row count.
	before := cp.Len()
	cp.AppendBatch(cp2(t, b))
	if cp.Len() != before+b.Len() {
		t.Fatalf("AppendBatch Len = %d", cp.Len())
	}
	if cp.String(2, before) != b.String(2, 0) {
		t.Fatal("AppendBatch row content mismatch")
	}
}

func cp2(t *testing.T, b *Batch) *Batch {
	t.Helper()
	out := &Batch{}
	out.CopyFrom(b)
	return out
}

// TestBatchDecodeErrors mirrors the DecodeRow error cases and checks a
// failed append leaves the batch unchanged.
func TestBatchDecodeErrors(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	good, _ := s.EncodeRow(Row{int64(1), int64(2), "abc", 3.5})
	if err := s.AppendDecoded(b, good); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDecoded(b, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated row accepted")
	}
	if err := s.AppendDecoded(b, append(bytes.Clone(good), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if b.Len() != 1 || b.Int(0, 0) != 1 || b.String(2, 0) != "abc" {
		t.Fatal("failed decode corrupted the batch")
	}
	if err := b.AppendRow(Row{"nope", int64(0), "x", 0.0}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if b.Len() != 1 {
		t.Fatal("failed AppendRow changed row count")
	}
}

// TestBatchRefillZeroAlloc pins the decode-into contract: refilling a warm
// batch (including a string column, whose bytes land in the reused arena)
// allocates nothing.
func TestBatchRefillZeroAlloc(t *testing.T) {
	s := testSchema()
	b := NewBatch(s)
	var payloads [][]byte
	for i := 0; i < 64; i++ {
		enc, err := s.EncodeRow(Row{int64(i), int64(i % 3), "some-name-bytes", float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, enc)
	}
	refill := func() {
		b.Reset()
		for _, enc := range payloads {
			if err := s.AppendDecoded(b, enc); err != nil {
				t.Error(err)
				return
			}
		}
	}
	refill() // warm vectors and arena
	if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
		t.Fatalf("warm batch refill allocates %v objects/run, want 0", allocs)
	}
}

// encodedRows encodes every row of b, so two snapshots compare by value.
func encodedRows(t *testing.T, b *Batch) [][]byte {
	t.Helper()
	rows := make([][]byte, b.Len())
	for i := range rows {
		enc, err := b.Schema.AppendEncoded(nil, b, i)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = enc
	}
	return rows
}

// TestWindowNeverWritesSource: a window aliases rows [lo, hi) of its source
// without a copy, and nothing done to the window afterwards writes into the
// source's rows: resetting it, re-initialising it (to the same schema or
// another), appending to it in every form, or setting the bytes of a row it
// appended. Moving rows in place (Filter's compaction) touches only the
// window's own rows, and truncating it (Limit) touches none, not even when
// the window is appended to afterwards.
func TestWindowNeverWritesSource(t *testing.T) {
	s := testSchema()
	other := &Schema{Name: "other", KeyCols: 1, Columns: []Column{{"s", ColString}, {"i", ColInt64}}}
	const lo, hi = 2, 5
	extra := Row{int64(-1), int64(-2), "appended-row", -3.5}
	extraEnc, _ := s.EncodeRow(extra)
	otherEnc, _ := other.EncodeRow(Row{"other-row", int64(7)})

	cases := []struct {
		name string
		op   func(t *testing.T, w *Batch)
		// own reports whether the op may rewrite the window's own rows.
		own bool
	}{
		{"Reset+AppendRow", func(t *testing.T, w *Batch) {
			w.Reset()
			if w.Len() != 0 {
				t.Fatalf("Len after Reset = %d", w.Len())
			}
			for i := 0; i < hi-lo+1; i++ {
				if err := w.AppendRow(extra); err != nil {
					t.Fatal(err)
				}
			}
		}, false},
		{"Init same schema+AppendDecoded", func(t *testing.T, w *Batch) {
			w.Init(s)
			if err := s.AppendDecoded(w, extraEnc); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"Init other schema+AppendDecoded", func(t *testing.T, w *Batch) {
			w.Init(other)
			if err := other.AppendDecoded(w, otherEnc); err != nil {
				t.Fatal(err)
			}
			if w.String(0, 0) != "other-row" || w.Int(1, 0) != 7 {
				t.Fatal("re-initialised window reads wrong")
			}
		}, false},
		{"AppendZero+SetBytes", func(t *testing.T, w *Batch) {
			w.AppendZero()
			w.SetBytes(2, w.Len()-1, []byte("set-on-appended-row"))
			w.SetInt(0, w.Len()-1, -9)
			if w.String(2, hi-lo) != "set-on-appended-row" {
				t.Fatal("SetBytes on an appended row reads wrong")
			}
		}, false},
		{"AppendFrom", func(t *testing.T, w *Batch) {
			src := NewBatch(s)
			if err := src.AppendRow(extra); err != nil {
				t.Fatal(err)
			}
			w.AppendFrom(src, 0)
		}, false},
		{"AppendBatch", func(t *testing.T, w *Batch) {
			src := NewBatch(s)
			for i := 0; i < 3; i++ {
				if err := src.AppendRow(extra); err != nil {
					t.Fatal(err)
				}
			}
			w.AppendBatch(src)
		}, false},
		{"Truncate+AppendRow", func(t *testing.T, w *Batch) {
			w.Truncate(1)
			if err := w.AppendRow(extra); err != nil {
				t.Fatal(err)
			}
			if w.Len() != 2 || w.Int(0, 1) != -1 {
				t.Fatal("append after Truncate reads wrong")
			}
		}, false},
		{"MoveRow+Truncate", func(t *testing.T, w *Batch) {
			w.MoveRow(0, 2)
			w.Truncate(1)
			if w.Int(0, 0) != lo+2 || w.String(2, 0) != "row-4" {
				t.Fatal("compacted window reads wrong")
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := NewBatch(s)
			for i := 0; i < 7; i++ {
				if err := src.AppendRow(Row{int64(i), int64(i % 3), fmt.Sprintf("row-%d", i), float64(i) / 4}); err != nil {
					t.Fatal(err)
				}
			}
			before := encodedRows(t, src)
			w := &Batch{}
			w.Window(src, lo, hi)
			if w.Len() != hi-lo {
				t.Fatalf("window Len = %d, want %d", w.Len(), hi-lo)
			}
			for i, row := range encodedRows(t, w) {
				if !bytes.Equal(row, before[lo+i]) {
					t.Fatalf("window row %d differs from source row %d", i, lo+i)
				}
			}
			tc.op(t, w)
			after := encodedRows(t, src)
			for i := range before {
				if tc.own && i >= lo && i < hi {
					continue
				}
				if !bytes.Equal(after[i], before[i]) {
					t.Errorf("source row %d changed", i)
				}
			}
		})
	}
}
