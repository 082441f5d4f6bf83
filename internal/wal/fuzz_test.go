package wal

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"wattdb/internal/cc"
)

// FuzzRecordRoundTrip checks the log record wire codec: every record —
// including the prepare-time DML images and coordinator decision records of
// in-doubt 2PC recovery — must round-trip exactly, preserving the
// nil-versus-empty distinction of its image fields (a nil Before means "key
// did not exist", which recovery must never confuse with an empty value),
// and Size() must equal the encoded length.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint64(0), uint64(3), byte(RecUpdate),
		[]byte("key"), true, []byte("old"), true, []byte("new"))
	f.Add(uint64(2), uint64(7), uint64(0), uint64(3), byte(RecInsert),
		[]byte("key"), false, []byte(nil), true, []byte("new"))
	f.Add(uint64(3), uint64(9), uint64(0), uint64(0), byte(RecCommit),
		[]byte(nil), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(4), uint64(9), uint64(0), uint64(2), byte(RecPrepDML),
		[]byte("k"), false, []byte(nil), true, []byte("raw-payload"))
	f.Add(uint64(5), uint64(9), uint64(0), uint64(2), byte(RecPrepDel),
		[]byte("k"), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(6), uint64(9), uint64(123), uint64(0), byte(RecDecision),
		[]byte(nil), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(7), uint64(1), uint64(0), uint64(5), byte(RecUpdate),
		[]byte{}, true, []byte{}, true, []byte{})

	f.Fuzz(func(t *testing.T, lsn, txn, ts, part uint64, typ byte,
		key []byte, hasBefore bool, before []byte, hasAfter bool, after []byte) {
		r := Record{
			LSN:  lsn,
			Txn:  cc.TxnID(txn),
			TS:   cc.Timestamp(ts),
			Part: part,
			Type: RecType(typ),
			Key:  key,
		}
		if hasBefore {
			if before == nil {
				before = []byte{}
			}
			r.Before = before
		}
		if hasAfter {
			if after == nil {
				after = []byte{}
			}
			r.After = after
		}
		enc := EncodeRecord(nil, &r)
		if int64(len(enc)) != r.Size() {
			t.Fatalf("encoded length %d != Size() %d", len(enc), r.Size())
		}
		// Trailing bytes must be left untouched.
		var dec Record
		rest, err := DecodeRecord(append(enc, 0xAB, 0xCD), &dec)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 2 || rest[0] != 0xAB || rest[1] != 0xCD {
			t.Fatalf("rest = %x, want ab cd", rest)
		}
		if dec.LSN != r.LSN || dec.Txn != r.Txn || dec.TS != r.TS || dec.Part != r.Part || dec.Type != r.Type {
			t.Fatalf("header mismatch: %+v vs %+v", dec, r)
		}
		for _, fld := range []struct {
			name string
			a, b []byte
		}{{"key", dec.Key, r.Key}, {"before", dec.Before, r.Before}, {"after", dec.After, r.After}} {
			if (fld.a == nil) != (fld.b == nil) {
				t.Fatalf("%s nil-ness lost: decoded nil=%v, original nil=%v", fld.name, fld.a == nil, fld.b == nil)
			}
			if !bytes.Equal(fld.a, fld.b) {
				t.Fatalf("%s = %x, want %x", fld.name, fld.a, fld.b)
			}
		}
	})
}

// FuzzTornTailRecovery feeds the frame scanner the physical crash states
// recovery must survive: a run of valid frames followed by an arbitrary tail
// — a torn prefix of the next frame, garbage, or a bit-flipped copy of a
// complete frame. Restart's frame scan (scanFrames, whose valid prefix is
// the truncation point) must never panic, must keep every intact leading
// frame, and must consume nothing but whole frames.
func FuzzTornTailRecovery(f *testing.F) {
	frame := func(recs ...Record) []byte {
		var buf []byte
		for i := range recs {
			buf = appendFrame(buf, &recs[i])
		}
		return buf
	}
	r1 := Record{LSN: 1, Type: RecInsert, Txn: 1, Part: 2, Key: []byte("k"), After: []byte("v")}
	r2 := Record{LSN: 2, Type: RecCommit, Txn: 1}
	// A fuzzy-checkpoint pair: the crash states around its end record are
	// exactly the torn-pair fallback LastCheckpoint must survive.
	cb := Record{LSN: 3, Type: RecCkptBegin}
	ce := Record{LSN: 4, Type: RecCkptEnd, Part: 3,
		After: EncodeCheckpoint(nil, &Checkpoint{Begin: 3, Redo: 1, Parts: []CkptPart{{ID: 2, Redo: 1}}})}
	f.Add(frame(r1, r2), []byte{}, -1)
	f.Add(frame(r1, r2), frame(r2)[:5], -1)       // torn final record
	f.Add(frame(r1), frame(r2), 12)               // bit-flipped complete frame
	f.Add([]byte{}, []byte{0xFF, 0x00, 0xAB}, -1) // garbage-only log
	f.Add(frame(r1, r2), bytes.Repeat([]byte{0}, 64), -1)
	f.Add(frame(r1, r2, cb, ce), frame(ce)[:9], -1) // torn checkpoint-end record
	f.Add(frame(r1, r2, cb), frame(ce), 40)         // bit-flipped checkpoint end

	f.Fuzz(func(t *testing.T, valid []byte, tail []byte, flip int) {
		// Only a frame-aligned valid part models a durable prefix.
		valid = valid[:validPrefix(valid)]
		if flip >= 0 && len(tail) > 0 {
			tail = bytes.Clone(tail)
			bit := flip % (len(tail) * 8)
			tail[bit/8] ^= 1 << (bit % 8)
		}
		buf := append(bytes.Clone(valid), tail...)
		vp := validPrefix(buf)
		if vp < len(valid) {
			t.Fatalf("truncation lost intact frames: valid prefix %d < %d", vp, len(valid))
		}
		if vp > len(buf) {
			t.Fatalf("valid prefix %d over-reads %d-byte log", vp, len(buf))
		}
		// The accepted prefix must decode as whole frames of ascending LSNs,
		// exactly to vp.
		var rec Record
		var last uint64
		off := 0
		for off < vp {
			n, err := decodeFrame(buf[off:], &rec)
			if err != nil {
				t.Fatalf("accepted prefix fails to decode at %d: %v", off, err)
			}
			if last > 0 && rec.LSN <= last {
				t.Fatalf("accepted prefix goes back from LSN %d to %d at %d", last, rec.LSN, off)
			}
			off += n
			last = rec.LSN
		}
		if off != vp {
			t.Fatalf("frames consume %d bytes, valid prefix says %d", off, vp)
		}
		// Maximality: the truncation point must actually be damage — a frame
		// that does not decode, or whose LSN does not ascend.
		if vp < len(buf) {
			if _, err := decodeFrame(buf[vp:], &rec); err == nil && (last == 0 || rec.LSN > last) {
				t.Fatalf("valid frame at %d beyond the reported prefix %d", vp, vp)
			}
		}
	})
}

// validPrefix is the byte length of the frames at the front of buf that
// Restart's scan keeps: where it truncates a segment holding buf.
func validPrefix(buf []byte) int {
	ends, _, _ := scanFrames(buf, nil, 0)
	if len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1]
}

// FuzzCheckpointCodec checks the checkpoint payload codec both ways: an
// encoded Checkpoint must round-trip exactly, and arbitrary bytes must be
// rejected with an error — never a panic or a giant allocation — since
// restart feeds LastCheckpoint whatever a crash left in a RecCkptEnd record.
func FuzzCheckpointCodec(f *testing.F) {
	f.Add(uint64(3), uint64(1), uint64(2), uint64(1), uint64(9), uint64(4), []byte{})
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(uint64(7), uint64(5), uint64(1), uint64(5), uint64(2), uint64(6),
		EncodeCheckpoint(nil, &Checkpoint{Begin: 7, Redo: 5}))
	f.Add(uint64(1), uint64(1), uint64(1), uint64(1), uint64(1), uint64(1),
		bytes.Repeat([]byte{0xFF}, ckptHeaderSize)) // implausible entry counts
	f.Fuzz(func(t *testing.T, begin, redo, partID, partRedo, txn, first uint64, raw []byte) {
		ck := Checkpoint{
			Begin: begin,
			Redo:  redo,
			Parts: []CkptPart{{ID: partID, Redo: partRedo}},
			Txns:  []CkptTxn{{Txn: cc.TxnID(txn), First: first}},
		}
		enc := EncodeCheckpoint(nil, &ck)
		dec, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if dec.Begin != ck.Begin || dec.Redo != ck.Redo ||
			len(dec.Parts) != 1 || dec.Parts[0] != ck.Parts[0] ||
			len(dec.Txns) != 1 || dec.Txns[0] != ck.Txns[0] {
			t.Fatalf("round trip mismatch: %+v vs %+v", dec, ck)
		}
		if dec.PartRedo(partID) != partRedo {
			t.Fatalf("PartRedo(%d) = %d, want %d", partID, dec.PartRedo(partID), partRedo)
		}
		// Decoding is canonical: any trailing or missing byte is corruption.
		if _, err := DecodeCheckpoint(enc[:len(enc)-1]); err == nil {
			t.Fatal("truncated payload accepted")
		}
		if _, err := DecodeCheckpoint(append(bytes.Clone(enc), 0)); err == nil {
			t.Fatal("oversized payload accepted")
		}
		// Arbitrary bytes: error or a structurally sound checkpoint.
		if ck2, err := DecodeCheckpoint(raw); err == nil {
			if len(ck2.Parts) > maxCkptEntries || len(ck2.Txns) > maxCkptEntries {
				t.Fatalf("decoder accepted implausible entry counts: %d parts, %d txns",
					len(ck2.Parts), len(ck2.Txns))
			}
		}
	})
}

// FuzzDecodeRecordNoPanic feeds arbitrary bytes to the decoder: it must
// reject garbage with an error, never panic or over-read.
func FuzzDecodeRecordNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, recHeaderSize))
	f.Add(EncodeRecord(nil, &Record{Type: RecPrepDML, Txn: 1, Key: []byte("k"), After: []byte("v")}))
	// Fuzz-found: non-canonical flag bits must be rejected, or decode(encode)
	// stops being the identity on the consumed prefix.
	f.Add(append(bytes.Repeat([]byte{0x30}, 34), make([]byte, recHeaderSize-34)...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		var rec Record
		rest, err := DecodeRecord(buf, &rec)
		if err != nil {
			return
		}
		if len(rest) > len(buf) {
			t.Fatalf("rest longer than input")
		}
		// A successful decode must re-encode to the consumed prefix.
		enc := EncodeRecord(nil, &rec)
		if !bytes.Equal(enc, buf[:len(buf)-len(rest)]) {
			t.Fatalf("re-encode differs from consumed bytes:\n  in:  %x\n  out: %x", buf[:len(buf)-len(rest)], enc)
		}
	})
}

// FuzzAnalysisMatchesReference checks every answer of the transaction table
// against a naive reference written from the rules it replaced: restart's
// in-doubt scan (a prepare vote and neither a commit nor an abort record,
// anywhere), the coordinator's resolved-branch probe (decided, or never
// prepared), the checkpoint's in-flight table (a transaction opens at its
// first DML or prepare record and resolves at a commit or abort record
// logged after that) and the replay's winner set (a commit record, or a
// coordinator decision). Each input byte pair is one record: its type, its
// transaction and its partition; dead is the checkpoint's dead-below fence.
func FuzzAnalysisMatchesReference(f *testing.F) {
	kinds := []RecType{RecUpdate, RecInsert, RecDelete, RecPrepDML, RecPrepDel, RecPrepare,
		RecCommit, RecAbort, RecBase, RecShip, RecCkptBegin, RecDecision, RecMAck}
	rec := func(kind RecType, txn, part byte) []byte {
		return []byte{byte(slices.Index(kinds, kind)), part*4 + txn - 1}
	}
	seq := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// A committed transaction, an in-doubt branch, a rolled-back loser.
	f.Add(seq(rec(RecInsert, 1, 0), rec(RecCommit, 1, 0), rec(RecPrepDML, 2, 1), rec(RecPrepare, 2, 0),
		rec(RecUpdate, 3, 2), rec(RecAbort, 3, 0)), byte(0))
	// A dead loser below the fence; bases and ship wrappers between a
	// branch's images; the branch closed by committed DML re-logged from
	// them, as a restart's roll-forward does.
	f.Add(seq(rec(RecUpdate, 4, 0), rec(RecBase, 1, 0), rec(RecPrepDML, 2, 1), rec(RecShip, 1, 0),
		rec(RecPrepDel, 2, 2), rec(RecPrepare, 2, 0), rec(RecUpdate, 2, 1), rec(RecUpdate, 2, 2),
		rec(RecCommit, 2, 0)), byte(2))
	// Coordinator records carry transaction IDs but open no transaction; a
	// commit record logged before the transaction's first DML resolves
	// nothing for the checkpoint.
	f.Add(seq(rec(RecDecision, 2, 0), rec(RecCommit, 3, 0), rec(RecMAck, 2, 0), rec(RecDelete, 3, 1),
		rec(RecCkptBegin, 1, 0), rec(RecPrepare, 4, 0)), byte(1))
	f.Add([]byte{}, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, dead byte) {
		var recs []Record
		for i := 0; i+1 < len(data); i += 2 {
			r := Record{LSN: uint64(len(recs) + 1), Type: kinds[int(data[i])%len(kinds)],
				Txn: cc.TxnID(data[i+1]%4 + 1), Part: uint64(data[i+1] / 4 % 3)}
			switch r.Type {
			case RecBase, RecShip, RecCkptBegin:
				r.Txn = 0
			}
			recs = append(recs, r)
		}
		deadBelow := uint64(dead) % uint64(len(recs)+2)

		// The reference.
		prepared := map[cc.TxnID]bool{}
		decided := map[cc.TxnID]bool{}
		committed := map[cc.TxnID]bool{}
		closedAt := map[cc.TxnID]uint64{}
		images := map[cc.TxnID][]uint64{}
		type txState struct {
			first    uint64
			parts    map[uint64]bool
			resolved bool
		}
		txns := map[cc.TxnID]*txState{}
		for i := range recs {
			r := &recs[i]
			switch r.Type {
			case RecPrepare:
				prepared[r.Txn] = true
			case RecCommit, RecAbort:
				decided[r.Txn] = true
				closedAt[r.Txn] = r.LSN
				committed[r.Txn] = committed[r.Txn] || r.Type == RecCommit
			case RecPrepDML, RecPrepDel:
				images[r.Txn] = append(images[r.Txn], r.LSN)
			}
			if r.Txn == 0 {
				continue
			}
			switch r.Type {
			case RecUpdate, RecInsert, RecDelete, RecPrepare, RecPrepDML, RecPrepDel:
				st := txns[r.Txn]
				if st == nil {
					st = &txState{first: r.LSN, parts: map[uint64]bool{}}
					txns[r.Txn] = st
				}
				if r.Type != RecPrepare {
					st.parts[r.Part] = true
				}
			case RecCommit, RecAbort:
				if st := txns[r.Txn]; st != nil {
					st.resolved = true
				}
			}
		}
		var wantInDoubt, wantInFlight []cc.TxnID
		for id := cc.TxnID(1); id <= 4; id++ {
			if prepared[id] && !decided[id] {
				wantInDoubt = append(wantInDoubt, id)
			}
			if st := txns[id]; st != nil && !st.resolved && st.first >= deadBelow {
				wantInFlight = append(wantInFlight, id)
			}
		}

		a := tableOf(recs)
		if got := a.InDoubt(); !slices.Equal(got, wantInDoubt) {
			t.Fatalf("in doubt = %v, want %v", got, wantInDoubt)
		}
		if got := a.InFlightSince(deadBelow); !slices.Equal(got, wantInFlight) {
			t.Fatalf("in flight since %d = %v, want %v", deadBelow, got, wantInFlight)
		}
		for id := cc.TxnID(0); id <= 5; id++ {
			resolved, at := a.Resolved(id)
			wantAt := closedAt[id]
			if !prepared[id] {
				wantAt = 0
			}
			if want := decided[id] || !prepared[id]; resolved != want || (resolved && at != wantAt) {
				t.Fatalf("txn %d resolved = %v at %d, want %v at %d", id, resolved, at, want, wantAt)
			}
			if a.Winner(id) != committed[id] {
				t.Fatalf("txn %d winner = %v, want %v", id, a.Winner(id), committed[id])
			}
			te, st := a.Txn(id), txns[id]
			if st != nil && (te == nil || te.First != st.first) {
				t.Fatalf("txn %d row %+v, want first LSN %d", id, te, st.first)
			}
			if st != nil {
				parts := slices.Sorted(maps.Keys(st.parts))
				if got := slices.Sorted(slices.Values(te.Parts)); !slices.Equal(got, parts) {
					t.Fatalf("txn %d partitions = %v, want %v", id, got, parts)
				}
			}
			var got []uint64
			if te != nil {
				for _, r := range te.Images {
					got = append(got, r.LSN)
				}
			}
			if !slices.Equal(got, images[id]) {
				t.Fatalf("txn %d prepare images at %v, want %v", id, got, images[id])
			}
		}
		// A coordinator verdict reaches the table only as the closing
		// records a restart logs: DML and a commit record make the in-doubt
		// transaction a winner, resolved at its commit; an abort record
		// resolves it as a loser.
		for i, id := range wantInDoubt {
			commit := i%2 == 0
			if commit {
				a.Add(&Record{LSN: a.Next(), Type: RecUpdate, Txn: id, Part: 1})
			}
			closing := Record{LSN: a.Next(), Type: RecAbort, Txn: id}
			if commit {
				closing.Type = RecCommit
			}
			a.Add(&closing)
			if a.Winner(id) != commit {
				t.Fatalf("txn %d closed by %v: winner = %v", id, closing.Type, a.Winner(id))
			}
			if resolved, at := a.Resolved(id); !resolved || at != closing.LSN {
				t.Fatalf("txn %d closed at %d: resolved = %v at %d", id, closing.LSN, resolved, at)
			}
		}
		if got := a.InDoubt(); len(got) != 0 {
			t.Fatalf("in doubt after closing = %v, want none", got)
		}
	})
}
