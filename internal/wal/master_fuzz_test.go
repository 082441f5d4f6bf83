package wal

import (
	"bytes"
	"testing"
)

// FuzzMasterTableRoundTrip checks the replicated coordinator-state codec: a
// MasterTable snapshot must survive encode/decode exactly, preserving the
// nil-versus-empty distinction of every key bound (a nil MovedBelow means
// "no migration in progress"; a nil Low means the range is unbounded — both
// are routing decisions a follower replays after the leader is gone).
func FuzzMasterTableRoundTrip(f *testing.F) {
	f.Add("kv", byte(2), true, uint64(7), uint64(3), uint32(1),
		true, uint64(1), uint32(2), []byte("a"), []byte("m"), []byte(nil), true, true, false)
	f.Add("order_line", byte(2), false, uint64(40), uint64(27), uint32(3),
		false, uint64(0), uint32(0), []byte{}, []byte(nil), []byte{0x80, 0, 4}, true, false, true)
	f.Add("", byte(0), false, uint64(0), uint64(0), uint32(0),
		false, uint64(0), uint32(0), []byte(nil), []byte(nil), []byte(nil), false, false, false)

	f.Fuzz(func(t *testing.T, name string, scheme byte, replicated bool,
		nextPart, partID uint64, owner uint32,
		hasOld bool, oldPart uint64, oldOwner uint32,
		low, high, moved []byte, hasLow, hasHigh, hasMoved bool) {
		if len(name) > 1<<15 || len(low) > 1<<15 || len(high) > 1<<15 || len(moved) > 1<<15 {
			return // u16 length prefixes on the wire
		}
		e := MasterEntry{PartID: partID, OwnerID: owner}
		if hasOld {
			e.HasOld, e.OldPartID, e.OldOwnerID = true, oldPart, oldOwner
		}
		// The flag bits carry nil-ness; a set flag with nil bytes means an
		// empty (zero-length) bound.
		if hasLow {
			e.Low = low
			if e.Low == nil {
				e.Low = []byte{}
			}
		}
		if hasHigh {
			e.High = high
			if e.High == nil {
				e.High = []byte{}
			}
		}
		if hasMoved {
			e.MovedBelow = moved
			if e.MovedBelow == nil {
				e.MovedBelow = []byte{}
			}
		}
		// A second entry with inverted optional fields widens coverage of
		// flag combinations within one snapshot.
		e2 := MasterEntry{PartID: partID + 1, OwnerID: owner + 1}
		if !hasLow {
			e2.Low = low
			if e2.Low == nil {
				e2.Low = []byte{}
			}
		}
		if !hasOld {
			e2.HasOld, e2.OldPartID, e2.OldOwnerID = true, oldPart, oldOwner
		}
		in := &MasterTable{Name: name, Scheme: scheme, Replicated: replicated,
			NextPartID: nextPart, Entries: []MasterEntry{e, e2}}

		out, err := DecodeMasterTable(EncodeMasterTable(nil, in))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Name != in.Name || out.Scheme != in.Scheme || out.Replicated != in.Replicated || out.NextPartID != in.NextPartID {
			t.Fatalf("header mismatch: %+v vs %+v", out, in)
		}
		if len(out.Entries) != len(in.Entries) {
			t.Fatalf("entry count %d, want %d", len(out.Entries), len(in.Entries))
		}
		for i := range in.Entries {
			a, b := &out.Entries[i], &in.Entries[i]
			if a.PartID != b.PartID || a.OwnerID != b.OwnerID ||
				a.HasOld != b.HasOld || a.OldPartID != b.OldPartID || a.OldOwnerID != b.OldOwnerID {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, a, b)
			}
			for _, fld := range []struct {
				name string
				x, y []byte
			}{{"low", a.Low, b.Low}, {"high", a.High, b.High}, {"moved", a.MovedBelow, b.MovedBelow}} {
				if (fld.x == nil) != (fld.y == nil) {
					t.Fatalf("entry %d %s nil-ness lost", i, fld.name)
				}
				if !bytes.Equal(fld.x, fld.y) {
					t.Fatalf("entry %d %s = %x, want %x", i, fld.name, fld.x, fld.y)
				}
			}
		}
	})
}

// FuzzMasterDecodeNoPanic feeds arbitrary bytes to the three master payload
// decoders: garbage must come back as an error, never a panic or an
// over-read, and anything accepted must re-encode to exactly the input
// (the codecs are canonical — a follower re-shipping replayed state must
// produce the bytes it received).
func FuzzMasterDecodeNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMasterTable(nil, &MasterTable{Name: "kv", Entries: []MasterEntry{{PartID: 1}}}))
	f.Add(EncodeMasterParticipants(nil, []int{1, 2, 3}))
	f.Add(EncodeMasterAck(nil, 2))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if tab, err := DecodeMasterTable(buf); err == nil {
			if enc := EncodeMasterTable(nil, tab); !bytes.Equal(enc, buf) {
				t.Fatalf("master table re-encode differs:\n  in:  %x\n  out: %x", buf, enc)
			}
		}
		if nodes, err := DecodeMasterParticipants(buf); err == nil {
			if enc := EncodeMasterParticipants(nil, nodes); !bytes.Equal(enc, buf) {
				t.Fatalf("participants re-encode differs:\n  in:  %x\n  out: %x", buf, enc)
			}
		}
		if node, err := DecodeMasterAck(buf); err == nil {
			if enc := EncodeMasterAck(nil, node); !bytes.Equal(enc, buf) {
				t.Fatalf("ack re-encode differs:\n  in:  %x\n  out: %x", buf, enc)
			}
		}
	})
}

// FuzzMasterTornTailRecovery is the master-WAL sibling of
// FuzzTornTailRecovery: a follower's log holds RecMState / RecMLease /
// RecDecision / RecMAck frames, the leader dies mid-ship, and the follower's
// election-time scan must keep every intact frame, reject the damaged tail,
// and — because the frame CRC vouches for the payload — successfully decode
// the master payload of every frame it kept.
func FuzzMasterTornTailRecovery(f *testing.F) {
	state := EncodeMasterTable(nil, &MasterTable{Name: "kv", Scheme: 2, NextPartID: 9,
		Entries: []MasterEntry{
			{PartID: 3, OwnerID: 1, Low: nil, High: []byte("m")},
			{PartID: 4, OwnerID: 2, HasOld: true, OldPartID: 3, OldOwnerID: 1, Low: []byte("m")},
		}})
	frame := func(recs ...Record) []byte {
		var buf []byte
		for i := range recs {
			buf = appendFrame(buf, &recs[i])
		}
		return buf
	}
	rState := Record{LSN: 1, Type: RecMState, Part: 17, After: state}
	rLease := Record{LSN: 2, Type: RecMLease, Part: 18, TS: 8192}
	rDec := Record{LSN: 3, Type: RecDecision, Part: 19, Txn: 42, TS: 7001,
		After: EncodeMasterParticipants(nil, []int{1, 3})}
	rAck := Record{LSN: 4, Type: RecMAck, Part: 20, Txn: 42, After: EncodeMasterAck(nil, 3)}

	f.Add(frame(rState, rLease, rDec, rAck), []byte{}, -1)
	f.Add(frame(rState, rDec), frame(rAck)[:7], -1) // torn mid-ship ack
	f.Add(frame(rLease), frame(rState), 40)         // bit-flipped state snapshot
	f.Add([]byte{}, frame(rDec), 3)

	f.Fuzz(func(t *testing.T, valid []byte, tail []byte, flip int) {
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
		var rec Record
		off := 0
		for off < vp {
			n, err := decodeFrame(buf[off:], &rec)
			if err != nil {
				t.Fatalf("accepted prefix fails to decode at %d: %v", off, err)
			}
			// Every surviving master payload must parse: the CRC accepted
			// the frame, so the payload is byte-identical to what the
			// leader shipped.
			switch rec.Type {
			case RecMState:
				if _, err := DecodeMasterTable(rec.After); err != nil {
					t.Fatalf("intact RecMState payload rejected: %v", err)
				}
			case RecDecision:
				if rec.After != nil {
					if _, err := DecodeMasterParticipants(rec.After); err != nil {
						t.Fatalf("intact RecDecision payload rejected: %v", err)
					}
				}
			case RecMAck:
				if _, err := DecodeMasterAck(rec.After); err != nil {
					t.Fatalf("intact RecMAck payload rejected: %v", err)
				}
			case RecMLease:
				if rec.TS == 0 && rec.LSN == 2 {
					t.Fatal("lease ceiling lost from intact frame")
				}
			}
			off += n
		}
		if off != vp {
			t.Fatalf("frames consume %d bytes, valid prefix says %d", off, vp)
		}
	})
}
