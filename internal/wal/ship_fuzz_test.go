package wal

import (
	"bytes"
	"testing"
)

// TestShipResetKeepThrough pins the reset marker's keep-through: it round-trips
// (0, the wholesale reset, in the encoding it always had), and the payloads that
// would make it ambiguous — a frame on a marker, a keep-through on a frame, a
// flagged keep-through of zero — do not decode.
func TestShipResetKeepThrough(t *testing.T) {
	for _, keep := range []uint64{0, 1, 41, 1 << 40} {
		in := &ShipFrame{Origin: 3, Gen: 7, Reset: true, Keep: keep}
		out := &ShipFrame{Frame: []byte("stale"), LSN: 5} // every field is overwritten
		if err := DecodeShipFrame(EncodeShipFrame(nil, in), out); err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if out.Origin != 3 || out.Gen != 7 || !out.Reset || out.Keep != keep || out.LSN != 0 || out.Frame != nil {
			t.Fatalf("keep %d: decoded %+v", keep, out)
		}
	}
	wholesale := EncodeShipFrame(nil, &ShipFrame{Origin: 3, Gen: 7, Reset: true})
	if wholesale[20] != shipFlagReset || len(wholesale) != shipHeaderSize {
		t.Fatalf("wholesale reset encodes as %x: not the marker older logs hold", wholesale)
	}
	for name, bad := range map[string]*ShipFrame{
		"frame on a reset marker":        {Origin: 1, Gen: 1, Reset: true, Keep: 5, Frame: []byte("f")},
		"frame on a wholesale reset":     {Origin: 1, Gen: 1, Reset: true, Frame: []byte("f")},
		"keep-through on a data payload": {Origin: 1, Gen: 1, LSN: 9, Keep: 5, Frame: []byte("f")},
		"LSN on a reset marker":          {Origin: 1, Gen: 1, Reset: true, LSN: 9},
	} {
		var sf ShipFrame
		if err := DecodeShipFrame(EncodeShipFrame(nil, bad), &sf); err == nil {
			t.Errorf("%s decoded: %+v", name, sf)
		}
	}
	zeroKeep := EncodeShipFrame(nil, &ShipFrame{Origin: 1, Gen: 1, Reset: true})
	zeroKeep[20] |= shipFlagKeep
	var sf ShipFrame
	if err := DecodeShipFrame(zeroKeep, &sf); err == nil {
		t.Errorf("a flagged keep-through of zero decoded: %+v", sf)
	}
}

// FuzzShipRoundTrip checks the replication-stream codec: a ship payload must
// survive encode/decode exactly — origin, LSN, generation, the reset flag with
// its keep-through, and the frame bytes including the nil-versus-empty
// distinction (a nil frame is only legal on a reset marker; an empty non-nil
// frame is a real, zero-payload frame the follower must still store) — and
// that the decoded frame is the payload read in place: it aliases the
// encoding, and appending to it cannot write into the encoding.
func FuzzShipRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint64(42), uint64(0), false, []byte("frame-bytes"))
	f.Add(uint32(3), uint64(0), uint64(2), true, []byte(nil))
	f.Add(uint32(3), uint64(977), uint64(2), true, []byte(nil))
	f.Add(uint32(0), uint64(1), uint64(1), false, []byte{})
	f.Fuzz(func(t *testing.T, origin uint32, lsn, gen uint64, reset bool, frame []byte) {
		in := &ShipFrame{Origin: origin, LSN: lsn, Gen: gen, Reset: reset, Frame: frame}
		if reset {
			// A reset marker carries a keep-through — here the fuzzed LSN —
			// and neither frame nor LSN by construction; the decoder rejects
			// anything else, which the no-panic fuzzer covers. Round-trip only
			// well-formed inputs here.
			in.Keep, in.LSN, in.Frame = lsn, 0, nil
		} else if in.Frame == nil {
			in.Frame = []byte{}
		}
		enc := EncodeShipFrame(nil, in)
		out := new(ShipFrame)
		if err := DecodeShipFrame(enc, out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Origin != in.Origin || out.LSN != in.LSN || out.Gen != in.Gen || out.Reset != in.Reset || out.Keep != in.Keep {
			t.Fatalf("header mismatch: %+v vs %+v", out, in)
		}
		if (out.Frame == nil) != (in.Frame == nil) {
			t.Fatalf("frame nil-ness lost: %+v vs %+v", out, in)
		}
		if !bytes.Equal(out.Frame, in.Frame) {
			t.Fatalf("frame bytes = %x, want %x", out.Frame, in.Frame)
		}
		if len(in.Frame) > 0 {
			// The frame is read in place: it aliases the payload, and its
			// capacity ends with it, so an append reallocates rather than
			// writing into the encoding (log bytes are write-once).
			if &out.Frame[0] != &enc[shipHeaderSize] {
				t.Fatal("decoded frame does not alias the payload")
			}
			before := bytes.Clone(enc)
			grown := append(out.Frame, 0xAA)
			if !bytes.Equal(enc, before) || &grown[0] == &enc[shipHeaderSize] {
				t.Fatal("appending to the decoded frame wrote into the encoding")
			}
		}
	})
}

// FuzzShipDecodeNoPanic feeds arbitrary bytes to the ship decoder: garbage
// must come back as an error, never a panic or an over-read, and anything
// accepted must re-encode to exactly the input — the codec is canonical, so
// a follower handing a frame back to the scrubber reproduces the bytes the
// origin shipped.
func FuzzShipDecodeNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeShipFrame(nil, &ShipFrame{Origin: 2, LSN: 7, Gen: 1, Frame: []byte("payload")}))
	f.Add(EncodeShipFrame(nil, &ShipFrame{Origin: 9, Gen: 3, Reset: true}))
	f.Add(EncodeShipFrame(nil, &ShipFrame{Origin: 9, Gen: 3, Reset: true, Keep: 1204}))
	// Not payloads: a marker with a frame, and a frame with a keep-through.
	f.Add(EncodeShipFrame(nil, &ShipFrame{Origin: 9, Gen: 3, Reset: true, Keep: 1204, Frame: []byte("payload")}))
	f.Add(EncodeShipFrame(nil, &ShipFrame{Origin: 2, LSN: 7, Gen: 1, Keep: 5, Frame: []byte("payload")}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		sf := new(ShipFrame)
		if DecodeShipFrame(buf, sf) != nil {
			return
		}
		if sf.Reset && (sf.Frame != nil || sf.LSN != 0) {
			t.Fatalf("decoder accepted a reset marker with payload: %+v", sf)
		}
		if !sf.Reset && (sf.Frame == nil || sf.Keep != 0) {
			t.Fatalf("decoder accepted a data payload with no frame, or with a keep-through: %+v", sf)
		}
		if enc := EncodeShipFrame(nil, sf); !bytes.Equal(enc, buf) {
			t.Fatalf("re-encode differs:\n  in:  %x\n  out: %x", buf, enc)
		}
	})
}

// FuzzShipTornTailRecovery is the replication sibling of
// FuzzMasterTornTailRecovery: a follower's log holds RecShip wrappers around
// origin frames, the origin dies mid-ship, and the follower's recovery scan
// must keep every intact wrapper, reject the damaged tail, and — because the
// wrapper's CRC vouches for the payload — successfully decode the ship
// payload and the origin frame inside every wrapper it kept.
func FuzzShipTornTailRecovery(f *testing.F) {
	originFrame := func(lsn uint64, key, val string) []byte {
		return appendFrame(nil, &Record{LSN: lsn, Type: RecInsert, Txn: 5,
			Part: 11, Key: []byte(key), After: []byte(val)})
	}
	wrap := func(wrapLSN uint64, sf *ShipFrame) []byte {
		return appendFrame(nil, &Record{LSN: wrapLSN, Type: RecShip,
			Part: uint64(sf.Origin), After: EncodeShipFrame(nil, sf)})
	}
	w1 := wrap(1, &ShipFrame{Origin: 2, LSN: 31, Gen: 0, Frame: originFrame(31, "a", "v1")})
	w2 := wrap(2, &ShipFrame{Origin: 2, Gen: 1, Reset: true})
	w3 := wrap(3, &ShipFrame{Origin: 2, LSN: 1, Gen: 1, Frame: originFrame(1, "b", "v2")})
	w4 := wrap(4, &ShipFrame{Origin: 2, Gen: 2, Reset: true, Keep: 1})

	f.Add(append(append(bytes.Clone(w1), w2...), w3...), []byte{}, -1)
	f.Add(append(bytes.Clone(w3), w4...), w1[:20], 7) // a keep-through marker, then a torn wrapper
	f.Add(bytes.Clone(w1), w3[:9], -1)                // torn mid-wrapper
	f.Add(bytes.Clone(w2), w3, 51)                    // bit-flipped shipped frame
	f.Add([]byte{}, w1, 3)

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
			t.Fatalf("truncation lost intact wrappers: valid prefix %d < %d", vp, len(valid))
		}
		if vp > len(buf) {
			t.Fatalf("valid prefix %d over-reads %d-byte log", vp, len(buf))
		}
		var rec, inner Record
		var sf ShipFrame
		off := 0
		for off < vp {
			n, err := decodeFrame(buf[off:], &rec)
			if err != nil {
				t.Fatalf("accepted prefix fails to decode at %d: %v", off, err)
			}
			if rec.Type == RecShip {
				if err := DecodeShipFrame(rec.After, &sf); err != nil {
					t.Fatalf("intact RecShip payload rejected: %v", err)
				}
				if !sf.Reset {
					// The shipped bytes are a whole origin frame: CRC-framed
					// themselves, so they must decode standalone.
					in, err := decodeFrame(sf.Frame, &inner)
					if err != nil || in != len(sf.Frame) {
						t.Fatalf("shipped origin frame rejected (n=%d of %d): %v",
							in, len(sf.Frame), err)
					}
					if inner.LSN != sf.LSN {
						t.Fatalf("wrapper says LSN %d, shipped frame says %d", sf.LSN, inner.LSN)
					}
				}
			}
			off += n
		}
		if off != vp {
			t.Fatalf("frames consume %d bytes, valid prefix says %d", off, vp)
		}
	})
}
