package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"wattdb/internal/cc"
)

// Wire format of one log record. The log stores exactly these bytes: Append
// frames each encoded record with a length + CRC32 header into the active
// segment, recovery decodes them back, and the round-trip is fuzz-checked.
//
//	[0:8]   LSN
//	[8:16]  Txn
//	[16:24] TS (decision records: coordinator commit timestamp)
//	[24:32] Part
//	[32]    Type
//	[33]    flags (bit 0: Before present, bit 1: After present, bit 2: Key present)
//	[34:38] len(Key)
//	[38:42] len(Before)
//	[42:46] len(After)
//	[46:]   Key | Before | After
//
// Nil and empty byte slices are distinct on the wire (the flag bits): a nil
// Before means "key did not exist", which recovery must not confuse with an
// existing zero-length value.
const recHeaderSize = 46

const (
	recFlagBefore = 1 << 0
	recFlagAfter  = 1 << 1
	recFlagKey    = 1 << 2
)

// EncodeRecord appends r's wire encoding to dst and returns the extended
// slice.
func EncodeRecord(dst []byte, r *Record) []byte {
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], r.LSN)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.Txn))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(r.TS))
	binary.LittleEndian.PutUint64(hdr[24:32], r.Part)
	hdr[32] = byte(r.Type)
	if r.Before != nil {
		hdr[33] |= recFlagBefore
	}
	if r.After != nil {
		hdr[33] |= recFlagAfter
	}
	if r.Key != nil {
		hdr[33] |= recFlagKey
	}
	binary.LittleEndian.PutUint32(hdr[34:38], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[38:42], uint32(len(r.Before)))
	binary.LittleEndian.PutUint32(hdr[42:46], uint32(len(r.After)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Key...)
	dst = append(dst, r.Before...)
	dst = append(dst, r.After...)
	return dst
}

// DecodeRecord parses one record from the front of buf into r, returning
// the remaining bytes. The decoded Key, Before and After alias buf, capped at
// their own ends. On error r holds no meaningful record.
func DecodeRecord(buf []byte, r *Record) ([]byte, error) {
	if len(buf) < recHeaderSize {
		return nil, fmt.Errorf("wal: record header truncated (%d bytes)", len(buf))
	}
	if RecType(buf[32]) > RecCkptEnd {
		return nil, fmt.Errorf("wal: unknown record type %d", buf[32])
	}
	flags := buf[33]
	if flags&^(recFlagBefore|recFlagAfter|recFlagKey) != 0 {
		return nil, fmt.Errorf("wal: unknown record flags %#x", flags)
	}
	kLen := int(binary.LittleEndian.Uint32(buf[34:38]))
	bLen := int(binary.LittleEndian.Uint32(buf[38:42]))
	aLen := int(binary.LittleEndian.Uint32(buf[42:46]))
	body := buf[recHeaderSize:]
	total := kLen + bLen + aLen
	if total < 0 || len(body) < total {
		return nil, fmt.Errorf("wal: record body truncated (want %d, have %d)", total, len(body))
	}
	r.LSN = binary.LittleEndian.Uint64(buf[0:8])
	r.Txn = cc.TxnID(binary.LittleEndian.Uint64(buf[8:16]))
	r.TS = cc.Timestamp(binary.LittleEndian.Uint64(buf[16:24]))
	r.Part = binary.LittleEndian.Uint64(buf[24:32])
	r.Type = RecType(buf[32])
	r.Key, r.Before, r.After = nil, nil, nil
	if flags&recFlagKey != 0 {
		r.Key = body[:kLen:kLen]
	} else if kLen != 0 {
		return nil, fmt.Errorf("wal: %d key bytes on a record flagged key=nil", kLen)
	}
	if flags&recFlagBefore != 0 {
		r.Before = body[kLen : kLen+bLen : kLen+bLen]
	} else if bLen != 0 {
		return nil, fmt.Errorf("wal: %d before bytes on a record flagged before=nil", bLen)
	}
	if flags&recFlagAfter != 0 {
		r.After = body[kLen+bLen : total : total]
	} else if aLen != 0 {
		return nil, fmt.Errorf("wal: %d after bytes on a record flagged after=nil", aLen)
	}
	return body[total:], nil
}

// Frame format: every record in a log segment is preceded by an 8-byte
// header guarding its physical integrity, so recovery can detect a torn or
// bit-rotted final frame and truncate the log at the last valid boundary.
//
//	[0:4] payload length (EncodeRecord bytes)
//	[4:8] CRC32 (IEEE) of the payload
//	[8:]  payload
const frameHeaderSize = 8

// maxFramePayload bounds a single record frame; a length field beyond it is
// treated as tail corruption rather than attempting a giant read.
const maxFramePayload = 1 << 28

// appendFrame appends r's framed wire encoding to dst and returns the
// extended slice.
func appendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = EncodeRecord(dst, r)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeFrame parses one framed record from the front of buf into r,
// returning the number of bytes consumed. A truncated header or payload, a
// CRC mismatch, or a payload that does not decode to exactly one record all
// fail — the caller treats the failure point as the end of the valid log.
// The record's Key, Before and After alias buf (see DecodeRecord).
func decodeFrame(buf []byte, r *Record) (int, error) {
	if len(buf) < frameHeaderSize {
		return 0, fmt.Errorf("wal: frame header torn (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n < recHeaderSize || n > maxFramePayload {
		return 0, fmt.Errorf("wal: implausible frame length %d", n)
	}
	if len(buf)-frameHeaderSize < n {
		return 0, fmt.Errorf("wal: frame payload torn (want %d, have %d)", n, len(buf)-frameHeaderSize)
	}
	payload := buf[frameHeaderSize : frameHeaderSize+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return 0, fmt.Errorf("wal: frame CRC mismatch (%#x != %#x)", got, want)
	}
	rest, err := DecodeRecord(payload, r)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("wal: %d stray bytes inside frame", len(rest))
	}
	return frameHeaderSize + n, nil
}

// DecodeFrame parses exactly one framed record occupying the whole of buf
// into r — the replication layer's entry point for decoding a shipped
// frame. The record's Key, Before and After alias buf, so decoding allocates
// nothing; they stay valid as long as buf does (log bytes are write-once).
func DecodeFrame(buf []byte, r *Record) error {
	n, err := decodeFrame(buf, r)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("wal: %d stray bytes after frame", len(buf)-n)
	}
	return nil
}

// scanFrames reads buf frame by frame as Restart reads a segment after a
// power failure: a frame counts when it passes its CRC, decodes to exactly
// one record, and carries an LSN above the last one counted (after, for the
// first frame of buf) unless that is 0. It appends the end offset of every
// frame that counts to ends and stops at the first one that does not — the
// torn or corrupt tail, if buf has one, starts at the last offset appended
// (0 if none). It returns the extended ends and the LSNs of the first and
// the last frame that counted (0 and after when none did).
func scanFrames(buf []byte, ends []int, after uint64) (_ []int, first, last uint64) {
	var rec Record
	last = after
	for off := 0; off < len(buf); {
		n, err := decodeFrame(buf[off:], &rec)
		if err != nil || last > 0 && rec.LSN <= last {
			break
		}
		if off == 0 {
			first = rec.LSN
		}
		off += n
		ends = append(ends, off)
		last = rec.LSN
	}
	return ends, first, last
}
