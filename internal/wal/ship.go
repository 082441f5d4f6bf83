package wal

import (
	"encoding/binary"
	"fmt"
)

// Data-replication ship payloads. A follower's log interleaves its own data
// records with RecShip wrappers whose After field carries one of these
// payloads: a single raw frame of some origin node's log, tagged with the
// origin's ID, the frame's origin LSN, and the origin's generation, or a reset
// marker opening a follower's first resync in a new generation. The wrapped
// frame is shipped byte-identical to what the origin appended, so a replica can
// both rebuild the origin's partitions (decode + apply) and hand the exact
// bytes back to the scrubber when the origin's copy bit-rots.
//
// The generation is the origin's restart epoch: every restart opens a new one.
// A frame ships the moment it is appended, before the origin has flushed it,
// so a follower can durably hold a suffix of the stream that its origin then
// loses with its volatile tail and numbers over after the restart. The reset
// marker is how a follower learns to drop it: it carries the new generation
// and a keep-through LSN — frames of the stream the follower holds at or below
// it survived the restart unchanged (a plain restart keeps everything up to
// the origin's restored flushed boundary), frames above it are gone from the
// origin and must never be read again. Keep-through 0 is the wholesale reset
// of a rebuild after total durable loss, which renumbers the origin's log from
// LSN 1: nothing the follower held is addressable any more. Followers retain
// whatever they were shipped; their wrappers have one reader, which applies
// the markers in log order (cluster/datarep.go, streamCopy).
//
// Wire format (all little-endian):
//
//	[0:4]   Origin node ID
//	[4:12]  LSN (the frame's LSN in the origin's log; a reset marker's
//	        keep-through LSN, 0 when it keeps nothing)
//	[12:20] Gen (the origin's generation)
//	[20]    flags (bit 0: reset marker, bit 1: frame present,
//	        bit 2: keep-through present)
//	[21:25] len(Frame)
//	[25:]   Frame
//
// A reset marker carries no frame; a data payload carries a frame, an LSN and
// no keep-through. Decoding is canonical: unknown flags, contradictory
// flag/length/value combinations, or stray trailing bytes all fail.

// ShipFrame is one unit of the replicated data stream.
type ShipFrame struct {
	Origin uint32 // origin node ID
	LSN    uint64 // origin log LSN of Frame (0 on a reset marker)
	Gen    uint64 // origin generation (restart epoch)
	Reset  bool   // first resync in generation Gen: drop what the origin lost
	Keep   uint64 // reset marker: frames held at or below survive (0: none do)
	Frame  []byte // raw origin frame bytes (nil on a reset marker)
}

const shipHeaderSize = 25

const (
	shipFlagReset = 1 << 0
	shipFlagFrame = 1 << 1
	shipFlagKeep  = 1 << 2
)

// EncodeShipFrame appends f's wire encoding to dst and returns the extended
// slice.
func EncodeShipFrame(dst []byte, f *ShipFrame) []byte {
	var hdr [shipHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], f.Origin)
	binary.LittleEndian.PutUint64(hdr[4:12], f.LSN)
	binary.LittleEndian.PutUint64(hdr[12:20], f.Gen)
	if f.Reset {
		hdr[20] |= shipFlagReset
	}
	if f.Keep != 0 {
		hdr[20] |= shipFlagKeep
		binary.LittleEndian.PutUint64(hdr[4:12], f.Keep)
	}
	if f.Frame != nil {
		hdr[20] |= shipFlagFrame
	}
	binary.LittleEndian.PutUint32(hdr[21:25], uint32(len(f.Frame)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Frame...)
	return dst
}

// DecodeShipFrame parses one ship payload occupying the whole of buf.
// Frame is a copy, not an alias, for memory: the frames streamCopy reads from
// a follower's wrappers seed replica stores and the bases a rebuild restores,
// and both keep them past the truncation of the wrapper's segment, which an
// alias would keep alive whole.
func DecodeShipFrame(buf []byte) (*ShipFrame, error) {
	if len(buf) < shipHeaderSize {
		return nil, fmt.Errorf("wal: ship payload truncated (%d bytes)", len(buf))
	}
	f := &ShipFrame{
		Origin: binary.LittleEndian.Uint32(buf[0:4]),
		LSN:    binary.LittleEndian.Uint64(buf[4:12]),
		Gen:    binary.LittleEndian.Uint64(buf[12:20]),
	}
	flags := buf[20]
	if flags&^(shipFlagReset|shipFlagFrame|shipFlagKeep) != 0 {
		return nil, fmt.Errorf("wal: unknown ship flags %#x", flags)
	}
	f.Reset = flags&shipFlagReset != 0
	if flags&shipFlagKeep != 0 {
		if !f.Reset || f.LSN == 0 {
			return nil, fmt.Errorf("wal: keep-through on a data payload, or an empty one")
		}
		f.Keep, f.LSN = f.LSN, 0
	}
	n := int(binary.LittleEndian.Uint32(buf[21:25]))
	body := buf[shipHeaderSize:]
	if n < 0 || len(body) != n {
		return nil, fmt.Errorf("wal: ship frame length %d over %d body bytes", n, len(body))
	}
	if flags&shipFlagFrame != 0 {
		f.Frame = append([]byte{}, body...)
	} else if n != 0 {
		return nil, fmt.Errorf("wal: %d frame bytes on a payload flagged frame=nil", n)
	}
	if f.Reset {
		if f.Frame != nil || f.LSN != 0 {
			return nil, fmt.Errorf("wal: reset marker carrying a frame or LSN")
		}
	} else if f.Frame == nil {
		return nil, fmt.Errorf("wal: ship payload with neither frame nor reset")
	}
	return f, nil
}
