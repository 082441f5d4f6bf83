package wal

import (
	"encoding/binary"
	"fmt"
)

// Master-state payload codecs. The coordinator's catalog and partition table
// are replicated as RecMState records whose After payload is one
// MasterTable: a full snapshot of a single table's routing state. Snapshots
// (rather than deltas) keep replay trivial — the highest-sequence record for
// a table wins — at a wire cost of a few hundred bytes per mutation, which
// the simulated network charges like any other transfer.
//
// MasterTable wire format (all integers little-endian):
//
//	[0:2]  len(name), then name bytes
//	[+0]   scheme byte
//	[+1]   flags (bit 0: replicated table)
//	[+2:+10] next partition ID
//	[+10:+12] entry count
//	per entry:
//	  [0:8]  partition ID
//	  [8:12] owner node ID
//	  [12]   flags (bit 0: old pointer present, bit 1: Low set,
//	         bit 2: High set, bit 3: MovedBelow set)
//	  [old partition ID u64 + old owner u32]  if bit 0
//	  [u16 len + bytes]                       for each set key bound
//
// Nil and empty key bounds are distinct (the flag bits), exactly like
// Before/After images in the record codec: a nil MovedBelow means "no
// migration in progress", which replay must not confuse with a zero-length
// boundary key.

// MasterEntry is one partition-table range (or one replica placement) inside
// a MasterTable snapshot.
type MasterEntry struct {
	PartID     uint64
	OwnerID    uint32
	HasOld     bool
	OldPartID  uint64
	OldOwnerID uint32
	Low        []byte
	High       []byte
	MovedBelow []byte
}

// MasterTable is the replicated snapshot of one table's coordinator state.
type MasterTable struct {
	Name       string
	Scheme     byte
	Replicated bool
	NextPartID uint64
	Entries    []MasterEntry
}

const (
	mtFlagReplicated = 1 << 0

	meFlagOld   = 1 << 0
	meFlagLow   = 1 << 1
	meFlagHigh  = 1 << 2
	meFlagMoved = 1 << 3
)

func appendBound(dst []byte, b []byte) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(b)))
	dst = append(dst, n[:]...)
	return append(dst, b...)
}

// takeBound decodes one length-prefixed partition bound from the front of
// buf. The bound is a copy, for memory: the catalog keeps it as long as the
// partition lives, long past the truncation of the record's segment, which an
// alias would keep alive whole.
func takeBound(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("wal: master bound length truncated")
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) < n {
		return nil, nil, fmt.Errorf("wal: master bound truncated (want %d, have %d)", n, len(buf))
	}
	return append([]byte{}, buf[:n]...), buf[n:], nil
}

// EncodeMasterTable appends t's wire encoding to dst.
func EncodeMasterTable(dst []byte, t *MasterTable) []byte {
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(t.Name)))
	dst = append(dst, u16[:]...)
	dst = append(dst, t.Name...)
	dst = append(dst, t.Scheme)
	var flags byte
	if t.Replicated {
		flags |= mtFlagReplicated
	}
	dst = append(dst, flags)
	binary.LittleEndian.PutUint64(u64[:], t.NextPartID)
	dst = append(dst, u64[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(t.Entries)))
	dst = append(dst, u16[:]...)
	for i := range t.Entries {
		e := &t.Entries[i]
		binary.LittleEndian.PutUint64(u64[:], e.PartID)
		dst = append(dst, u64[:]...)
		binary.LittleEndian.PutUint32(u32[:], e.OwnerID)
		dst = append(dst, u32[:]...)
		var ef byte
		if e.HasOld {
			ef |= meFlagOld
		}
		if e.Low != nil {
			ef |= meFlagLow
		}
		if e.High != nil {
			ef |= meFlagHigh
		}
		if e.MovedBelow != nil {
			ef |= meFlagMoved
		}
		dst = append(dst, ef)
		if e.HasOld {
			binary.LittleEndian.PutUint64(u64[:], e.OldPartID)
			dst = append(dst, u64[:]...)
			binary.LittleEndian.PutUint32(u32[:], e.OldOwnerID)
			dst = append(dst, u32[:]...)
		}
		if e.Low != nil {
			dst = appendBound(dst, e.Low)
		}
		if e.High != nil {
			dst = appendBound(dst, e.High)
		}
		if e.MovedBelow != nil {
			dst = appendBound(dst, e.MovedBelow)
		}
	}
	return dst
}

// DecodeMasterTable parses a MasterTable snapshot from buf. The whole buffer
// must be consumed: stray trailing bytes are an encoding error.
func DecodeMasterTable(buf []byte) (*MasterTable, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("wal: master table name length truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) < nameLen+12 {
		return nil, fmt.Errorf("wal: master table header truncated")
	}
	t := &MasterTable{Name: string(buf[:nameLen])}
	buf = buf[nameLen:]
	t.Scheme = buf[0]
	flags := buf[1]
	if flags&^byte(mtFlagReplicated) != 0 {
		return nil, fmt.Errorf("wal: unknown master table flags %#x", flags)
	}
	t.Replicated = flags&mtFlagReplicated != 0
	t.NextPartID = binary.LittleEndian.Uint64(buf[2:10])
	count := int(binary.LittleEndian.Uint16(buf[10:12]))
	buf = buf[12:]
	t.Entries = make([]MasterEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(buf) < 13 {
			return nil, fmt.Errorf("wal: master entry %d truncated", i)
		}
		var e MasterEntry
		e.PartID = binary.LittleEndian.Uint64(buf[0:8])
		e.OwnerID = binary.LittleEndian.Uint32(buf[8:12])
		ef := buf[12]
		buf = buf[13:]
		if ef&^byte(meFlagOld|meFlagLow|meFlagHigh|meFlagMoved) != 0 {
			return nil, fmt.Errorf("wal: unknown master entry flags %#x", ef)
		}
		if ef&meFlagOld != 0 {
			if len(buf) < 12 {
				return nil, fmt.Errorf("wal: master entry %d old pointer truncated", i)
			}
			e.HasOld = true
			e.OldPartID = binary.LittleEndian.Uint64(buf[0:8])
			e.OldOwnerID = binary.LittleEndian.Uint32(buf[8:12])
			buf = buf[12:]
		}
		var err error
		if ef&meFlagLow != 0 {
			if e.Low, buf, err = takeBound(buf); err != nil {
				return nil, err
			}
		}
		if ef&meFlagHigh != 0 {
			if e.High, buf, err = takeBound(buf); err != nil {
				return nil, err
			}
		}
		if ef&meFlagMoved != 0 {
			if e.MovedBelow, buf, err = takeBound(buf); err != nil {
				return nil, err
			}
		}
		t.Entries = append(t.Entries, e)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("wal: %d stray bytes after master table", len(buf))
	}
	return t, nil
}

// EncodeMasterParticipants appends a RecDecision participant list (node IDs
// of the prepared branches, the set a new leader must still collect acks
// from) to dst.
func EncodeMasterParticipants(dst []byte, nodes []int) []byte {
	var u16 [2]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(nodes)))
	dst = append(dst, u16[:]...)
	for _, n := range nodes {
		binary.LittleEndian.PutUint32(u32[:], uint32(n))
		dst = append(dst, u32[:]...)
	}
	return dst
}

// DecodeMasterParticipants parses a RecDecision participant list.
func DecodeMasterParticipants(buf []byte) ([]int, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("wal: participant count truncated")
	}
	count := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) != 4*count {
		return nil, fmt.Errorf("wal: participant list length %d != 4*%d", len(buf), count)
	}
	nodes := make([]int, 0, count)
	for i := 0; i < count; i++ {
		nodes = append(nodes, int(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return nodes, nil
}

// EncodeMasterAck appends a RecMAck payload — the participant node whose
// branch of the decision's transaction is resolved — to dst.
func EncodeMasterAck(dst []byte, node int) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(node))
	return append(dst, u32[:]...)
}

// DecodeMasterAck parses a RecMAck payload.
func DecodeMasterAck(buf []byte) (int, error) {
	if len(buf) != 4 {
		return 0, fmt.Errorf("wal: ack payload length %d", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf)), nil
}
