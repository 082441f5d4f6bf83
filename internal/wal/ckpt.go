package wal

import (
	"encoding/binary"
	"fmt"

	"wattdb/internal/cc"
)

// Fuzzy-checkpoint payload. The checkpointer flushes dirty buffer frames
// behind foreground traffic, refreshes the partition recovery bases with
// every committed image whose log record falls below the new redo point,
// and then appends a RecCkptBegin/RecCkptEnd pair; the end record's After
// field carries this payload. On the next restart, replay of each hosted
// partition starts at that partition's redo low-water mark instead of the
// log head — the refreshed bases stand in for everything older — and
// TruncateBefore may recycle all segments below the global redo point
// (subject to the master, wrapper and replica-durable retention floors).
//
// Wire format (all little-endian):
//
//	[0:8]   Begin (LSN of the matching RecCkptBegin record)
//	[8:16]  Redo (global redo point: min over parts and in-flight txns)
//	[16:20] len(Parts)
//	[20:24] len(Txns)
//	then len(Parts) × { [0:8] ID, [8:16] Redo }
//	then len(Txns)  × { [0:8] Txn, [8:16] First }
//
// Decoding is canonical: a short or oversized buffer fails, and entry
// counts are bounded so a corrupt length cannot demand a giant read.

// CkptPart is one hosted partition's redo low-water mark: replay for the
// partition may start at Redo because the recovery base holds every
// committed image below it.
type CkptPart struct {
	ID   uint64
	Redo uint64
}

// CkptTxn is one transaction in flight at the checkpoint (records in the
// log, no commit or abort yet): its first LSN pins the redo point, since
// redo of a late commit — or undo of a loser — needs all of its records.
type CkptTxn struct {
	Txn   cc.TxnID
	First uint64
}

// Checkpoint is the decoded RecCkptEnd payload.
type Checkpoint struct {
	Begin uint64
	Redo  uint64
	Parts []CkptPart
	Txns  []CkptTxn
}

const ckptHeaderSize = 24

// maxCkptEntries bounds the per-payload entry counts; anything beyond it is
// treated as corruption rather than attempting a giant allocation.
const maxCkptEntries = 1 << 20

// EncodeCheckpoint appends c's wire encoding to dst and returns the
// extended slice.
func EncodeCheckpoint(dst []byte, c *Checkpoint) []byte {
	var hdr [ckptHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], c.Begin)
	binary.LittleEndian.PutUint64(hdr[8:16], c.Redo)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(c.Parts)))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(c.Txns)))
	dst = append(dst, hdr[:]...)
	var ent [16]byte
	for i := range c.Parts {
		binary.LittleEndian.PutUint64(ent[0:8], c.Parts[i].ID)
		binary.LittleEndian.PutUint64(ent[8:16], c.Parts[i].Redo)
		dst = append(dst, ent[:]...)
	}
	for i := range c.Txns {
		binary.LittleEndian.PutUint64(ent[0:8], uint64(c.Txns[i].Txn))
		binary.LittleEndian.PutUint64(ent[8:16], c.Txns[i].First)
		dst = append(dst, ent[:]...)
	}
	return dst
}

// DecodeCheckpoint parses one checkpoint payload occupying the whole of
// buf. Decoded slices are copies, not aliases.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	nParts, nTxns, err := checkpointCounts(buf)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{
		Begin: binary.LittleEndian.Uint64(buf[0:8]),
		Redo:  binary.LittleEndian.Uint64(buf[8:16]),
	}
	body := buf[ckptHeaderSize:]
	if nParts > 0 {
		c.Parts = make([]CkptPart, nParts)
		for i := range c.Parts {
			c.Parts[i].ID = binary.LittleEndian.Uint64(body[16*i:])
			c.Parts[i].Redo = binary.LittleEndian.Uint64(body[16*i+8:])
		}
		body = body[16*nParts:]
	}
	if nTxns > 0 {
		c.Txns = make([]CkptTxn, nTxns)
		for i := range c.Txns {
			c.Txns[i].Txn = cc.TxnID(binary.LittleEndian.Uint64(body[16*i:]))
			c.Txns[i].First = binary.LittleEndian.Uint64(body[16*i+8:])
		}
	}
	return c, nil
}

// checkpointCounts checks that buf is one whole checkpoint payload and
// returns its entry counts.
func checkpointCounts(buf []byte) (nParts, nTxns int, err error) {
	if len(buf) < ckptHeaderSize {
		return 0, 0, fmt.Errorf("wal: checkpoint payload truncated (%d bytes)", len(buf))
	}
	nParts = int(binary.LittleEndian.Uint32(buf[16:20]))
	nTxns = int(binary.LittleEndian.Uint32(buf[20:24]))
	if nParts > maxCkptEntries || nTxns > maxCkptEntries {
		return 0, 0, fmt.Errorf("wal: implausible checkpoint entry counts (%d parts, %d txns)", nParts, nTxns)
	}
	if want := 16 * (nParts + nTxns); len(buf)-ckptHeaderSize != want {
		return 0, 0, fmt.Errorf("wal: checkpoint body length %d, want %d", len(buf)-ckptHeaderSize, want)
	}
	return nParts, nTxns, nil
}

// PartRedo returns the redo low-water mark recorded for partition id, or 0
// (replay from the log head) when the payload does not mention it — a
// partition adopted after the checkpoint has all of its records above the
// checkpoint anyway.
func (c *Checkpoint) PartRedo(id uint64) uint64 {
	for i := range c.Parts {
		if c.Parts[i].ID == id {
			return c.Parts[i].Redo
		}
	}
	return 0
}

// LastCheckpoint returns the newest complete checkpoint the table has read:
// the last RecCkptEnd record with a well-formed payload whose begin LSN
// (Part) is the RecCkptBegin read last before it, decoded now. A begin
// without an end does not hide the pair before it, nor does an end that
// names an older begin or carries a torn payload. Nil when the table has
// read no complete pair. A restart's table reads only what survived the
// crash, so a checkpoint whose end record was torn off, or never flushed, is
// invisible to it: the restart falls back to the previous complete pair, or
// to a full replay when none exists.
func (a *Analysis) LastCheckpoint() *Checkpoint {
	ck, _ := DecodeCheckpoint(a.ckEnd) // a kept payload decodes; nil fails
	return ck
}
