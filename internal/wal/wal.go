// Package wal implements per-node write-ahead logging (Sect. 4.3 Logging):
// logical log records with before/after images, group commit against the
// node's log device, checkpoints taken when segments move, and log shipping
// to helper nodes during rebalancing (Sect. 5.2). Restart recovery replays
// committed work and rolls back losers.
//
// The log is physical: Append encodes each record into the active segment's
// byte buffer (per-record frame with length + CRC32, see codec.go), Flush
// persists the byte tail to the device, and recovery decodes segments back
// into records — so replay reads exactly what was written, and a power
// failure can leave a torn or bit-rotted final frame that Restart must
// CRC-detect and truncate at the last valid record boundary.
package wal

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/sim"
)

// RecType tags a log record.
type RecType byte

const (
	RecUpdate RecType = iota
	RecInsert
	RecDelete
	RecCommit
	RecAbort
	RecCheckpoint
	RecSegMove  // segment ownership transferred (movement checkpoint)
	RecPrepare  // two-phase commit prepare vote
	RecPrepDML  // prepare-time redo image of a staged write (After = raw payload)
	RecPrepDel  // prepare-time redo image of a staged delete
	RecDecision // coordinator commit decision (TS = commit timestamp)

	// Master-state records: the coordinator's catalog, partition table,
	// timestamp leases, and decision bookkeeping encoded as ordinary log
	// records, so the master is a WAL-backed state machine whose log can be
	// shipped to follower replicas and replayed after a leader failure. In
	// all of them Part carries the master-state sequence number (the
	// replicated apply order, independent of each replica's local LSNs).
	RecMState // full catalog + partition-table snapshot of one table (After = EncodeMasterTable)
	RecMLease // timestamp-oracle lease grant (TS = first timestamp NOT covered)
	RecMAck   // decision participant resolved (Txn = txn, After = EncodeMasterAck)

	// RecBase is a recovery-base image: one record of a bulk-loaded or
	// adopted-segment partition image, logged so the base rides the same
	// shipped stream as ordinary DML and a replica can rebuild the partition
	// from log frames alone. Replay applies it unconditionally (Txn = 0, no
	// commit record guards it); correctness relies on bases being logged
	// before any DML on their keys, which append order guarantees.
	RecBase // Part = partition, Key/After = the loaded image
	// RecShip is a data-replication wrapper on a FOLLOWER's log: After holds
	// an EncodeShipFrame payload carrying one raw frame of some origin node's
	// log. Replay ignores it (the wrapped record belongs to the origin's
	// partitions); the follower's in-memory replica store is rebuilt from
	// these wrappers on restart.
	RecShip

	// Fuzzy-checkpoint records. A checkpoint is a begin/end pair:
	// RecCkptBegin marks the instant the checkpointer scanned the log and
	// refreshed the partition recovery bases, and RecCkptEnd carries the
	// EncodeCheckpoint payload (per-partition redo low-water marks) that
	// lets the next restart start replay at the redo point instead of the
	// log head. A checkpoint counts only once its end record is durable: a
	// restart that finds the end missing or torn falls back to the previous
	// complete pair. Both are node-local bookkeeping: a rebuilt log replays
	// full history from the replicas' wrappers, so neither ships (and a
	// shipped payload's LSNs would dangle after rebuild renumbering).
	RecCkptBegin // begin marker (no payload)
	RecCkptEnd   // After = EncodeCheckpoint payload; Part = begin LSN
)

// String returns the type's display name.
func (t RecType) String() string {
	return [...]string{"update", "insert", "delete", "commit", "abort", "checkpoint",
		"segmove", "prepare", "prepdml", "prepdel", "decision",
		"mstate", "mlease", "mack", "base", "ship",
		"ckptbegin", "ckptend"}[t]
}

// Record is one logical log record. For ordinary DML, Before and After carry
// fully encoded tree values (opaque to the log), so redo/undo are simple
// Put/Delete calls. Prepare-time DML records (RecPrepDML/RecPrepDel) instead
// carry the raw staged payload: the commit timestamp is unknown until the
// coordinator decides, so a restart that rolls the branch forward stamps it
// as it logs the branch's closing DML. No replay applies a prepare image.
//
// Append encodes the record immediately, so callers may pass slices they
// keep mutating afterwards — the log never aliases caller memory. The other
// way round, every reader hands out aliases: a decoded record's Key, Before
// and After point into the bytes it was decoded from (DecodeFrame,
// VisitFrames, Iterator), and the append hook's frame into the segment. Log
// bytes are write-once — nothing below a segment's length is written after
// its append — so such an alias stays valid for as long as anyone holds it.
type Record struct {
	LSN    uint64
	Txn    cc.TxnID
	Type   RecType
	Part   uint64       // partition the operation applied to
	TS     cc.Timestamp // decision records: the coordinator's commit timestamp
	Key    []byte
	Before []byte // nil: key did not exist
	After  []byte // nil: key removed
}

// Size returns the record's encoded payload length in bytes: exactly what
// EncodeRecord produces. The on-disk footprint adds the frame header
// (FrameSize).
func (r *Record) Size() int64 {
	return int64(recHeaderSize + len(r.Key) + len(r.Before) + len(r.After))
}

// FrameSize returns the record's on-disk footprint: the framed encoded
// length the log charges its device for.
func (r *Record) FrameSize() int64 { return r.Size() + frameHeaderSize }

// Device is where flushed log bytes go: the local log disk, or a helper
// node reached over the network when log shipping is active.
type Device interface {
	Append(p *sim.Proc, bytes int64)
}

// DiskDevice appends to a local disk.
type DiskDevice struct{ Disk *hw.Disk }

// Append writes bytes to the local log disk.
func (d DiskDevice) Append(p *sim.Proc, bytes int64) { d.Disk.AppendLog(p, bytes) }

// ShippedDevice sends log bytes to a helper node's disk over the network,
// relieving the local storage subsystem during rebalancing.
type ShippedDevice struct {
	Net      *hw.Network
	From, To int
	Disk     *hw.Disk // the helper's log disk
}

// Append ships bytes to the helper and appends there.
func (d ShippedDevice) Append(p *sim.Proc, bytes int64) {
	d.Net.Transfer(p, d.From, d.To, bytes)
	d.Disk.AppendLog(p, bytes)
}

// DefaultSegmentBytes is the target byte length of one log segment. The
// active segment seals once it reaches this size and a new one starts;
// TruncateBefore recycles whole sealed segments.
const DefaultSegmentBytes = 32 << 10

// segSlack is the room a new segment's buffer leaves past the seal threshold
// for the frame that crosses it; a larger frame grows the buffer once.
const segSlack = 1 << 10

// logSegment is one contiguous run of encoded record frames. firstLSN and
// ends form the LSN-to-offset mapping: record firstLSN+i occupies
// buf[ends[i-1]:ends[i]] (ends[-1] = 0). buf may additionally hold torn
// trailing bytes past ends[len(ends)-1] after a power failure interrupted a
// device write; Restart's CRC scan truncates them.
//
// The bytes below len(buf) are write-once: appends write only past the
// length, every cut limits the capacity too (so the next append reallocates
// rather than overwriting what was cut off), and the two rewrites, PatchFrame
// and FlipFlushedBit, write into a fresh copy of buf (rewrite).
type logSegment struct {
	firstLSN uint64
	buf      []byte
	ends     []int
}

// lastLSN returns the LSN of the segment's final record (firstLSN-1 when
// the segment holds none).
func (s *logSegment) lastLSN() uint64 { return s.firstLSN + uint64(len(s.ends)) - 1 }

// Log is one node's write-ahead log: a sequence of byte-encoded segments,
// the last of which is the active append tail.
type Log struct {
	env      *sim.Env
	device   Device
	segs     []*logSegment
	segBytes int
	forceNew bool // seal the active segment before the next append
	nextLSN  uint64

	flushedLSN   uint64
	pendingBytes int64 // appended frame bytes not yet durable
	flushing     bool
	flushedSig   *sim.Signal

	// The background flusher behind Kick: a process started by the first Kick,
	// parked on kick whenever nothing at or below kickedTo is left to flush.
	kickedTo uint64
	kick     *sim.Signal

	// down marks the owning node power-failed: appends are dropped and
	// flushes return immediately (there is no device to write to). epoch
	// increments on every crash so an in-flight flush that resumes after the
	// failure knows its device write never completed.
	down  bool
	epoch uint64

	// gen changes whenever a retained frame may read otherwise than when a
	// reader last read it: a crash or Restart cuts the tail, a wipe empties
	// the log, a rewrite patches or damages a frame. Appends and
	// TruncateBefore keep it: what a reader took from the frames they leave
	// is still true.
	gen uint64

	// onAppend, when set, observes every record the moment Append frames it.
	// The frame aliases the segment buffer and stays valid after the call.
	onAppend func(rec Record, frame []byte)

	// lostDurable is set by Restart when the CRC scan truncated below the
	// pre-crash flushed boundary (bit rot inside acked history, or a wiped
	// disk): durable bytes this log once acknowledged are gone, and the owner
	// must rebuild from replicas. Sticky until ClearLostDurable.
	lostDurable bool

	// Stats.
	Flushes      int64
	BytesFlushed int64
	TornDiscards int64 // torn/corrupt tail bytes truncated by Restart
}

// NewLog creates a log writing to device.
func NewLog(env *sim.Env, device Device) *Log {
	return &Log{env: env, device: device, segBytes: DefaultSegmentBytes,
		nextLSN: 1, flushedSig: sim.NewSignal(env)}
}

// SetSegmentBytes overrides the segment seal threshold (tests and tight
// storage budgets).
func (l *Log) SetSegmentBytes(n int) {
	if n > 0 {
		l.segBytes = n
	}
}

// SetDevice swaps the log device (e.g. to start or stop log shipping). The
// caller should Flush first so no pending bytes straddle devices.
func (l *Log) SetDevice(d Device) { l.device = d }

// Append encodes rec into the active segment and returns its LSN. The bytes
// are not durable until a Flush covers them. Appends against a crashed
// node's log are dropped (the node has no power; whoever issued them is a
// process that was already in flight when the failure hit).
func (l *Log) Append(rec Record) uint64 {
	if l.down {
		return l.flushedLSN
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	var s *logSegment
	if n := len(l.segs); n > 0 && !l.forceNew && len(l.segs[n-1].buf) < l.segBytes {
		s = l.segs[n-1]
	} else {
		// Sized once for its whole life: a segment seals at segBytes plus
		// whatever the frame crossing the line overshoots by.
		s = &logSegment{firstLSN: rec.LSN, buf: make([]byte, 0, l.segBytes+segSlack)}
		l.segs = append(l.segs, s)
		l.forceNew = false
	}
	start := len(s.buf)
	s.buf = appendFrame(s.buf, &rec)
	s.ends = append(s.ends, len(s.buf))
	l.pendingBytes += int64(len(s.buf) - start)
	if l.onAppend != nil {
		l.onAppend(rec, s.buf[start:len(s.buf):len(s.buf)])
	}
	return rec.LSN
}

// SetAppendHook installs a callback observing every framed append (the
// data-replication ship queue). The frame passed to the hook aliases the
// segment buffer and stays valid after the call, so the hook may keep it;
// rec's Key, Before and After are the appender's own slices.
func (l *Log) SetAppendHook(fn func(rec Record, frame []byte)) { l.onAppend = fn }

// FlushedLSN returns the highest durable LSN.
func (l *Log) FlushedLSN() uint64 { return l.flushedLSN }

// TailLSN returns the LSN the next Append will get.
func (l *Log) TailLSN() uint64 { return l.nextLSN }

// Flushing reports whether a device write is in flight: a Flush issued now
// queues behind it.
func (l *Log) Flushing() bool { return l.flushing }

// Flush makes all records with LSN <= upTo durable. Concurrent callers are
// group-committed: one flusher writes the whole byte tail in a single
// device append, and everyone who arrives while that write is in flight
// waits for its batch and re-checks — so one forced write covers many
// commits, and a committer whose records were already covered never issues
// a second write.
func (l *Log) Flush(p *sim.Proc, upTo uint64) {
	if upTo >= l.nextLSN {
		upTo = l.nextLSN - 1
	}
	for !l.down && l.flushedLSN < upTo {
		if l.flushing {
			stop := p.Meter(sim.CatLogging)
			l.flushedSig.Wait(p)
			stop()
			continue
		}
		l.flushing = true
		epoch := l.epoch
		target := l.nextLSN - 1
		bytes := l.pendingBytes
		l.pendingBytes = 0
		l.device.Append(p, bytes) // metered as CatLogging by the device
		if l.epoch != epoch {
			// The node power-failed while this write was in flight: the
			// bytes never (fully) reached the platter. Crash() already
			// discarded them and reset the flusher state.
			return
		}
		l.flushing = false
		l.flushedLSN = target
		l.Flushes++
		l.BytesFlushed += bytes
		l.flushedSig.Fire()
	}
}

// Kick starts making everything appended so far durable and returns at once:
// the write is issued by the log's background flusher, at this instant if the
// device is idle and as soon as the write in flight completes otherwise. A
// caller with other work to overlap with its force — a committer shipping to
// followers — kicks, does that work, and then calls Flush, which finds the
// write in flight or done. Everyone else just calls Flush.
func (l *Log) Kick() {
	if l.down || l.flushedLSN+1 >= l.nextLSN {
		return
	}
	l.kickedTo = l.nextLSN - 1
	if l.kick == nil {
		l.kick = sim.NewSignal(l.env)
		l.env.Spawn("log-flusher", func(p *sim.Proc) {
			for {
				for !l.down && l.flushedLSN < l.kickedTo && l.kickedTo < l.nextLSN {
					l.Flush(p, l.kickedTo)
				}
				l.kick.Wait(p)
			}
		})
		return
	}
	l.kick.Fire()
}

// SetupFlush marks the appended tail durable without charging device time.
// Setup-only: cluster construction and table creation happen outside the
// simulation (like BulkLoad, which charges nothing), yet the bootstrap
// master-state records they emit must be durable before the clock starts.
func (l *Log) SetupFlush() {
	if l.down {
		return
	}
	l.flushedLSN = l.nextLSN - 1
	l.pendingBytes = 0
}

// Crash models the owning node's power failure: the volatile byte tail —
// everything beyond the flushed boundary — is lost, in-flight flushes are
// fenced off, and the log stops accepting work until Restart. It returns
// the number of records discarded.
func (l *Log) Crash() int {
	lost, _ := l.crash(0, -1)
	return lost
}

// CrashTorn is Crash with medium-level tail damage: up to keep bytes of the
// frame the device was writing when power cut survive on the platter (a
// torn final record), and flip >= 0 additionally flips one bit within those
// surviving bytes. Without a flip the torn frame is always partial (the
// write never completed); with a flip it may be byte-complete but corrupt —
// either way Restart's CRC scan must truncate it. It returns the records
// discarded and the torn bytes left behind.
func (l *Log) CrashTorn(keep, flip int) (lost, torn int) {
	if keep < 1 {
		keep = 1
	}
	return l.crash(keep, flip)
}

func (l *Log) crash(keep, flip int) (lost, torn int) {
	l.epoch++
	l.gen++
	l.down = true
	l.flushing = false
	lost = int(l.nextLSN - 1 - l.flushedLSN)
	// Locate the durable boundary, capture the frame the device was writing
	// when power cut, and drop every byte past the boundary.
	var frame []byte
	cut := len(l.segs)
	for i, s := range l.segs {
		durable := 0
		if l.flushedLSN >= s.firstLSN {
			durable = int(l.flushedLSN - s.firstLSN + 1)
			if durable > len(s.ends) {
				durable = len(s.ends)
			}
		}
		if durable == len(s.ends) {
			continue // fully durable (a live log has no bytes past its last frame)
		}
		off := 0
		if durable > 0 {
			off = s.ends[durable-1]
		}
		if durable < len(s.ends) {
			frame = s.buf[off:s.ends[durable]]
		}
		s.buf = s.buf[:off:off] // write-once: the torn append below reallocates
		s.ends = s.ends[:durable]
		cut = i
		break
	}
	if cut < len(l.segs) {
		boundary := l.segs[cut]
		l.segs = l.segs[:cut+1]
		if keep > 0 && len(frame) > 0 {
			maxKeep := len(frame) - 1 // an interrupted write never completes its frame...
			if flip >= 0 {
				maxKeep = len(frame) // ...unless the damage is bit rot in a completed one
			}
			if keep > maxKeep {
				keep = maxKeep
			}
			if keep > 0 {
				at := len(boundary.buf)
				boundary.buf = append(boundary.buf, frame[:keep]...)
				if flip >= 0 {
					bit := flip % (keep * 8)
					boundary.buf[at+bit/8] ^= 1 << (bit % 8)
				}
				torn = keep
			}
		}
		if len(boundary.buf) == 0 && len(boundary.ends) == 0 {
			l.segs = l.segs[:cut]
		}
	}
	l.pendingBytes = 0
	// The durable tail is now the log tail: future LSNs continue above it.
	l.nextLSN = l.flushedLSN + 1
	l.flushedSig.Fire() // waiters re-check and see the log is down
	return lost, torn
}

// Restart brings a crashed log back into service by re-deriving its state
// from the durable bytes: every segment is scanned frame by frame, the
// LSN-to-offset mapping is rebuilt, and the scan stops at the first torn or
// CRC-corrupt frame — the damaged tail (an interrupted or bit-rotted device
// write, never acknowledged) is truncated at the last valid record
// boundary. It returns the number of tail bytes discarded.
func (l *Log) Restart() int {
	if !l.down {
		// Restarting a live log would promote its appended-but-unflushed
		// tail to durable without a single device write.
		return 0
	}
	l.down = false
	l.gen++
	prevFlushed := l.flushedLSN
	discarded := 0
	lastValid := uint64(0)
	keep := 0
	for i, s := range l.segs {
		var first uint64
		s.ends, first, lastValid = scanFrames(s.buf, s.ends[:0], lastValid)
		if len(s.ends) > 0 {
			s.firstLSN = first
		}
		keep = i + 1
		off := 0
		if len(s.ends) > 0 {
			off = s.ends[len(s.ends)-1]
		}
		if off < len(s.buf) {
			// Torn/corrupt tail: truncate here and drop everything after.
			discarded += len(s.buf) - off
			s.buf = s.buf[:off:off] // write-once: the next append reallocates
			for _, t := range l.segs[i+1:] {
				discarded += len(t.buf)
			}
			break
		}
	}
	l.segs = l.segs[:keep]
	// Drop segments the truncation emptied entirely.
	for len(l.segs) > 0 {
		if s := l.segs[len(l.segs)-1]; len(s.ends) == 0 && len(s.buf) == 0 {
			l.segs = l.segs[:len(l.segs)-1]
			continue
		}
		break
	}
	if lastValid > 0 {
		l.flushedLSN = lastValid
	}
	if lastValid < prevFlushed {
		// The scan truncated below the pre-crash durable boundary: bytes this
		// log acknowledged as flushed are gone (bit rot inside acked history).
		// An ordinary torn tail never trips this — crash() already dropped
		// everything above flushedLSN before the scan ran.
		l.lostDurable = true
		l.flushedLSN = lastValid
	}
	l.nextLSN = l.flushedLSN + 1
	l.pendingBytes = 0
	l.TornDiscards += int64(discarded)
	return discarded
}

// LostDurable reports whether a Restart (or WipeDisk) detected the loss of
// bytes this log had acknowledged as durable — the owner's partitions cannot
// be recovered locally and must be rebuilt from replicas.
func (l *Log) LostDurable() bool { return l.lostDurable }

// ClearLostDurable acknowledges a durability loss after the owner rebuilt
// its state from replicas.
func (l *Log) ClearLostDurable() { l.lostDurable = false }

// WipeDisk models total loss of the log medium: every segment — including
// acked history — is gone, and LSNs restart from 1 (the rebuilt log is
// renumbered; replicas re-sync from scratch afterwards). Two callers: the
// chaos DestroyDisk fault wipes a crashed node's disk under it, and the
// restart rebuild path wipes a live-again log whose Restart scan found acked
// history rotted beyond local repair, before re-appending the replica's copy.
// LostDurable is set so the restart path knows local recovery is impossible.
func (l *Log) WipeDisk() {
	l.epoch++ // fence any in-flight flush: its device write hit a dead medium
	l.gen++
	l.segs = nil
	l.forceNew = false
	l.flushing = false
	l.flushedLSN = 0
	l.nextLSN = 1
	l.pendingBytes = 0
	l.lostDurable = true
	l.flushedSig.Fire()
}

// walk passes every retained frame to fn in LSN order, with the LSN the
// in-memory LSN-to-offset mapping gives it, so damage to one frame never
// hides the frames behind it (unlike Restart's byte scan, which must
// truncate at the first bad frame). frame aliases the segment buffer, capped
// at its own end; fn returning false stops the walk.
func (l *Log) walk(fn func(lsn uint64, frame []byte) bool) {
	for _, s := range l.segs {
		start := 0
		for i, end := range s.ends {
			if !fn(s.firstLSN+uint64(i), s.buf[start:end:end]) {
				return
			}
			start = end
		}
	}
}

// decodeAt decodes frame, which the offset mapping places at lsn, into rec:
// it reports false when the frame no longer decodes to exactly one record
// carrying lsn.
func decodeAt(frame []byte, lsn uint64, rec *Record) bool {
	n, err := decodeFrame(frame, rec)
	return err == nil && n == len(frame) && rec.LSN == lsn
}

// CheckFlushed CRC-scans the durable portion of every retained segment and
// returns the LSNs of frames that no longer decode — bit rot inside acked
// history. A clean log allocates nothing.
func (l *Log) CheckFlushed() []uint64 {
	var bad []uint64
	var rec Record
	l.walk(func(lsn uint64, frame []byte) bool {
		if lsn > l.flushedLSN {
			return false
		}
		if !decodeAt(frame, lsn, &rec) {
			bad = append(bad, lsn)
		}
		return true
	})
	return bad
}

// PatchFrame overwrites the frame stored at lsn with frame — the scrubber's
// repair path, fed with the replica's copy of the original bytes. The patch
// is refused unless frame is exactly the right length and decodes to a valid
// record carrying lsn.
func (l *Log) PatchFrame(lsn uint64, frame []byte) bool {
	s, start, end := l.locate(lsn)
	if s == nil || len(frame) != end-start {
		return false
	}
	var rec Record
	if !decodeAt(frame, lsn, &rec) {
		return false
	}
	copy(s.rewrite()[start:end], frame)
	l.gen++
	return true
}

// FlipFlushedBit flips one bit inside the payload of a durable, shippable
// frame (chaos fault injection: bit rot in acked history, not the unflushed
// tail Crash already damages). pick deterministically selects the victim
// frame and the bit. Ship-wrapper and checkpoint frames are skipped — no
// replica holds a copy to repair them from. A non-nil eligible predicate
// further restricts the candidates (the chaos harness limits rot to frames
// with a surviving replica copy, since rotting the last copy models
// unrecoverable media loss beyond the redundancy budget, not
// scrubber-repairable decay).
// Returns the damaged LSN, or 0 when the log holds no candidate.
func (l *Log) FlipFlushedBit(pick int, eligible func(lsn uint64) bool) uint64 {
	var cands []uint64
	var rec Record
	l.walk(func(lsn uint64, frame []byte) bool {
		if lsn > l.flushedLSN {
			return false
		}
		if !decodeAt(frame, lsn, &rec) || !Shippable(&rec) {
			return true // already damaged, or a frame no replica holds
		}
		if eligible == nil || eligible(lsn) {
			cands = append(cands, lsn)
		}
		return true
	})
	if len(cands) == 0 {
		return 0
	}
	if pick < 0 {
		pick = -pick
	}
	lsn := cands[pick%len(cands)]
	s, start, end := l.locate(lsn)
	bit := pick % ((end - start - frameHeaderSize) * 8)
	s.rewrite()[start+frameHeaderSize+bit/8] ^= 1 << (bit % 8)
	l.gen++
	return lsn
}

// rewrite replaces the segment's buffer with a fresh copy, keeping the
// capacity an active segment still appends into, and returns it: the one
// way a byte below the length may change (PatchFrame, FlipFlushedBit). The
// old buffer stays as it was for every alias handed out before.
func (s *logSegment) rewrite() []byte {
	buf := make([]byte, len(s.buf), cap(s.buf))
	copy(buf, s.buf)
	s.buf = buf
	return buf
}

// VisitFrames walks every retained frame in LSN order, passing the decoded
// record and its raw frame bytes to fn; fn returning false stops the walk.
// Nothing is copied: frame and the record's Key, Before and After alias the
// segment buffer and stay valid after fn returns, so fn may keep them; only
// rec itself is reused for the next frame, and the walk allocates nothing
// per frame. Frames that no longer decode (bit rot awaiting the scrubber)
// are skipped: the resync and rebuild paths that use this walk must not
// propagate damage.
func (l *Log) VisitFrames(fn func(rec *Record, frame []byte) bool) {
	var rec Record
	l.walk(func(lsn uint64, frame []byte) bool {
		if !decodeAt(frame, lsn, &rec) {
			return true
		}
		return fn(&rec, frame)
	})
}

// FramesThrough returns how many retained frames carry an LSN at or below
// upTo, damaged ones included, from the segments' offset maps alone: a reader
// that keeps some of those frames sizes its slices once from it.
func (l *Log) FramesThrough(upTo uint64) int {
	n := 0
	for _, s := range l.segs {
		if upTo < s.firstLSN {
			break
		}
		n += int(min(upTo-s.firstLSN+1, uint64(len(s.ends))))
	}
	return n
}

// locate finds the segment holding lsn and its frame's bounds in the
// segment's buffer; s is nil when no retained segment holds lsn.
func (l *Log) locate(lsn uint64) (s *logSegment, start, end int) {
	for _, s := range l.segs {
		if len(s.ends) == 0 || lsn < s.firstLSN || lsn > s.lastLSN() {
			continue
		}
		idx := int(lsn - s.firstLSN)
		if idx > 0 {
			start = s.ends[idx-1]
		}
		return s, start, s.ends[idx]
	}
	return nil, 0, 0
}

// MasterRecord reports whether rec is a replicated coordinator record: Part
// carries a master-state sequence number and election replay applies it. A
// decision without a participant list is the unreplicated coordinator's local
// form, whose verdicts live in stable metadata.
func MasterRecord(rec *Record) bool {
	switch rec.Type {
	case RecMState, RecMLease, RecMAck:
		return true
	}
	return rec.Type == RecDecision && rec.After != nil
}

// Shippable reports whether rec belongs to the node's replicated stream.
// Ship wrappers are follower-local bookkeeping (forwarding them would nest
// the streams) and checkpoint records describe this log's local truncation
// state: a rebuilt log replays full history, and their LSNs would dangle
// after renumbering.
func Shippable(rec *Record) bool {
	switch rec.Type {
	case RecShip, RecCkptBegin, RecCkptEnd:
		return false
	}
	return rec.Type != RecDecision || MasterRecord(rec)
}

// Checkpoint seals the active segment, appends a checkpoint record (opening
// a fresh segment), and flushes through it — so a following TruncateBefore
// can recycle every segment written before the checkpoint. It returns the
// checkpoint LSN.
func (l *Log) Checkpoint(p *sim.Proc) uint64 {
	l.forceNew = true
	lsn := l.Append(Record{Type: RecCheckpoint})
	l.Flush(p, lsn)
	return lsn
}

// TruncateBefore recycles whole segments whose records all have LSN < lsn
// and are durable: a segment ending at lsn-1 goes, one ending at lsn stays.
// Reclamation is segment-at-a-time: a segment holding any record >= lsn is
// kept entirely, so RetainedBytes stays the exact byte length of the
// surviving segments. It reports whether it recycled any. The log keeps no
// retention rule of its own: the caller's lsn is the whole decision (the
// checkpoint's floor, which covers every follower's replica-durable
// watermark).
func (l *Log) TruncateBefore(lsn uint64) bool {
	cut := 0
	for cut < len(l.segs) {
		s := l.segs[cut]
		if len(s.ends) == 0 || s.lastLSN() >= lsn || s.lastLSN() > l.flushedLSN {
			break
		}
		cut++
	}
	l.segs = l.segs[cut:]
	return cut > 0
}

// RetainedBytes returns the exact byte length of the retained log segments
// (storage metric).
func (l *Log) RetainedBytes() int64 {
	var total int64
	for _, s := range l.segs {
		total += int64(len(s.buf))
	}
	return total
}

// Iterator walks the log's encoded segments, decoding one record per Next.
// Each record's Key, Before and After alias the segment and stay valid after
// later appends, rewrites and cuts, so callers may hold the records across
// simulated time (a replay keeps its losers' records for the undo pass). It
// covers every retained byte — durable frames and, on a live log, the
// appended-but-unflushed tail. Iteration stops at a torn or corrupt frame
// (possible only on a crashed log that has not been through Restart); Err
// reports whether the walk ended at damage rather than the clean end. A copy
// of an Iterator reads on from where the original stood.
type Iterator struct {
	segs []*logSegment
	si   int
	off  int
	err  error
}

// Iter returns an iterator over the log's records, decoded from the
// segment bytes in LSN order.
func (l *Log) Iter() *Iterator { return l.IterFrom(0) }

// IterFrom returns an iterator over the log's records at or above lsn: a
// reader that keeps what it took from the log decodes only the frames
// appended since its last read, and reads everything again once Gen has
// moved on. With no record at or above lsn it starts past the last frame,
// where a crashed log's torn bytes still stop it with an error.
func (l *Log) IterFrom(lsn uint64) *Iterator {
	it := &Iterator{segs: l.segs}
	if len(l.segs) == 0 {
		return it
	}
	it.si = min(sort.Search(len(l.segs), func(i int) bool { return l.segs[i].lastLSN() >= lsn }), len(l.segs)-1)
	s := l.segs[it.si]
	if i := int(min(max(lsn, s.firstLSN), s.lastLSN()+1) - s.firstLSN); i > 0 {
		it.off = s.ends[i-1]
	}
	return it
}

// Gen returns the log's generation: a reader that kept what it took from the
// frames may go on from where it stopped as long as Gen has not changed.
func (l *Log) Gen() uint64 { return l.gen }

// Next decodes the next record into rec and reports whether there was one.
func (it *Iterator) Next(rec *Record) bool {
	if it.err != nil {
		return false
	}
	for it.si < len(it.segs) {
		s := it.segs[it.si]
		if it.off >= len(s.buf) {
			it.si++
			it.off = 0
			continue
		}
		n, err := decodeFrame(s.buf[it.off:], rec)
		if err != nil {
			it.err = fmt.Errorf("wal: segment %d offset %d: %w", it.si, it.off, err)
			return false
		}
		it.off += n
		return true
	}
	return false
}

// Err returns the decode error that stopped iteration, if any.
func (it *Iterator) Err() error { return it.err }

// Target is the recovery interface to a partition: raw Put/Delete of
// encoded tree values, bypassing concurrency control. A replay only ever
// hands it logged DML and base images; a prepare image, whose raw payload
// carries no commit timestamp, never reaches it.
type Target interface {
	RecoveryPut(p *sim.Proc, key, val []byte) error
	RecoveryDelete(p *sim.Proc, key []byte) error
}

// Recover replays the log against targets (keyed by partition ID): it reads
// the iterator into a transaction table, then replays one partition after
// another in ascending ID order, each as a restart replays it
// (ReplayPartition), over a copy of the iterator rewound to where it started.
// A decode failure (torn tail not yet truncated by Restart) fails recovery,
// as does a base or DML record for a partition absent from targets.
func Recover(p *sim.Proc, it *Iterator, targets map[uint64]Target) (redone, undone int, err error) {
	head := *it
	a := NewAnalysis()
	for rec := (Record{}); it.Next(&rec); {
		if _, ok := targets[rec.Part]; !ok && (rec.Type == RecBase || isDML(rec.Type)) {
			return 0, 0, fmt.Errorf("wal: recovery for unknown partition %d", rec.Part)
		}
		a.Add(&rec)
	}
	if err := it.Err(); err != nil {
		return 0, 0, err
	}
	for _, part := range slices.Sorted(maps.Keys(targets)) {
		replay := head
		st, err := a.ReplayPartition(p, &replay, part, targets[part])
		redone, undone = redone+st.Redone, undone+st.Undone
		if err != nil {
			return redone, undone, err
		}
	}
	return redone, undone, nil
}

// Analysis is a log's transaction table, as in ARIES, built record by record
// (Add) in LSN order. Every reader of transaction outcomes asks it — restart
// (which transactions are in doubt, which win the replay, which outstanding
// coordinator decisions the log already closed), the fuzzy checkpoint (which
// transactions pin the redo point, whose images refresh the recovery bases)
// and the coordinator's post-election reconciliation — so the checkpoint's
// redo point and the restart's replay can never disagree about a
// transaction. It keeps no records: a node keeps one table between its reads
// and adds only the frames appended since (IterFrom from Next), and a
// restart builds its table in the one read of its recovered log that also
// finds the newest complete checkpoint (LastCheckpoint); each partition
// replay then reads the log again from its own redo point, up to where the
// table has read. The table holds only what the log says: a coordinator
// verdict reaches it as the closing records a restart logs for an in-doubt
// branch, never as a side entry.
//
// Records with Txn 0 belong to no transaction (bases, ship wrappers,
// checkpoint and coordinator records) and have no row.
type Analysis struct {
	next uint64 // one past the last LSN added (0: none)
	txns map[cc.TxnID]*TxnEntry
	open map[cc.TxnID]*TxnEntry // the rows in flight (InFlightSince)

	ckBegin uint64 // the last RecCkptBegin added
	ckEnd   []byte // the newest complete checkpoint's payload (LastCheckpoint; nil: none)
}

// TxnEntry is one transaction's row in the transaction table.
type TxnEntry struct {
	First     uint64   // LSN of its first DML or prepare record (0: none)
	End       uint64   // LSN of its last commit or abort record (0: none)
	Parts     []uint64 // partitions its DML and prepare images touched
	Images    []Record // its prepare-time redo images, in LSN order
	Prepared  bool     // a prepare vote is logged
	Committed bool     // a commit record is logged (End != 0 without it: aborted)
}

// NewAnalysis returns an empty transaction table.
func NewAnalysis() *Analysis {
	return &Analysis{txns: make(map[cc.TxnID]*TxnEntry), open: make(map[cc.TxnID]*TxnEntry)}
}

// Add enters the record that follows every record added so far into the
// table. A prepare image keeps the record's slices, and the newest complete
// checkpoint its end record's payload; both alias the log's write-once bytes
// as every log reader's do.
func (a *Analysis) Add(r *Record) {
	a.next = r.LSN + 1
	switch r.Type {
	case RecCkptBegin:
		a.ckBegin = r.LSN
		return
	case RecCkptEnd:
		if _, _, err := checkpointCounts(r.After); err == nil && a.ckBegin != 0 && r.Part == a.ckBegin {
			a.ckEnd = r.After
		}
		return
	}
	if r.Txn == 0 {
		return
	}
	switch r.Type {
	case RecCommit, RecAbort, RecUpdate, RecInsert, RecDelete, RecPrepare, RecPrepDML, RecPrepDel:
	default:
		return
	}
	t := a.txns[r.Txn]
	if t == nil {
		t = &TxnEntry{}
		a.txns[r.Txn] = t
	}
	switch r.Type {
	case RecCommit, RecAbort:
		t.End, t.Committed = r.LSN, t.Committed || r.Type == RecCommit
		delete(a.open, r.Txn) // nothing reopens it: First is set once, End only rises
		return
	case RecPrepare:
		t.Prepared = true
	case RecPrepDML, RecPrepDel:
		t.Images = append(t.Images, *r)
	}
	if t.First == 0 {
		t.First, a.open[r.Txn] = r.LSN, t
	}
	if r.Type != RecPrepare && !slices.Contains(t.Parts, r.Part) {
		t.Parts = append(t.Parts, r.Part)
	}
}

// Next returns the LSN after the last record added: where the table's next
// read of the log goes on (0 when nothing was added, i.e. the log head).
func (a *Analysis) Next() uint64 { return a.next }

// Txn returns id's row of the transaction table, nil when the log holds
// none of its records.
func (a *Analysis) Txn(id cc.TxnID) *TxnEntry { return a.txns[id] }

// Winner reports whether the replay redoes id: a commit record for it is in
// this log.
func (a *Analysis) Winner(id cc.TxnID) bool {
	t := a.txns[id]
	return t != nil && t.Committed
}

// InDoubt lists, ascending, the transactions with a prepare vote and
// neither a commit nor an abort record: cut down between their vote and
// their verdict, they wait for the coordinator's.
func (a *Analysis) InDoubt() []cc.TxnID {
	return a.sorted(func(t *TxnEntry) bool { return t.Prepared && t.End == 0 })
}

// Resolved reports whether id's branch needs no coordinator verdict: a
// commit or abort record closes it — at the returned LSN — or it was never
// prepared in this log (LSN 0).
func (a *Analysis) Resolved(id cc.TxnID) (bool, uint64) {
	t := a.txns[id]
	if t == nil || !t.Prepared {
		return true, 0
	}
	return t.End != 0, t.End
}

// InFlightSince lists, ascending, the transactions in flight whose first
// DML or prepare record is at or above lsn: no commit or abort record
// follows that first record. A checkpoint pins its redo point at the first
// LSN of each, so every record a later restart could close in doubt or undo
// stays above the point its replay starts from.
func (a *Analysis) InFlightSince(lsn uint64) []cc.TxnID {
	return a.sorted(func(t *TxnEntry) bool { return t.First >= lsn })
}

// sorted lists, ascending, the transactions in flight that keep accepts.
// Only the rows in flight are looked at, so a checkpoint's question costs
// what is in flight, not the whole table.
func (a *Analysis) sorted(keep func(t *TxnEntry) bool) []cc.TxnID {
	var ids []cc.TxnID
	for id, t := range a.open {
		if keep(t) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// ReplayStats reports one replay's work, so restart paths can expose how
// much log a recovery actually touched (the chaos RTO oracle asserts it is
// bounded by the delta since the last checkpoint).
type ReplayStats struct {
	Redone, Undone int
	Bytes          int64  // framed bytes of every record applied
	MinApplied     uint64 // lowest LSN applied (0 = nothing applied)
}

func isDML(t RecType) bool { return t == RecUpdate || t == RecInsert || t == RecDelete }

func (s *ReplayStats) count(r *Record, redo bool) {
	if redo {
		s.Redone++
	} else {
		s.Undone++
	}
	s.Bytes += r.FrameSize()
	if s.MinApplied == 0 || r.LSN < s.MinApplied {
		s.MinApplied = r.LSN
	}
}

// ReplayPartition replays one partition's records, reading the log through
// it — from the partition's checkpoint redo low-water mark, IterFrom(redo) —
// up to where the table has read the log (Next): redo the winners'
// operations (transactions with a commit record in the log) in LSN order,
// then undo the losers' in reverse order using before images. An in-doubt
// branch is no special case: the restart logs its closing records — DML and
// commit, or abort — before the replay, and the table reads them.
// Both passes are idempotent, matching the paper's requirement that "the log
// file is needed to reconstruct partitions and to perform appropriate UNDO
// and REDO operations". Every record below the redo point is covered by the
// refreshed recovery base and never read, so replay work is bounded by the
// delta since the checkpoint instead of the full retained history. An
// iterator from the log head replays everything (no checkpoint, or a
// partition the checkpoint never saw).
//
// Starting at the redo point is sound because a checkpoint lets nothing fall
// below it uncovered: a key whose latest committed image (DML or base
// record) sits below was absorbed into the in-memory recovery base the
// restart pre-applies, and every transaction the checkpoint's own Analysis
// found in flight (InFlightSince) pins the redo point at its first LSN — the
// same transaction table this replay reads — so every record a restart could
// need to close an in-doubt branch, or undo, sits at or above it.
func (a *Analysis) ReplayPartition(p *sim.Proc, it *Iterator, part uint64, tgt Target) (st ReplayStats, err error) {
	// Redo winners forward. Base images redo unconditionally (Txn = 0; a
	// bulk-load base precedes any DML on its keys, and a segment-adoption
	// base — which may supersede older DML — lands at its append position,
	// so pure LSN order converges every key to its latest committed value).
	// Prepare images are never applied: a committed branch's values are the
	// DML logged under its commit record — by its phase two, or by the
	// restart that rolled it forward. The losers' records are kept for the
	// undo pass.
	end := a.next
	var losers []Record
	for r := (Record{}); it.Next(&r) && r.LSN < end; {
		if r.Part != part {
			continue
		}
		switch {
		case r.Type == RecBase:
			err = tgt.RecoveryPut(p, r.Key, r.After)
		case !isDML(r.Type):
			continue
		case !a.Winner(r.Txn):
			losers = append(losers, r)
			continue
		case r.After != nil:
			err = tgt.RecoveryPut(p, r.Key, r.After)
		default:
			err = tgt.RecoveryDelete(p, r.Key)
		}
		if err != nil {
			return st, err
		}
		st.count(&r, true)
	}
	if err := it.Err(); err != nil {
		return st, err
	}
	// Undo losers backward (anything without a commit record in this log).
	// Prepare-time images are never undone: nothing was installed before
	// the commit point, so there is nothing to compensate. A loser below the redo point is a dead one from before an
	// earlier restart — its effects were never replayed into the fresh
	// partition, so there is nothing to undo there either.
	for i := len(losers) - 1; i >= 0; i-- {
		r := &losers[i]
		if r.Before != nil {
			err = tgt.RecoveryPut(p, r.Key, r.Before)
		} else {
			err = tgt.RecoveryDelete(p, r.Key)
		}
		if err != nil {
			return st, err
		}
		st.count(r, false)
	}
	return st, nil
}
