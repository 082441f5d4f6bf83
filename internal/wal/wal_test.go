package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"wattdb/internal/btree"
	"wattdb/internal/cc"
	"wattdb/internal/hw"
	"wattdb/internal/keycodec"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// countingDevice records appends without timing.
type countingDevice struct {
	appends int
	bytes   int64
	delay   time.Duration
}

func (d *countingDevice) Append(p *sim.Proc, bytes int64) {
	if d.delay > 0 {
		p.Sleep(d.delay)
	}
	d.appends++
	d.bytes += bytes
}

// logOf materialises recs as a physically encoded log (LSNs assigned by
// Append), so replay tests consume decoded segment bytes like real recovery.
func logOf(env *sim.Env, recs []Record) *Log {
	l := NewLog(env, &countingDevice{})
	for i := range recs {
		l.Append(recs[i])
	}
	return l
}

// readAll decodes every retained record of l, up to the first damaged frame.
func readAll(l *Log) ([]Record, error) {
	var recs []Record
	it := l.Iter()
	for r := (Record{}); it.Next(&r); {
		recs = append(recs, r)
	}
	return recs, it.Err()
}

// tableOf adds recs, in order, to a new transaction table.
func tableOf(recs []Record) *Analysis {
	a := NewAnalysis()
	for i := range recs {
		a.Add(&recs[i])
	}
	return a
}

func TestAppendAssignsLSNs(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l1 := l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte("a")})
	l2 := l.Append(Record{Type: RecCommit, Txn: 1})
	if l1 != 1 || l2 != 2 {
		t.Fatalf("lsns = %d, %d", l1, l2)
	}
	if l.FlushedLSN() != 0 {
		t.Fatal("nothing should be durable yet")
	}
}

func TestFlushMakesDurable(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dev := &countingDevice{}
	l := NewLog(env, dev)
	rec := Record{Type: RecInsert, Txn: 1, Key: []byte("k"), After: []byte("v")}
	lsn := l.Append(rec)
	env.Spawn("committer", func(p *sim.Proc) {
		l.Flush(p, lsn)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() != lsn {
		t.Fatalf("flushed = %d, want %d", l.FlushedLSN(), lsn)
	}
	if dev.appends != 1 || dev.bytes != rec.FrameSize() {
		t.Fatalf("device: %d appends, %d bytes (want %d)", dev.appends, dev.bytes, rec.FrameSize())
	}
}

// TestKickForcesInBackground: Kick starts the device write at once and returns;
// the caller's later Flush joins it. A kick that finds a write in flight gets
// the next one the instant that write completes — not when somebody next calls
// Flush — and a crash in between leaves the flusher parked, ready for the log's
// next life.
func TestKickForcesInBackground(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dev := &countingDevice{delay: 2 * time.Millisecond}
	l := NewLog(env, dev)
	env.Spawn("committer", func(p *sim.Proc) {
		first := l.Append(Record{Type: RecCommit, Txn: 1})
		l.Kick()
		if p.Now() != 0 || l.FlushedLSN() != 0 {
			t.Errorf("Kick blocked until %v (flushed %d)", p.Now(), l.FlushedLSN())
		}
		p.Sleep(500 * time.Microsecond) // the work the force overlaps with
		second := l.Append(Record{Type: RecCommit, Txn: 2})
		l.Kick() // the first write is in flight and does not cover this one
		l.Flush(p, first)
		if p.Now() != 2*time.Millisecond {
			t.Errorf("first record durable at %v, want the kicked write's 2ms", p.Now())
		}
		p.Sleep(1500 * time.Microsecond)
		if dev.appends != 1 || l.FlushedLSN() != first {
			t.Errorf("at 3.5ms: %d writes done, flushed %d; want the second write still in flight", dev.appends, l.FlushedLSN())
		}
		l.Flush(p, second)
		if p.Now() != 4*time.Millisecond || dev.appends != 2 {
			t.Errorf("second record durable at %v after %d writes, want 4ms (back to back with the first) and 2", p.Now(), dev.appends)
		}
		l.Kick() // nothing to force
		lost := l.Append(Record{Type: RecCommit, Txn: 3})
		l.Kick()
		p.Sleep(time.Millisecond)
		l.Crash()
		l.Flush(p, lost)
		if l.FlushedLSN() != second {
			t.Errorf("flushed %d after a crash mid-write, want %d", l.FlushedLSN(), second)
		}
		p.Sleep(5 * time.Millisecond)
		l.Restart()
		again := l.Append(Record{Type: RecCommit, Txn: 4})
		l.Kick()
		l.Flush(p, again)
		if l.FlushedLSN() != again || dev.appends != 4 {
			t.Errorf("after the restart: flushed %d (want %d), %d device writes (want 4: the one cut short counts)", l.FlushedLSN(), again, dev.appends)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentBufferAllocatedOnce: a segment's buffer is sized for its whole
// life when the segment opens, so filling it costs no reallocation — the
// doubling it replaced copied every segment twice over.
func TestSegmentBufferAllocatedOnce(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	rec := Record{Type: RecUpdate, Txn: 1, Key: []byte("key-0001"), After: make([]byte, 200)}
	perSeg := DefaultSegmentBytes/int(rec.FrameSize()) + 1
	fill := func() {
		for i := 0; i < perSeg; i++ {
			l.Append(rec)
		}
	}
	for i := 0; i < 8; i++ {
		fill()
	}
	if len(l.segs) < 8 {
		t.Fatalf("%d segments after 8 fills, want >= 8", len(l.segs))
	}
	for _, s := range l.segs[:len(l.segs)-1] {
		if cap(s.buf) != DefaultSegmentBytes+segSlack {
			t.Fatalf("sealed segment holds %d bytes in a %d-byte buffer, want the %d it was opened with",
				len(s.buf), cap(s.buf), DefaultSegmentBytes+segSlack)
		}
	}
}

// TestDecodeFrameAlias: DecodeFrame returns the record that was framed,
// TestAppendAllocatesNothing: an append into an open segment allocates
// nothing, with or without an append hook — the record is framed straight
// into the segment's buffer and handed to the hook by value.
func TestAppendAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(1 << 20) // one open segment holds every append below
	rec := Record{Type: RecUpdate, Txn: 1, Part: 1, Key: []byte("key"), Before: []byte("before"), After: []byte("after")}
	l.Append(rec)
	var hooked int
	for _, hook := range []func(Record, []byte){nil, func(_ Record, frame []byte) { hooked += len(frame) }} {
		l.SetAppendHook(hook)
		if allocs := testing.AllocsPerRun(1000, func() { l.Append(rec) }); allocs != 0 {
			t.Fatalf("Append (hook set: %v) allocates %.0f objects", hook != nil, allocs)
		}
	}
	if len(l.segs) != 1 || hooked == 0 {
		t.Fatalf("%d segments, %d hooked bytes", len(l.segs), hooked)
	}
}

// allocates nothing, and leaves its fields pointing into the frame.
func TestDecodeFrameAlias(t *testing.T) {
	want := Record{LSN: 9, Type: RecUpdate, Txn: 4, Part: 2,
		Key: []byte("key"), Before: []byte{}, After: []byte("after")}
	frame := appendFrame(nil, &want)
	var got Record
	if err := DecodeFrame(frame, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) { // DeepEqual tells a nil field from an empty one
		t.Fatalf("decode: %+v, want %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = DecodeFrame(frame, &got) }); allocs != 0 {
		t.Fatalf("decode allocates %.0f objects", allocs)
	}
	frame[len(frame)-1] ^= 0xff
	if got.After[4] == want.After[4] {
		t.Fatal("the decode copied After out of the frame")
	}
}

// TestLogBytesWriteOnce: every way a reader can hold log bytes — an
// Iterator record, a frame and its decoded Key and After kept past a
// VisitFrames callback, a frame the append hook kept — reads unchanged after
// each write the log makes below a segment's length: the scrubber's
// PatchFrame, FlipFlushedBit's bit rot, and a Restart whose CRC scan cuts the
// log at that rot, followed by appends that refill the cut.
func TestLogBytesWriteOnce(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	var hooked [][]byte
	l.SetAppendHook(func(_ Record, frame []byte) { hooked = append(hooked, frame) })
	upd := func(i int, key, after string) Record {
		return Record{Type: RecUpdate, Txn: 1, Part: 3, Key: []byte(fmt.Sprintf("%s%d", key, i)),
			Before: []byte{}, After: []byte(after)}
	}
	var lsns []uint64
	for i := 0; i < 6; i++ {
		lsns = append(lsns, l.Append(upd(i, "key", "after")))
	}
	flush := func() {
		env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, l.TailLSN()-1) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	read := func() []Record {
		recs, err := readAll(l)
		if err != nil {
			t.Fatalf("iterate: %d records, %v", len(recs), err)
		}
		return recs
	}

	// held is one slice a reader kept, and the bytes it read when it took it.
	type held struct {
		what      string
		got, want []byte
	}
	hold := func() (hs []held) {
		keep := func(what string, b []byte) { hs = append(hs, held{what, b, bytes.Clone(b)}) }
		recs, _ := readAll(l) // up to the first damaged frame
		for _, r := range recs {
			keep(fmt.Sprintf("iterator record %d key", r.LSN), r.Key)
			keep(fmt.Sprintf("iterator record %d after", r.LSN), r.After)
		}
		l.VisitFrames(func(rec *Record, frame []byte) bool {
			keep(fmt.Sprintf("visited frame %d", rec.LSN), frame)
			keep(fmt.Sprintf("visited record %d key", rec.LSN), rec.Key)
			keep(fmt.Sprintf("visited record %d after", rec.LSN), rec.After)
			return true
		})
		for i, frame := range hooked {
			keep(fmt.Sprintf("hooked frame #%d", i), frame)
		}
		return hs
	}
	check := func(event string, hs []held) {
		t.Helper()
		for _, h := range hs {
			if !bytes.Equal(h.got, h.want) {
				t.Errorf("after %s the %s reads %q, want %q", event, h.what, h.got, h.want)
			}
		}
	}

	// PatchFrame.
	hs := hold()
	patched := read()[1]
	other := upd(1, "KEY", "AFTER")
	other.LSN = lsns[1]
	if !l.PatchFrame(lsns[1], appendFrame(nil, &other)) {
		t.Fatal("patch refused")
	}
	want := upd(1, "key", "after")
	want.LSN = lsns[1]
	if !reflect.DeepEqual(patched, want) {
		t.Fatalf("after PatchFrame the iterator's record reads %+v, want %+v", patched, want)
	}
	if !reflect.DeepEqual(read()[1], other) {
		t.Fatal("the patch did not reach the log")
	}
	check("PatchFrame", hs)

	// FlipFlushedBit, aimed at the patched frame.
	hs = hold()
	flipped := read()[1]
	if l.FlipFlushedBit(0, func(lsn uint64) bool { return lsn == lsns[1] }) != lsns[1] ||
		!slices.Equal(l.CheckFlushed(), []uint64{lsns[1]}) {
		t.Fatal("FlipFlushedBit did not rot the frame")
	}
	if !reflect.DeepEqual(flipped, other) {
		t.Fatalf("after FlipFlushedBit the iterator's record reads %+v, want %+v", flipped, other)
	}
	check("FlipFlushedBit", hs)

	// Crash + Restart: the CRC scan cuts the log at the rotted frame, and as
	// many appends as it cut refill the bytes it cut off.
	hs = hold()
	l.Crash()
	if l.Restart() == 0 || !l.LostDurable() || l.TailLSN() != lsns[1] {
		t.Fatalf("restart did not cut the log at the rot: tail %d, want %d", l.TailLSN(), lsns[1])
	}
	for i := 1; i < 6; i++ {
		l.Append(upd(i, "new", "AFTER"))
	}
	flush()
	if recs := read(); len(recs) != 6 || string(recs[5].Key) != "new5" {
		t.Fatalf("the refilled log reads %d records", len(recs))
	}
	check("a cutting Restart and its refill", hs)
}

// TestReadOnlyWalksAllocateNothing: the scrubber's CRC scan of a clean log
// and a VisitFrames walk whose callback reads only fixed fields decode every
// frame by alias and allocate nothing.
func TestReadOnlyWalksAllocateNothing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(256) // several segments
	var last uint64
	for i := 0; i < 64; i++ {
		last = l.Append(Record{Type: RecUpdate, Txn: cc.TxnID(i), Part: 1,
			Key: []byte{byte(i)}, Before: []byte("before"), After: []byte("after")})
	}
	env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, last) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if bad := l.CheckFlushed(); bad != nil {
			t.Fatalf("clean log reports rot at %v", bad)
		}
	}); allocs != 0 {
		t.Fatalf("CheckFlushed allocates %.0f objects on a clean log", allocs)
	}
	var updates, txns int
	if allocs := testing.AllocsPerRun(20, func() {
		updates, txns = 0, 0
		l.VisitFrames(func(rec *Record, _ []byte) bool {
			if rec.Type == RecUpdate {
				updates++
			}
			txns += int(rec.Txn)
			return true
		})
	}); allocs != 0 {
		t.Fatalf("VisitFrames allocates %.0f objects", allocs)
	}
	if updates != 64 || txns != 63*64/2 {
		t.Fatalf("walk saw %d updates, txn sum %d", updates, txns)
	}
}

// TestPhysicalRoundTrip checks that the log stores only encoded bytes and
// that the iterator decodes them back exactly, across a segment seal.
func TestPhysicalRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(128) // force several segments
	want := []Record{
		{Type: RecInsert, Txn: 1, Part: 3, Key: []byte("a"), After: []byte("one")},
		{Type: RecUpdate, Txn: 1, Part: 3, Key: []byte("b"), Before: []byte("x"), After: []byte("two")},
		{Type: RecPrepDML, Txn: 2, Part: 4, Key: []byte("c"), After: []byte("raw")},
		{Type: RecPrepare, Txn: 2},
		{Type: RecDecision, Txn: 2, TS: 42},
		{Type: RecCommit, Txn: 1},
		{Type: RecDelete, Txn: 5, Part: 3, Key: []byte("a"), Before: []byte("one")},
	}
	for i := range want {
		want[i].LSN = l.Append(want[i])
	}
	if len(l.segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(l.segs))
	}
	got, err := readAll(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.LSN != w.LSN || g.Txn != w.Txn || g.Type != w.Type || g.Part != w.Part || g.TS != w.TS ||
			string(g.Key) != string(w.Key) || string(g.Before) != string(w.Before) || string(g.After) != string(w.After) {
			t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, g, w)
		}
	}
}

func TestGroupCommitBatches(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dev := &countingDevice{delay: 10 * time.Millisecond}
	l := NewLog(env, dev)
	const n = 20
	done := 0
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("txn", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			lsn := l.Append(Record{Type: RecCommit, Txn: cc.TxnID(i)})
			l.Flush(p, lsn)
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d", done)
	}
	// All 20 commits arrive within 20µs; the first flush takes 10ms, so
	// the rest must batch into (at most) one more device write.
	if dev.appends > 2 {
		t.Fatalf("appends = %d, want <= 2 (group commit)", dev.appends)
	}
}

// TestLastCheckpointTornPairFallback pins the crash contract of fuzzy
// checkpoints: only a complete, durable RecCkptBegin/RecCkptEnd pair counts.
// A crash between begin and end — or one that tears or fails to flush the
// end record — must fall back to the previous complete checkpoint, never to
// the half-written one. Each check is what a restart finds: the log crashes
// and restarts, and a transaction table reads what it recovered.
func TestLastCheckpointTornPairFallback(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	force := func(lsn uint64) {
		env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, lsn) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	restarted := func() *Checkpoint {
		t.Helper()
		l.Crash()
		l.Restart()
		recs, err := readAll(l)
		if err != nil {
			t.Fatal(err)
		}
		return tableOf(recs).LastCheckpoint()
	}
	if restarted() != nil {
		t.Fatal("empty log reported a checkpoint")
	}
	l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte("a"), After: []byte("1")})

	// First complete pair.
	b1 := l.Append(Record{Type: RecCkptBegin})
	e1 := l.Append(Record{Type: RecCkptEnd, Part: b1,
		After: EncodeCheckpoint(nil, &Checkpoint{Begin: b1, Redo: b1, Parts: []CkptPart{{ID: 7, Redo: b1}}})})
	force(e1)
	ck := restarted()
	if ck == nil || ck.Begin != b1 || ck.PartRedo(7) != b1 {
		t.Fatalf("complete pair not found: %+v", ck)
	}

	// A dangling begin (crash before the end record) must not advance it.
	b2 := l.Append(Record{Type: RecCkptBegin})
	force(b2)
	if ck := restarted(); ck == nil || ck.Begin != b1 {
		t.Fatalf("dangling begin advanced the checkpoint: %+v", ck)
	}

	// An end record with a torn (undecodable) payload is ignored.
	bad := l.Append(Record{Type: RecCkptEnd, Part: b2, After: []byte{1, 2, 3}})
	force(bad)
	if ck := restarted(); ck == nil || ck.Begin != b1 {
		t.Fatalf("torn end payload advanced the checkpoint: %+v", ck)
	}

	// An end record claiming an older begin (a later begin intervened) does
	// not pair up either: the scan between b2 and this end is incomplete.
	stale := l.Append(Record{Type: RecCkptEnd, Part: b1,
		After: EncodeCheckpoint(nil, &Checkpoint{Begin: b1, Redo: b1})})
	force(stale)
	if ck := restarted(); ck == nil || ck.Begin != b1 {
		t.Fatalf("stale end advanced the checkpoint: %+v", ck)
	}

	// A complete second pair is invisible while its end record sits in the
	// unflushed tail (the crash tears it off the platter)...
	e2 := Record{Type: RecCkptEnd, Part: b2,
		After: EncodeCheckpoint(nil, &Checkpoint{Begin: b2, Redo: b2, Parts: []CkptPart{{ID: 7, Redo: b2}}})}
	l.Append(e2)
	if ck := restarted(); ck == nil || ck.Begin != b1 {
		t.Fatalf("unflushed end survived the crash: %+v", ck)
	}
	// ...and wins once durable.
	force(l.Append(e2))
	if ck := restarted(); ck == nil || ck.Begin != b2 || ck.PartRedo(7) != b2 {
		t.Fatalf("durable second pair not selected: %+v", ck)
	}
}

// TestTruncateBeforeExactBoundary pins TruncateBefore's off-by-one contract:
// TruncateBefore(lsn) recycles what lies wholly below lsn, so a segment
// ending exactly at lsn-1 goes while one ending exactly at lsn survives.
func TestTruncateBeforeExactBoundary(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(1) // seal after every record: one segment per LSN
	var last uint64
	for i := 0; i < 6; i++ {
		last = l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte{byte('a' + i)}, After: []byte("v")})
	}
	env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, last) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	const cut = 4
	if !l.TruncateBefore(cut) {
		t.Fatal("truncation recycled nothing")
	}
	recs, err := readAll(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(last-cut+1) || recs[0].LSN != cut {
		t.Fatalf("retained %d records, want exactly LSNs %d..%d (cut-1 recycled, cut kept)", len(recs), cut, last)
	}
	// RetainedBytes is exact: the surviving segments hold these frames only.
	var want int64
	for i := range recs {
		want += recs[i].FrameSize()
	}
	if l.RetainedBytes() != want {
		t.Fatalf("retained %d bytes, want exactly %d", l.RetainedBytes(), want)
	}
	// Nothing lies wholly below the first retained LSN: a second call is a no-op.
	if l.TruncateBefore(cut) {
		t.Fatal("second truncation at the same point recycled again")
	}
}

// TestFramesThrough pins the frame count readers size their slices from: the
// retained frames at or below an LSN, across segment boundaries, and none of
// those a truncation recycled.
func TestFramesThrough(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(128) // several segments
	var last uint64
	for i := 0; i < 40; i++ {
		last = l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte{byte(i)}, After: []byte("value")})
	}
	env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, last) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, upTo := range []uint64{0, 1, 7, last - 1, last, last + 5} {
		if got, want := l.FramesThrough(upTo), int(min(upTo, last)); got != want {
			t.Errorf("FramesThrough(%d) = %d, want %d", upTo, got, want)
		}
	}
	if !l.TruncateBefore(20) {
		t.Fatal("setup: truncation recycled nothing")
	}
	recs, err := readAll(l)
	if err != nil {
		t.Fatal(err)
	}
	first := recs[0].LSN
	for _, upTo := range []uint64{first - 1, first, last} {
		if got, want := l.FramesThrough(upTo), int(upTo-first+1); got != want {
			t.Errorf("after truncation below %d: FramesThrough(%d) = %d, want %d", first, upTo, got, want)
		}
	}
}

// TestCrashDiscardsUnflushedBytes pins the crash fence on the byte log: the
// unflushed tail is gone, the durable prefix decodes, and LSNs continue
// above the durable boundary after restart.
func TestCrashDiscardsUnflushedBytes(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	durable := l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte("a"), After: []byte("1")})
	env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, durable) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: RecInsert, Txn: 2, Key: []byte("b"), After: []byte("2")})
	l.Append(Record{Type: RecCommit, Txn: 2})
	if lost := l.Crash(); lost != 2 {
		t.Fatalf("lost = %d, want 2", lost)
	}
	if discarded := l.Restart(); discarded != 0 {
		t.Fatalf("clean crash discarded %d bytes on restart", discarded)
	}
	recs, err := readAll(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != durable {
		t.Fatalf("recovered %d records", len(recs))
	}
	if next := l.Append(Record{Type: RecAbort, Txn: 2}); next != durable+1 {
		t.Fatalf("post-restart LSN = %d, want %d", next, durable+1)
	}
}

// TestTornTailTruncated crashes with a partially persisted final frame: the
// restart scan must CRC-detect the torn record, truncate at the last valid
// boundary, and leave a fully decodable log.
func TestTornTailTruncated(t *testing.T) {
	for _, keep := range []int{1, 7, 31, 1 << 20} {
		env := sim.NewEnv(1)
		l := NewLog(env, &countingDevice{})
		durable := l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte("a"), After: []byte("acked")})
		env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, durable) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		unflushed := Record{Type: RecInsert, Txn: 2, Key: []byte("b"), After: []byte("never-acked")}
		l.Append(unflushed)
		_, torn := l.CrashTorn(keep, -1)
		if torn < 1 || int64(torn) >= unflushed.FrameSize() {
			t.Fatalf("keep=%d: torn = %d bytes, want a strictly partial frame (< %d)", keep, torn, unflushed.FrameSize())
		}
		if discarded := l.Restart(); discarded != torn {
			t.Fatalf("keep=%d: restart discarded %d bytes, want %d", keep, discarded, torn)
		}
		recs, err := readAll(l)
		if err != nil {
			t.Fatalf("keep=%d: log not clean after torn-tail truncation: %v", keep, err)
		}
		if len(recs) != 1 || string(recs[0].After) != "acked" {
			t.Fatalf("keep=%d: recovered %d records", keep, len(recs))
		}
		if l.FlushedLSN() != durable || l.TailLSN() != durable+1 {
			t.Fatalf("keep=%d: flushed=%d tail=%d after truncation", keep, l.FlushedLSN(), l.TailLSN())
		}
		env.Close()
	}
}

// TestBitFlipTailTruncated crashes leaving a byte-complete final frame with
// one flipped bit — only the CRC can tell it from a valid record — and
// checks recovery truncates it without touching the acked prefix.
func TestBitFlipTailTruncated(t *testing.T) {
	unflushed := Record{Type: RecInsert, Txn: 2, Key: []byte("b"), After: []byte("never-acked")}
	frameLen := int(unflushed.FrameSize())
	for flip := 0; flip < frameLen*8; flip += 13 {
		env := sim.NewEnv(1)
		l := NewLog(env, &countingDevice{})
		durable := l.Append(Record{Type: RecInsert, Txn: 1, Key: []byte("a"), After: []byte("acked")})
		env.Spawn("flush", func(p *sim.Proc) { l.Flush(p, durable) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		l.Append(unflushed)
		_, torn := l.CrashTorn(frameLen, flip)
		if torn != frameLen {
			t.Fatalf("flip=%d: torn = %d, want the complete frame (%d)", flip, torn, frameLen)
		}
		if discarded := l.Restart(); discarded != frameLen {
			t.Fatalf("flip=%d: restart discarded %d bytes, want %d (CRC must reject the flipped frame)",
				flip, discarded, frameLen)
		}
		recs, err := readAll(l)
		if err != nil {
			t.Fatalf("flip=%d: log not clean after bit-flip truncation: %v", flip, err)
		}
		if len(recs) != 1 || string(recs[0].After) != "acked" {
			t.Fatalf("flip=%d: acked record lost (%d records survive)", flip, len(recs))
		}
		env.Close()
	}
}

func TestShippedDeviceUsesNetworkAndHelperDisk(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := hw.TestCalibration()
	net := hw.NewNetwork(env, cal)
	net.AddNode(1)
	net.AddNode(2)
	helper := hw.NewDisk(env, hw.HDD, cal)
	dev := ShippedDevice{Net: net, From: 1, To: 2, Disk: helper}
	l := NewLog(env, dev)
	lsn := l.Append(Record{Type: RecCommit, Txn: 1})
	var took time.Duration
	env.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		l.Flush(p, lsn)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took < cal.NetLatency {
		t.Fatalf("shipped flush took %v, want >= net latency %v", took, cal.NetLatency)
	}
	if _, w := helper.Ops(); w != 1 {
		t.Fatalf("helper disk writes = %d", w)
	}
	if net.BytesSent(1) == 0 {
		t.Fatal("no bytes shipped")
	}
}

// treeTarget adapts a B*-tree to the recovery Target interface.
type treeTarget struct{ tr *btree.Tree }

func (tt treeTarget) RecoveryPut(p *sim.Proc, key, val []byte) error {
	_, err := tt.tr.Put(p, key, val, 0)
	return err
}

func (tt treeTarget) RecoveryDelete(p *sim.Proc, key []byte) error {
	_, err := tt.tr.Delete(p, key, 0)
	return err
}

func TestRecoveryRedoesWinnersUndoesLosers(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	seg := storage.NewSegment(1, 512, 64)
	tr := btree.New(btree.MemPager{Seg: seg}, 0, nil)

	k := func(i int64) []byte { return keycodec.Int64Key(i) }
	l := logOf(env, []Record{
		// txn 1 commits: insert k1=one, update k2 old->two.
		{Type: RecInsert, Txn: 1, Part: 9, Key: k(1), After: []byte("one")},
		{Type: RecUpdate, Txn: 1, Part: 9, Key: k(2), Before: []byte("old"), After: []byte("two")},
		{Type: RecCommit, Txn: 1},
		// txn 2 never commits: its insert must be undone, its delete of
		// k2 restored.
		{Type: RecInsert, Txn: 2, Part: 9, Key: k(3), After: []byte("ghost")},
		{Type: RecDelete, Txn: 2, Part: 9, Key: k(2), Before: []byte("two")},
	})
	env.Spawn("recover", func(p *sim.Proc) {
		// Simulate a partially applied crash state: txn 2's effects hit
		// the "disk" image.
		tr.Put(p, k(2), []byte("old"), 0)
		tr.Put(p, k(3), []byte("ghost"), 0)

		redone, undone, err := Recover(p, l.Iter(), map[uint64]Target{9: treeTarget{tr}})
		if err != nil {
			t.Error(err)
			return
		}
		if redone != 2 || undone != 2 {
			t.Errorf("redone=%d undone=%d, want 2,2", redone, undone)
		}
		if v, ok, _ := tr.Get(p, k(1)); !ok || string(v) != "one" {
			t.Errorf("k1 = %q, %v", v, ok)
		}
		if v, ok, _ := tr.Get(p, k(2)); !ok || string(v) != "two" {
			t.Errorf("k2 = %q, %v (loser delete must be rolled back)", v, ok)
		}
		if _, ok, _ := tr.Get(p, k(3)); ok {
			t.Error("loser insert survived recovery")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	seg := storage.NewSegment(1, 512, 64)
	tr := btree.New(btree.MemPager{Seg: seg}, 0, nil)
	k := keycodec.Int64Key(7)
	l := logOf(env, []Record{
		{Type: RecInsert, Txn: 1, Part: 1, Key: k, After: []byte("v")},
		{Type: RecCommit, Txn: 1},
	})
	env.Spawn("recover-twice", func(p *sim.Proc) {
		targets := map[uint64]Target{1: treeTarget{tr}}
		if _, _, err := Recover(p, l.Iter(), targets); err != nil {
			t.Error(err)
		}
		if _, _, err := Recover(p, l.Iter(), targets); err != nil {
			t.Error(err)
		}
		if n, _ := tr.Count(p); n != 1 {
			t.Errorf("count = %d after double recovery", n)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPartialInDoubtBothDirections replays a log holding two
// prepared branches that a restart closed in doubt before replaying, as
// RestartNode does: one the coordinator decided committed (its prepare
// images re-logged as committed DML, stamped, under a commit record), one
// it did not know (an abort record under presumed abort). The replay
// redoes the first through its closing DML only, never applies a prepare
// image, and undoes the second's partially installed phase-two record.
func TestRecoverPartialInDoubtBothDirections(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	seg := storage.NewSegment(1, 512, 64)
	tr := btree.New(btree.MemPager{Seg: seg}, 0, nil)
	k := func(i int64) []byte { return keycodec.Int64Key(i) }
	l := logOf(env, []Record{
		// txn 5: prepared, decided commit at the coordinator. Its branch
		// never installed locally — only the prepare images are durable.
		{Type: RecPrepDML, Txn: 5, Part: 1, Key: k(1), After: []byte("fwd")},
		{Type: RecPrepDel, Txn: 5, Part: 1, Key: k(2)},
		{Type: RecPrepare, Txn: 5},
		// txn 6: prepared, unknown at the coordinator. One phase-two record
		// made it to disk (page-flush coupling) before the crash.
		{Type: RecPrepDML, Txn: 6, Part: 1, Key: k(3), After: []byte("ghost")},
		{Type: RecPrepare, Txn: 6},
		{Type: RecUpdate, Txn: 6, Part: 1, Key: k(4), Before: []byte("orig"), After: []byte("scribble")},
	})
	env.Spawn("recover", func(p *sim.Proc) {
		// Crash-state disk image: txn 6's partial install is present.
		tr.Put(p, k(2), []byte("doomed"), 0)
		tr.Put(p, k(4), []byte("scribble"), 0)
		recs, err := readAll(l)
		if err != nil {
			t.Error(err)
			return
		}
		a := tableOf(recs)
		if got := a.InDoubt(); !slices.Equal(got, []cc.TxnID{5, 6}) {
			t.Errorf("in doubt = %v, want [5 6]", got)
		}
		// The closing records, then the table's catch-up on them.
		l.Append(Record{Type: RecUpdate, Txn: 5, Part: 1, Key: k(1), After: []byte("fwd@77")})
		l.Append(Record{Type: RecDelete, Txn: 5, Part: 1, Key: k(2)})
		l.Append(Record{Type: RecCommit, Txn: 5})
		l.Append(Record{Type: RecAbort, Txn: 6})
		it := l.IterFrom(a.Next())
		for r := (Record{}); it.Next(&r); {
			a.Add(&r)
		}
		if got := a.InDoubt(); len(got) != 0 {
			t.Errorf("in doubt after closing = %v, want none", got)
		}
		st, err := a.ReplayPartition(p, l.Iter(), 1, treeTarget{tr})
		if err != nil {
			t.Error(err)
			return
		}
		if st.Redone != 2 || st.Undone != 1 {
			t.Errorf("redone=%d undone=%d, want 2,1", st.Redone, st.Undone)
		}
		if v, ok, _ := tr.Get(p, k(1)); !ok || string(v) != "fwd@77" {
			t.Errorf("k1 = %q, %v (the closing DML must roll the branch forward)", v, ok)
		}
		if _, ok, _ := tr.Get(p, k(2)); ok {
			t.Error("k2 survived a rolled-forward delete")
		}
		if _, ok, _ := tr.Get(p, k(3)); ok {
			t.Error("k3 installed from a prepare image (presumed abort violated)")
		}
		if v, ok, _ := tr.Get(p, k(4)); !ok || string(v) != "orig" {
			t.Errorf("k4 = %q, %v (presumed abort must undo the partial install)", v, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// recordingTarget records every call a replay makes, in order.
type recordingTarget struct{ calls []string }

func (r *recordingTarget) RecoveryPut(_ *sim.Proc, key, val []byte) error {
	r.calls = append(r.calls, fmt.Sprintf("put %s=%s", key, val))
	return nil
}

func (r *recordingTarget) RecoveryDelete(_ *sim.Proc, key []byte) error {
	r.calls = append(r.calls, fmt.Sprintf("delete %s", key))
	return nil
}

// TestReplayPartitionCallOrder pins every call a partition replay makes, in
// order, and its ReplayStats, for a replay that starts inside the log: the
// records below its start are never applied, the redo pass applies bases and
// winners in LSN order — an in-doubt branch closed by logged DML and a
// commit record is one of them, through that DML and never its prepare
// images — the undo pass rolls the losers back newest first — a loser with
// three images of one key ends at its oldest before image — and nothing
// appended after the table's read is replayed.
func TestReplayPartitionCallOrder(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLog(env, &countingDevice{})
	l.SetSegmentBytes(128) // the replay crosses segments
	b := func(s string) []byte { return []byte(s) }
	recs := []Record{
		{Type: RecBase, Part: 1, Key: b("k0"), After: b("b0")}, // below the start
		{Type: RecInsert, Txn: 1, Part: 1, Key: b("k1"), After: b("w1")},
		{Type: RecCommit, Txn: 1},
		{Type: RecBase, Part: 1, Key: b("kb"), After: b("base")}, // the replay starts here
		{Type: RecUpdate, Txn: 2, Part: 1, Key: b("ka"), Before: b("a0"), After: b("a1")},
		{Type: RecUpdate, Txn: 3, Part: 1, Key: b("kl"), Before: b("l0"), After: b("l1")},
		{Type: RecUpdate, Txn: 2, Part: 2, Key: b("kx"), Before: b("x0"), After: b("x1")}, // another partition
		{Type: RecUpdate, Txn: 3, Part: 1, Key: b("kl"), Before: b("l1"), After: b("l2")},
		{Type: RecDelete, Txn: 2, Part: 1, Key: b("kd"), Before: b("d0")},
		{Type: RecCommit, Txn: 2},
		{Type: RecPrepDML, Txn: 4, Part: 1, Key: b("kp"), After: b("p1")},
		{Type: RecPrepDel, Txn: 4, Part: 1, Key: b("kq")},
		{Type: RecPrepare, Txn: 4},
		{Type: RecDelete, Txn: 3, Part: 1, Key: b("kl"), Before: b("l2")},
		{Type: RecInsert, Txn: 3, Part: 1, Key: b("kn"), After: b("n1")},
		{Type: RecPrepDML, Txn: 5, Part: 1, Key: b("kz"), After: b("z1")},
		{Type: RecPrepare, Txn: 5},
		{Type: RecUpdate, Txn: 5, Part: 1, Key: b("ky"), Before: b("y0"), After: b("y1")},
		// txn 4's closing records, as a restart logs them from its verdict.
		{Type: RecUpdate, Txn: 4, Part: 1, Key: b("kp"), After: b("p1@77")},
		{Type: RecDelete, Txn: 4, Part: 1, Key: b("kq"), After: b("dead@77")},
		{Type: RecCommit, Txn: 4},
	}
	for i := range recs {
		recs[i].LSN = l.Append(recs[i])
	}
	const from = 4
	a := NewAnalysis()
	it := l.Iter()
	for r := (Record{}); it.Next(&r); {
		a.Add(&r)
	}
	// Appended after the table's read: no replay may apply them.
	l.Append(Record{Type: RecBase, Part: 1, Key: b("late"), After: b("base")})
	l.Append(Record{Type: RecInsert, Txn: 6, Part: 1, Key: b("late6"), After: b("v")})
	l.Append(Record{Type: RecCommit, Txn: 6})

	want := []string{
		"put kb=base",
		"put ka=a1",
		"delete kd",
		"put kp=p1@77",
		"put kq=dead@77",
		"put ky=y0",
		"delete kn",
		"put kl=l2",
		"put kl=l1",
		"put kl=l0",
	}
	var wantSt ReplayStats
	for _, lsn := range []uint64{4, 5, 9, 19, 20} {
		wantSt.Redone++
		wantSt.Bytes += recs[lsn-1].FrameSize()
	}
	for _, lsn := range []uint64{18, 15, 14, 8, 6} {
		wantSt.Undone++
		wantSt.Bytes += recs[lsn-1].FrameSize()
	}
	wantSt.MinApplied = from
	tgt := &recordingTarget{}
	var st ReplayStats
	var err error
	env.Spawn("replay", func(p *sim.Proc) { st, err = a.ReplayPartition(p, l.IterFrom(from), 1, tgt) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tgt.calls, want) {
		t.Fatalf("replay calls:\n  %s\nwant:\n  %s", strings.Join(tgt.calls, "\n  "), strings.Join(want, "\n  "))
	}
	if st != wantSt {
		t.Fatalf("replay stats %+v, want %+v", st, wantSt)
	}
}

func TestRecoveryUnknownPartitionFails(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := logOf(env, []Record{
		{Type: RecInsert, Txn: 1, Part: 42, Key: []byte("k"), After: []byte("v")},
		{Type: RecCommit, Txn: 1},
	})
	env.Spawn("recover", func(p *sim.Proc) {
		if _, _, err := Recover(p, l.Iter(), map[uint64]Target{}); err == nil {
			t.Error("recovery with missing partition should fail")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
