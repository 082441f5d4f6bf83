package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark's own loops around exported calls into
// the engine; nothing inside the engine is instrumented. A span carries
// simulated time only: its host interval would contain every other
// simulated process the scheduler interleaved, so host time is attributed
// by the probes instead.

type spanKind uint8

const (
	spanTxn spanKind = iota
	spanBegin
	spanExec
	spanCommit
	spanQuery
	spanMigrate
	spanCkpt
	spanShipDrain
	spanRestart
)

var spanNames = [...]string{"txn", "begin", "exec", "commit", "query", "migrate", "ckpt", "ship_drain", "restart"}

const (
	noSpan int32 = -1
	noTxn  int32 = -1
)

type span struct {
	kind       spanKind
	failed     bool
	txn        int32 // transactions and queries count from 0 in start order; noTxn for daemons
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the plain run's loops carry the same calls at no cost.
type tracer struct {
	spans []span
}

func (t *tracer) open(kind spanKind, txn, parent int32, now time.Duration) int32 {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{kind: kind, txn: txn, parent: parent, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, now time.Duration) {
	if t != nil {
		t.spans[id].end = now
	}
}

// fail marks a span whose call returned an error.
func (t *tracer) fail(id int32) {
	if t != nil {
		t.spans[id].failed = true
	}
}

// write dumps the spans as a JSON array of
// {name, txn, parent, sim_start_ns, sim_end_ns[, failed]} objects. Spans
// still open when the run ended carry sim_end_ns -1.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 128)
	w.WriteString("[\n")
	for i, s := range t.spans {
		buf = buf[:0]
		buf = append(buf, `{"name":"`...)
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, `","txn":`...)
		buf = strconv.AppendInt(buf, int64(s.txn), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"sim_start_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.start), 10)
		buf = append(buf, `,"sim_end_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.end), 10)
		if s.failed {
			buf = append(buf, `,"failed":true`...)
		}
		buf = append(buf, '}')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
