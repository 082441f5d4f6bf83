package hw

import (
	"time"

	"wattdb/internal/sim"
)

// DiskKind distinguishes the node's storage devices.
type DiskKind int

const (
	HDD DiskKind = iota
	SSD
)

// String returns the kind's display name.
func (k DiskKind) String() string {
	if k == HDD {
		return "hdd"
	}
	return "ssd"
}

// Disk models a single storage device with a FIFO request queue (one arm /
// one channel). Random accesses pay the positioning latency; sequential
// batch transfers pay it once.
type Disk struct {
	Kind      DiskKind
	latency   time.Duration
	bandwidth float64
	arm       *sim.Resource

	// stall is an injected extra service time added to every request while
	// set (fault injection: a degraded device, firmware GC pause, cable
	// fault). Zero means healthy.
	stall time.Duration

	// Stats.
	reads, writes int64
	bytesRead     int64
	bytesWritten  int64
}

// NewDisk returns a disk of the given kind using cal's service times.
func NewDisk(env *sim.Env, kind DiskKind, cal Calibration) *Disk {
	d := &Disk{Kind: kind, arm: sim.NewResource(env, 1)}
	if kind == HDD {
		d.latency, d.bandwidth = cal.HDDLatency, cal.HDDBandwidth
	} else {
		d.latency, d.bandwidth = cal.SSDLatency, cal.SSDBandwidth
	}
	return d
}

func (d *Disk) xferTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / d.bandwidth * float64(time.Second))
}

// SetStall injects an extra per-request service time (0 clears the fault).
// Used by the chaos harness to model write stalls and degraded devices.
func (d *Disk) SetStall(extra time.Duration) {
	if extra < 0 {
		extra = 0
	}
	d.stall = extra
}

// Read performs one random read of the given size, waiting for the device.
func (d *Disk) Read(p *sim.Proc, bytes int64) {
	defer p.Meter(sim.CatDiskIO)()
	d.arm.Use(p, 1, func() { p.Sleep(d.stall + d.latency + d.xferTime(bytes)) })
	d.reads++
	d.bytesRead += bytes
}

// Write performs one random write of the given size.
func (d *Disk) Write(p *sim.Proc, bytes int64) {
	defer p.Meter(sim.CatDiskIO)()
	d.arm.Use(p, 1, func() { p.Sleep(d.stall + d.latency + d.xferTime(bytes)) })
	d.writes++
	d.bytesWritten += bytes
}

// ReadSeq performs a sequential read of bytes: one positioning latency plus
// a streaming transfer. Used for whole-segment shipping.
func (d *Disk) ReadSeq(p *sim.Proc, bytes int64) {
	defer p.Meter(sim.CatDiskIO)()
	d.arm.Use(p, 1, func() { p.Sleep(d.stall + d.latency + d.xferTime(bytes)) })
	d.reads++
	d.bytesRead += bytes
}

// WriteSeq performs a sequential write.
func (d *Disk) WriteSeq(p *sim.Proc, bytes int64) {
	defer p.Meter(sim.CatDiskIO)()
	d.arm.Use(p, 1, func() { p.Sleep(d.stall + d.latency + d.xferTime(bytes)) })
	d.writes++
	d.bytesWritten += bytes
}

// AppendLog performs a log append: sequential, no positioning cost beyond a
// small rotational component on HDDs.
func (d *Disk) AppendLog(p *sim.Proc, bytes int64) {
	defer p.Meter(sim.CatLogging)()
	lat := d.latency / 4
	d.arm.Use(p, 1, func() { p.Sleep(d.stall + lat + d.xferTime(bytes)) })
	d.writes++
	d.bytesWritten += bytes
}

// Ops returns cumulative read and write request counts.
func (d *Disk) Ops() (reads, writes int64) { return d.reads, d.writes }

// Bytes returns cumulative bytes read and written.
func (d *Disk) Bytes() (read, written int64) { return d.bytesRead, d.bytesWritten }

// BusyIntegral returns accumulated device busy time in seconds.
func (d *Disk) BusyIntegral() float64 { return d.arm.BusyIntegral() }
