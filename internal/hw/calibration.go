// Package hw models the cluster hardware of the paper's testbed: wimpy
// Amdahl-balanced nodes (Intel Atom D510, 2 GB DRAM, one HDD and two SSDs)
// joined by a Gigabit Ethernet switch. Service times, bandwidths, and power
// draws are collected in a single Calibration struct so experiments can be
// tuned in one place.
package hw

import "time"

// Calibration holds every hardware cost constant used by the simulation.
type Calibration struct {
	// CPU.
	Cores          int           // cores per node (Atom D510: 2 physical)
	CPUTupleScan   time.Duration // CPU service time to scan one record
	CPUTupleProj   time.Duration // CPU time to project one record
	CPUTupleSort   time.Duration // CPU time per record per merge level in sort
	CPUBTreeOp     time.Duration // CPU time per B-tree node traversal step
	CPUTxnOverhead time.Duration // fixed CPU time per transaction (parse/route)
	CPUPageCopy    time.Duration // CPU time to process one page during bulk copy

	// Network. One switch, full duplex per-node links.
	NetLatency   time.Duration // one-way message latency (software stack + wire)
	NetBandwidth float64       // bytes/second per link (Gigabit Ethernet)
	NetFrameSize int           // bytes of per-message framing overhead

	// Disks.
	HDDLatency   time.Duration // average positioning time per random access
	HDDBandwidth float64       // bytes/second sequential
	SSDLatency   time.Duration // access latency per request
	SSDBandwidth float64       // bytes/second

	// Power (Watts). Levels follow Sect. 3.1 of the paper.
	PowerStandby float64 // node in standby
	PowerIdle    float64 // node active, 0% utilisation
	PowerMax     float64 // node active, 100% utilisation
	PowerSwitch  float64 // interconnect switch, always on

	// Node state transitions.
	BootTime     time.Duration // standby -> active
	ShutdownTime time.Duration // active -> standby

	// Memory: buffer pool frames per node (2 GB / 8 KB in the paper;
	// scaled down by presets).
	BufferFrames int

	// Storage layout.
	PageSize     int // bytes per page
	SegmentPages int // pages per segment (4096 in the paper = 32 MB)
}

// DefaultCalibration models the paper's testbed at full fidelity: 32 MB
// segments and service times calibrated so the micro-benchmarks land near
// the paper's absolute numbers (~40 k records/s local scan, <1 k records/s
// naive remote operators, 22-26 W per node).
func DefaultCalibration() Calibration {
	return Calibration{
		Cores:          2,
		CPUTupleScan:   25 * time.Microsecond,
		CPUTupleProj:   4 * time.Microsecond,
		CPUTupleSort:   3 * time.Microsecond,
		CPUBTreeOp:     2 * time.Microsecond,
		CPUTxnOverhead: 150 * time.Microsecond,
		CPUPageCopy:    10 * time.Microsecond,

		NetLatency:   500 * time.Microsecond,
		NetBandwidth: 117e6, // ~1 Gbit/s minus framing
		NetFrameSize: 64,

		HDDLatency:   7 * time.Millisecond,
		HDDBandwidth: 90e6,
		SSDLatency:   120 * time.Microsecond,
		SSDBandwidth: 230e6,

		PowerStandby: 2.5,
		PowerIdle:    22,
		PowerMax:     26,
		PowerSwitch:  20,

		BootTime:     10 * time.Second,
		ShutdownTime: 3 * time.Second,

		BufferFrames: 16384, // scaled-down DRAM (tests override further)
		PageSize:     8192,
		SegmentPages: 4096,
	}
}

// TestCalibration returns a scaled-down calibration for unit tests: small
// segments and buffers so migrations exercise many segments without large
// allocations.
func TestCalibration() Calibration {
	c := DefaultCalibration()
	c.SegmentPages = 64
	c.BufferFrames = 512
	return c
}
