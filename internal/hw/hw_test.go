package hw

import (
	"math"
	"testing"
	"time"

	"wattdb/internal/sim"
)

func TestDiskServiceTimes(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	hdd := NewDisk(env, HDD, cal)
	ssd := NewDisk(env, SSD, cal)
	var hddTime, ssdTime time.Duration
	env.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		hdd.Read(p, 8192)
		hddTime = p.Now() - start
		start = p.Now()
		ssd.Read(p, 8192)
		ssdTime = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if hddTime < cal.HDDLatency {
		t.Fatalf("hdd read %v, want >= %v", hddTime, cal.HDDLatency)
	}
	if ssdTime >= hddTime {
		t.Fatalf("ssd (%v) should be faster than hdd (%v)", ssdTime, hddTime)
	}
}

func TestDiskQueueing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	ssd := NewDisk(env, SSD, cal)
	done := 0
	for i := 0; i < 10; i++ {
		env.Spawn("io", func(p *sim.Proc) {
			ssd.Read(p, 8192)
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	// 10 serial requests must take 10x one request.
	single := cal.SSDLatency + time.Duration(8192/cal.SSDBandwidth*float64(time.Second))
	if env.Now() < 9*single {
		t.Fatalf("queueing not serialised: total %v, single %v", env.Now(), single)
	}
}

func TestNetworkTransferTimeScalesWithSize(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	net.AddNode(1)
	net.AddNode(2)
	var small, large time.Duration
	env.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		net.Transfer(p, 1, 2, 100)
		small = p.Now() - start
		start = p.Now()
		net.Transfer(p, 1, 2, 32<<20)
		large = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if small < cal.NetLatency {
		t.Fatalf("small transfer %v < latency", small)
	}
	// 32 MB over ~1 Gb/s should take roughly 280 ms.
	if large < 200*time.Millisecond || large > 500*time.Millisecond {
		t.Fatalf("32 MB transfer took %v, want ~287 ms", large)
	}
}

func TestNetworkLocalTransferIsFree(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	net := NewNetwork(env, DefaultCalibration())
	net.AddNode(1)
	env.Spawn("xfer", func(p *sim.Proc) {
		net.Transfer(p, 1, 1, 1<<30)
		if p.Now() != 0 {
			t.Errorf("local transfer consumed time %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkMulticast pins the one-to-many send: k destinations cost k wire
// times on the sender's uplink and one propagation latency, every copy is a
// message charged in full, and a destination equal to the sender is free.
func TestNetworkMulticast(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	for i := 1; i <= 4; i++ {
		net.AddNode(i)
	}
	const bytes = 1 << 20
	wire := net.TransferTime(bytes) - cal.NetLatency
	env.Spawn("send", func(p *sim.Proc) {
		net.Multicast(p, 1, []int{2, 1, 3, 4}, bytes)
		if want := 3*wire + cal.NetLatency; p.Now() != want {
			t.Errorf("send to 3 remote nodes took %v, want 3 x wire + latency = %v", p.Now(), want)
		}
		if net.Messages(1) != 3 || net.BytesSent(1) != 3*bytes {
			t.Errorf("charged %d messages, %d bytes; want 3 and %d", net.Messages(1), net.BytesSent(1), 3*bytes)
		}
		at := p.Now()
		net.Multicast(p, 1, []int{1}, bytes)
		net.Multicast(p, 1, nil, bytes)
		if p.Now() != at || net.Messages(1) != 3 {
			t.Errorf("a send to the sender alone took %v and %d messages", p.Now()-at, net.Messages(1)-3)
		}
		// One destination is a plain transfer.
		net.Multicast(p, 1, []int{2}, bytes)
		if got := p.Now() - at; got != net.TransferTime(bytes) {
			t.Errorf("send to one node took %v, want a transfer's %v", got, net.TransferTime(bytes))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkUplinkContention(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	for i := 1; i <= 3; i++ {
		net.AddNode(i)
	}
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("xfer", func(p *sim.Proc) {
			net.Transfer(p, 1, 2, 10<<20)
			ends = append(ends, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || ends[1] < 2*ends[0]-cal.NetLatency*2-time.Millisecond {
		t.Fatalf("transfers on one uplink should serialise: %v", ends)
	}
}

func TestNodePowerLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	n := NewNode(env, 1, cal, net)
	if n.State() != PowerOff {
		t.Fatalf("new node state = %v, want standby", n.State())
	}
	if got := n.Power(0); got != cal.PowerStandby {
		t.Fatalf("standby power = %v, want %v", got, cal.PowerStandby)
	}
	env.Spawn("op", func(p *sim.Proc) {
		n.PowerOn(p)
		if p.Now() != cal.BootTime {
			t.Errorf("boot finished at %v, want %v", p.Now(), cal.BootTime)
		}
		if n.State() != PowerActive {
			t.Errorf("state after boot = %v", n.State())
		}
		if got := n.Power(1); got != cal.PowerMax {
			t.Errorf("full-load power = %v, want %v", got, cal.PowerMax)
		}
		n.PowerOff(p)
		if n.State() != PowerOff {
			t.Errorf("state after shutdown = %v", n.State())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeComputeQueuesOnCores(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration() // 2 cores
	net := NewNetwork(env, cal)
	n := NewNode(env, 1, cal, net)
	n.ForceActive()
	for i := 0; i < 4; i++ {
		env.Spawn("work", func(p *sim.Proc) {
			n.Compute(p, time.Second)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 2*time.Second {
		t.Fatalf("4 jobs on 2 cores took %v, want 2s", env.Now())
	}
}

func TestCPUUtilizationWindow(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	n := NewNode(env, 1, cal, net)
	n.ForceActive()
	env.Spawn("work", func(p *sim.Proc) {
		n.Compute(p, 5*time.Second) // one of two cores busy for 5s
	})
	var util float64
	env.Spawn("sample", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		util = n.CPUUtilization()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 core-seconds / (10s * 2 cores) = 0.25
	if math.Abs(util-0.25) > 0.01 {
		t.Fatalf("utilisation = %v, want 0.25", util)
	}
}

func TestPowerMeterIntegratesEnergy(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	nodes := []*Node{NewNode(env, 1, cal, net), NewNode(env, 2, cal, net)}
	nodes[0].ForceActive()
	// Node 2 stays in standby.
	meter := NewPowerMeter(env, cal, nodes, time.Second)
	meter.Start()
	if err := env.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Idle active node (22W) + standby (2.5W) + switch (20W) = 44.5 W for 100s.
	want := (cal.PowerIdle + cal.PowerStandby + cal.PowerSwitch) * 100
	got := meter.EnergyJoules()
	if math.Abs(got-want) > want*0.02 {
		t.Fatalf("energy = %v J, want ~%v J", got, want)
	}
}

func TestMinimalClusterPowerMatchesPaper(t *testing.T) {
	// Paper Sect. 3.1: one active node + switch (others standby) ~65 W
	// with 10 nodes total.
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	var nodes []*Node
	for i := 1; i <= 10; i++ {
		nodes = append(nodes, NewNode(env, i, cal, net))
	}
	nodes[0].ForceActive()
	meter := NewPowerMeter(env, cal, nodes, time.Second)
	var watts float64
	env.Spawn("sample", func(p *sim.Proc) {
		p.Sleep(time.Second)
		watts = meter.Sample()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if watts < 60 || watts > 70 {
		t.Fatalf("minimal cluster power = %v W, want ~65 W", watts)
	}
}

func TestFullClusterPowerMatchesPaper(t *testing.T) {
	// Paper: all 10 nodes at full utilisation ~260-280 W.
	env := sim.NewEnv(1)
	defer env.Close()
	cal := DefaultCalibration()
	net := NewNetwork(env, cal)
	var nodes []*Node
	total := cal.PowerSwitch
	for i := 1; i <= 10; i++ {
		n := NewNode(env, i, cal, net)
		n.ForceActive()
		total += n.Power(1)
		nodes = append(nodes, n)
	}
	_ = nodes
	if total < 260 || total > 290 {
		t.Fatalf("full cluster power = %v W, want 260-280 W", total)
	}
}
