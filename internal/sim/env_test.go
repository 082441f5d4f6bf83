package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var woke time.Duration
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
}

func TestEventOrderingSameInstant(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events ran out of order: %v", order)
		}
	}
}

func TestSpawnInterleaving(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var trace []string
	env.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(time.Second)
		trace = append(trace, "a1")
		p.Sleep(2 * time.Second)
		trace = append(trace, "a3")
	})
	env.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(2 * time.Second)
		trace = append(trace, "b2")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a1", "b2", "a3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := env.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if env.Now() != 10*time.Second {
		t.Fatalf("now = %v, want 10s", env.Now())
	}
}

func TestCloseKillsBlockedProcesses(t *testing.T) {
	env := NewEnv(1)
	cleaned := false
	env.Spawn("immortal", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	if err := env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 1 {
		t.Fatalf("live = %d, want 1", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("live after close = %d, want 0", env.Live())
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

// TestCloseReleasesEveryGoroutine: after Close no goroutine of the
// environment is left — not a never-started process's, not a blocked
// process's, not a pooled coroutine's.
func TestCloseReleasesEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	env.Spawn("done", func(p *Proc) {}) // ends at once: its coroutine is pooled
	env.Spawn("blocked", func(p *Proc) { p.Sleep(time.Hour) })
	if err := env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	env.Spawn("never started", func(p *Proc) {
		t.Error("Close ran the body of a process that had not started")
	})
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("live after close = %d, want 0", env.Live())
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if n > base {
		t.Fatalf("%d goroutines after Close, %d before the environment existed", n, base)
	}
}

// TestSpawnSteadyStateAllocs: once the free list is warm, spawning a
// prebuilt body and running it to completion allocates only the Proc.
func TestSpawnSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	body := func(p *Proc) { p.Yield() }
	run := func() {
		env.Spawn("body", body)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 1 {
		t.Fatalf("spawn and run allocates %.1f objects, want at most 1 (the Proc)", allocs)
	}
}

// TestPanicPropagatesAsFailure: a panic fails the run, and the panicking
// body's coroutine goes back to the free list for the next Spawn.
func TestPanicPropagatesAsFailure(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	bad := env.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	co := bad.co
	err := env.Run()
	if err == nil {
		t.Fatal("expected failure from panicking process")
	}
	if env.Live() != 0 {
		t.Fatalf("live after the panic = %d, want 0", env.Live())
	}
	if next := env.Spawn("next", func(p *Proc) {}); next.co != co {
		t.Fatal("the panicking body's coroutine was not reused by the next Spawn")
	}
}

// TestGoexitEndsTheRunCaller: a body that calls runtime.Goexit (as
// t.FailNow does) ends the goroutine driving Run instead of hanging it, and
// its coroutine, which has exited, is not pooled.
func TestGoexitEndsTheRunCaller(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	fatal := env.Spawn("fatal", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	co := fatal.co
	env.Spawn("quick", func(p *Proc) {}) // ends at once: its coroutine is pooled
	env.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = env.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a body called runtime.Goexit")
	}
	if returned {
		t.Fatal("Run returned although a body called runtime.Goexit")
	}
	for c := env.free; c != nil; c = c.free {
		if c == co {
			t.Fatal("the coroutine of a body that called runtime.Goexit is on the free list")
		}
	}
	if env.free == nil || env.Live() != 1 {
		t.Fatalf("free list %p, %d live processes: want the quick body's coroutine pooled and the bystander live", env.free, env.Live())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		env := NewEnv(42)
		defer env.Close()
		var out []int64
		for i := 0; i < 5; i++ {
			env.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(time.Duration(env.Rand.Intn(1000)) * time.Millisecond)
					out = append(out, int64(p.Now()))
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestYieldRunsPendingEvents(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var trace []string
	env.Spawn("a", func(p *Proc) {
		env.Schedule(p.Now(), func() { trace = append(trace, "event") })
		p.Yield()
		trace = append(trace, "after")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != "event" || trace[1] != "after" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestMeterAccumulatesWaits(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	b := &Breakdown{}
	env.Spawn("m", func(p *Proc) {
		p.Breakdown = b
		stop := p.Meter(CatDiskIO)
		p.Sleep(3 * time.Second)
		stop()
		stop = p.Meter(CatLocking)
		p.Sleep(time.Second)
		stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Get(CatDiskIO) != 3*time.Second {
		t.Fatalf("disk = %v", b.Get(CatDiskIO))
	}
	if b.Get(CatLocking) != time.Second {
		t.Fatalf("locking = %v", b.Get(CatLocking))
	}
	if b.Total() != 4*time.Second {
		t.Fatalf("total = %v", b.Total())
	}
}

// TestForkJoinsSlowestAndFoldsItsBreakdown pins Proc.Fork: the caller waits
// for the slowest child, not for the sum; children meter into breakdowns of
// their own; and only the last finisher's categories are folded into the
// caller's, so the caller's breakdown never exceeds its elapsed time.
func TestForkJoinsSlowestAndFoldsItsBreakdown(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	sleeps := []time.Duration{3 * time.Millisecond, 7 * time.Millisecond, 5 * time.Millisecond}
	cats := []Category{CatDiskIO, CatLogging, CatNetworkIO}
	var elapsed time.Duration
	var order []int
	parent := &Breakdown{}
	seen := map[*Breakdown]bool{parent: true}
	env.Spawn("parent", func(p *Proc) {
		p.Breakdown = parent
		p.Fork("none", 0, func(*Proc, int) { t.Error("body ran for n = 0") })
		if p.Now() != 0 {
			t.Errorf("empty fork advanced the clock to %v", p.Now())
		}
		start := p.Now()
		p.Fork("child", len(sleeps), func(c *Proc, i int) {
			if c.Breakdown == nil || seen[c.Breakdown] {
				t.Errorf("child %d: breakdown %p is missing or shared", i, c.Breakdown)
			}
			seen[c.Breakdown] = true
			stop := c.Meter(cats[i])
			c.Sleep(sleeps[i])
			stop()
			order = append(order, i)
		})
		elapsed = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 7*time.Millisecond {
		t.Fatalf("fork took %v, want the slowest child's 7ms", elapsed)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("finish order %v, want [0 2 1]", order)
	}
	if got := parent.Get(CatLogging); got != 7*time.Millisecond {
		t.Fatalf("last finisher's logging time folded as %v, want 7ms", got)
	}
	if parent.Total() != elapsed {
		t.Fatalf("caller's breakdown sums to %v over %v elapsed: a concurrent wait was counted twice", parent.Total(), elapsed)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes still live after the join", env.Live())
	}
}

// TestForkWithoutBreakdown: children of an unmetered caller stay unmetered.
func TestForkWithoutBreakdown(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ran := 0
	env.Spawn("parent", func(p *Proc) {
		p.Fork("child", 2, func(c *Proc, i int) {
			if c.Breakdown != nil {
				t.Errorf("child %d got a breakdown from an unmetered caller", i)
			}
			c.Sleep(time.Millisecond)
			ran++
		})
		if ran != 2 {
			t.Errorf("join returned after %d of 2 children", ran)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
