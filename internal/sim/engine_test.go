package sim

import "testing"

func TestClockAdvances(t *testing.T) {
	e := New()
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestFIFOOrderAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (order %v)", i, v, i, order)
		}
	}
}

func TestSleepOrdering(t *testing.T) {
	e := New()
	var order []string
	e.Go("late", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		order = append(order, "late")
	})
	e.Go("early", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		order = append(order, "early")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := New()
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childRan = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
	if e.Now() != Time(2*Millisecond) {
		t.Fatalf("clock at %v, want 2ms", e.Now())
	}
}

func TestAfterCallback(t *testing.T) {
	e := New()
	var fired Time = -1
	e.After(3*Millisecond, func() { fired = e.Now() })
	// Keep a process alive so Run has something to do besides the callback.
	e.Go("idle", func(p *Proc) { p.Sleep(5 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != Time(3*Millisecond) {
		t.Fatalf("callback fired at %v, want 3ms", fired)
	}
}

func TestHaltKillsDaemons(t *testing.T) {
	e := New()
	ticks := 0
	e.Go("daemon", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	e.Go("main", func(p *Proc) {
		p.Sleep(3*Second + Millisecond)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ticks != 3 {
		t.Fatalf("daemon ticked %d times, want 3", ticks)
	}
	if e.Procs() != 0 {
		t.Fatalf("%d processes leaked", e.Procs())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	e.Go("stuck", func(p *Proc) {
		p.Block() // nobody will ever wake us
	})
	if err := e.Run(); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if e.Procs() != 0 {
		t.Fatalf("%d processes leaked after deadlock", e.Procs())
	}
}

func TestWakeBlockedProc(t *testing.T) {
	e := New()
	var blocked *Proc
	var woke Time = -1
	e.Go("waiter", func(p *Proc) {
		blocked = p
		p.Block()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(7 * Millisecond)
		e.Wake(blocked)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != Time(7*Millisecond) {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := New()
		rng := NewRNG(42)
		var times []Time
		for i := 0; i < 20; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(rng.Duration(0, Millisecond))
				}
				times = append(times, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	e := New()
	done := false
	e.Go("p", func(p *Proc) {
		p.Sleep(-5)
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done || e.Now() != 0 {
		t.Fatalf("done=%v now=%v", done, e.Now())
	}
}

// TestEngineStats: the engine counts every event it runs, every switch
// into a process and every process Go starts, and keeps the number of
// events pending when the last event ran and the most at any event.
func TestEngineStats(t *testing.T) {
	e := New()
	e.After(5*Millisecond, func() {})
	e.Go("a", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Sleep(Millisecond)
	})
	e.Go("b", func(p *Proc) { p.Sleep(Millisecond) })
	if got := e.Stats(); got != (Stats{ProcsStarted: 2}) {
		t.Fatalf("before Run: %+v, want the two starts alone", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Events: a's and b's starts, their three wakes, the callback.
	want := Stats{Events: 6, Resumes: 5, ProcsStarted: 2, Pending: 0, MaxPending: 2}
	if got := e.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}
