package sim

import "testing"

// The engine microbenchmarks measure raw event-loop cost in events per
// host second. They exist to quantify the hot-path overhaul (by-value
// 4-ary heap, same-instant fast path): run them before and after any
// engine change.

// BenchmarkEngineTimerWheel stresses the timer path: a single chain of
// After callbacks, each rescheduling itself at a later instant, plus a
// background population of pending timers so the heap has depth.
func BenchmarkEngineTimerWheel(b *testing.B) {
	const pending = 1024
	e := New()
	// Background timers far in the future give the heap realistic depth.
	for i := 0; i < pending; i++ {
		e.After(Duration(1+i)*3600*Second, func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Microsecond, tick)
		} else {
			e.Halt()
		}
	}
	b.ResetTimer()
	e.After(Microsecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineProcPingPong measures the process-resume handoff: two
// processes alternately waking each other at the current instant, the
// pattern underlying every queue push/pop pair in the cluster.
func BenchmarkEngineProcPingPong(b *testing.B) {
	e := New()
	var ping, pong *Proc
	rounds := 0
	// pong is spawned first so it has registered itself and parked before
	// ping's first Wake.
	e.Go("pong", func(p *Proc) {
		pong = p
		for {
			p.Block()
			e.Wake(ping)
		}
	})
	e.Go("ping", func(p *Proc) {
		ping = p
		for rounds < b.N {
			rounds++
			e.Wake(pong)
			p.Block()
		}
		e.Halt()
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// Each round is two wakes and two resumes: four events.
	b.ReportMetric(float64(4*rounds)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEnginePoll measures an anticipation-style poll: one process
// polls every microsecond for a predicate that turns true four ticks
// later, the shape of the CFQ idle window. Each op is four inline
// predicate evaluations and one resume.
func BenchmarkEnginePoll(b *testing.B) {
	const ticks = 4
	e := New()
	var deadline Time
	due := func() bool { return e.Now() >= deadline }
	polls := 0
	e.Go("poller", func(p *Proc) {
		for polls < b.N {
			polls++
			deadline = p.Now().Add(ticks * Microsecond)
			p.Poll(Microsecond, due)
		}
		e.Halt()
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(ticks*polls)/b.Elapsed().Seconds(), "events/sec")
}

// TestEngineHotPathAllocFree is the alloc regression guard for the
// zero-cost-when-off observability contract: with no probe installed the
// event loop must not allocate per event, and neither may a process
// switch — Sleep (many-procs), Wake/Block (ping-pong), Yield or Poll. It runs
// the benchmarks through testing.Benchmark and fails on any reported
// allocation.
func TestEngineHotPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"TimerWheel", BenchmarkEngineTimerWheel},
		{"ManyProcs", BenchmarkEngineManyProcs},
		{"ProcPingPong", BenchmarkEngineProcPingPong},
		{"Yield", BenchmarkEngineYield},
		{"Poll", BenchmarkEnginePoll},
	} {
		res := testing.Benchmark(bm.fn)
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: %d allocs/op, want 0 (engine hot path must stay allocation-free with observability off)",
				bm.name, allocs)
		}
	}
}

// BenchmarkEngineManyProcs measures heap-ordered resume with a realistic
// process population: 256 processes sleeping deterministic pseudo-random
// durations, as the cluster's rank/handler/daemon mix does.
func BenchmarkEngineManyProcs(b *testing.B) {
	const procs = 256
	e := New()
	rng := NewRNG(1)
	total := 0
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		r := rng.Fork()
		e.Go("p", func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Sleep(r.Duration(Microsecond, Millisecond))
				total++
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineYield measures the same-instant switch: four processes
// yielding to each other in turn, every resume through the now-ring.
func BenchmarkEngineYield(b *testing.B) {
	const procs = 4
	e := New()
	total := 0
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Go("y", func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Yield()
				total++
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/sec")
}
