package sim

import "testing"

// The engine microbenchmarks measure raw event-loop cost in events per
// host second. They exist to quantify the hot-path overhaul (by-value
// 4-ary heap, same-instant fast path): run them before and after any
// engine change.

// An engineLoad builds an engine that, when Run, performs n operations
// of one hot path, and returns it with a func reporting the events the
// run processed.
type engineLoad func(n int) (e *Engine, events func() int)

// benchEngine runs load at b.N operations and reports events per host
// second.
func benchEngine(b *testing.B, load engineLoad) {
	e, events := load(b.N)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineTimerWheel stresses the timer path: a single chain of
// After callbacks, each rescheduling itself at a later instant, plus a
// background population of pending timers so the heap has depth.
func BenchmarkEngineTimerWheel(b *testing.B) { benchEngine(b, timerWheel) }

func timerWheel(ops int) (*Engine, func() int) {
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
		if n < ops {
			e.After(Microsecond, tick)
		} else {
			e.Halt()
		}
	}
	e.After(Microsecond, tick)
	return e, func() int { return n }
}

// BenchmarkEngineProcPingPong measures the process-resume handoff: two
// processes alternately waking each other at the current instant, the
// pattern underlying every queue push/pop pair in the cluster.
func BenchmarkEngineProcPingPong(b *testing.B) { benchEngine(b, procPingPong) }

func procPingPong(ops int) (*Engine, func() int) {
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
		for rounds < ops {
			rounds++
			e.Wake(pong)
			p.Block()
		}
		e.Halt()
	})
	// Each round is two wakes and two resumes: four events.
	return e, func() int { return 4 * rounds }
}

// BenchmarkEngineAwaitCallback measures an armed wait: a callback wait
// awaits work on a microsecond grid, with nothing armed while there is
// none, and a producer process that adds work every 3.5 µs kicks it.
// Each check that finds work runs the continuation inline, which takes
// the work and waits again. Each op is the producer's wake, its Kick,
// and the one armed check: two events.
func BenchmarkEngineAwaitCallback(b *testing.B) { benchEngine(b, engineAwaitCallback) }

func engineAwaitCallback(ops int) (*Engine, func() int) {
	e := New()
	work := 0
	ready := func() bool { return work > 0 }
	earliest := func() Time {
		if work > 0 {
			return e.Now()
		}
		return Never
	}
	waits := 0
	var w *Wait
	w = e.NewWait(func() {
		work--
		if waits == ops {
			e.Halt()
			return
		}
		waits++
		w.Await(Microsecond, ready, earliest)
	})
	waits++
	w.Await(Microsecond, ready, earliest)
	e.Go("producer", func(p *Proc) {
		for {
			p.Sleep(3500 * Nanosecond)
			work++
			w.Kick()
		}
	})
	return e, func() int { return 2 * waits }
}

// TestEngineHotPathAllocFree is the engine's alloc regression guard: the
// event loop, which counts its work in plain fields (Stats), must not
// allocate per event, and neither may a process switch — Sleep
// (many-procs), Wake/Block (ping-pong), Sleep(0) — or a callback wait
// re-armed by Kick. It runs each benchmark's load at a fixed operation
// count and fails on any allocation per operation (mallocs over the run
// divided by the count, rounded down as testing.B reports it).
func TestEngineHotPathAllocFree(t *testing.T) {
	const ops = 1 << 14
	for _, l := range []struct {
		name string
		load engineLoad
	}{
		{"TimerWheel", timerWheel},
		{"ManyProcs", manyProcs},
		{"ProcPingPong", procPingPong},
		{"Yield", engineYield},
		{"callback Await+Kick", engineAwaitCallback},
	} {
		// AllocsPerRun makes one warm-up run before the measured one, and
		// an engine runs once, so build both up front.
		var runs [2]*Engine
		for i := range runs {
			runs[i], _ = l.load(ops)
		}
		next := 0
		mallocs := testing.AllocsPerRun(1, func() {
			if err := runs[next].Run(); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if perOp := int(mallocs) / ops; perOp != 0 {
			t.Errorf("%s: %d allocs/op, want 0 (engine hot path must stay allocation-free)",
				l.name, perOp)
		}
	}
}

// BenchmarkEngineManyProcs measures heap-ordered resume with a realistic
// process population: 256 processes sleeping deterministic pseudo-random
// durations, as the cluster's rank/handler/daemon mix does.
func BenchmarkEngineManyProcs(b *testing.B) { benchEngine(b, manyProcs) }

func manyProcs(ops int) (*Engine, func() int) {
	const procs = 256
	e := New()
	rng := NewRNG(1)
	total := 0
	perProc := ops/procs + 1
	for i := 0; i < procs; i++ {
		r := rng.Fork()
		e.Go("p", func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Sleep(r.Duration(Microsecond, Millisecond))
				total++
			}
		})
	}
	return e, func() int { return total }
}

// BenchmarkEngineYield measures the same-instant switch: four processes
// yielding to each other in turn with Sleep(0), every resume through the
// now-ring.
func BenchmarkEngineYield(b *testing.B) { benchEngine(b, engineYield) }

func engineYield(ops int) (*Engine, func() int) {
	const procs = 4
	e := New()
	total := 0
	perProc := ops/procs + 1
	for i := 0; i < procs; i++ {
		e.Go("y", func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Sleep(0)
				total++
			}
		})
	}
	return e, func() int { return total }
}
