package sim

import "testing"

// TestStressManyProcs runs thousands of interacting processes through
// shared primitives and checks global invariants plus determinism.
func TestStressManyProcs(t *testing.T) {
	run := func() (Time, int) {
		e := New()
		rng := NewRNG(2024)
		// Four tokens: a resource at most four producers hold.
		tokens := &semaphore{e: e, free: 4}
		total, holders := 0, 0
		left := producers
		for i := 0; i < producers; i++ {
			r := rng.Fork()
			e.Go("producer", func(p *Proc) {
				for k := 0; k < perProducer; k++ {
					p.Sleep(r.Duration(0, Millisecond))
					tokens.acquire(p)
					if holders++; holders > 4 {
						t.Errorf("%d holders of 4 tokens", holders)
					}
					p.Sleep(r.Duration(0, 100*Microsecond))
					holders--
					tokens.release()
					// Hand the item to a callback consumer and wait for it.
					p.Call(func(consumed func()) {
						e.After(10*Microsecond, func() {
							total++
							consumed()
						})
					})
				}
				if left--; left == 0 {
					e.Halt()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Now(), total
	}
	t1, total1 := run()
	t2, total2 := run()
	if total1 != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", total1, producers*perProducer)
	}
	if t1 != t2 || total1 != total2 {
		t.Fatalf("stress run not deterministic: (%v,%d) vs (%v,%d)", t1, total1, t2, total2)
	}
}

// semaphore is a counting semaphore over Block and Wake: release hands
// a token straight to the longest waiter.
type semaphore struct {
	e       *Engine
	free    int
	waiters Ring[*Proc]
}

func (s *semaphore) acquire(p *Proc) {
	if s.free > 0 {
		s.free--
		return
	}
	s.waiters.Push(p)
	p.Block()
}

func (s *semaphore) release() {
	if s.waiters.Len() > 0 {
		s.e.Wake(s.waiters.Pop())
		return
	}
	s.free++
}

const (
	producers   = 50
	perProducer = 20
)

// TestManyEngineInstancesNoLeak creates and destroys many engines with
// killed daemons; goroutine leaks would blow up memory/scheduling long
// before the test ends.
func TestManyEngineInstancesNoLeak(t *testing.T) {
	for i := 0; i < 200; i++ {
		e := New()
		for d := 0; d < 5; d++ {
			e.Go("daemon", func(p *Proc) {
				for {
					p.Sleep(Second)
				}
			})
		}
		e.Go("main", func(p *Proc) {
			p.Sleep(Millisecond)
			e.Halt()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if e.Procs() != 0 {
			t.Fatalf("iteration %d leaked %d procs", i, e.Procs())
		}
	}
}

// TestChainedSpawns exercises deep spawn chains (each process spawns the
// next) to validate scheduling order under nesting.
func TestChainedSpawns(t *testing.T) {
	e := New()
	const depth = 500
	count := 0
	var spawn func(n int)
	spawn = func(n int) {
		e.Go("link", func(p *Proc) {
			p.Sleep(Microsecond)
			count++
			if n > 0 {
				spawn(n - 1)
			}
		})
	}
	spawn(depth)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != depth+1 {
		t.Fatalf("ran %d links, want %d", count, depth+1)
	}
	if e.Now() != Time(Duration(depth+1)*Microsecond) {
		t.Fatalf("clock %v, want %v", e.Now(), depth+1)
	}
}
