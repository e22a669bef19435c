package iosched

import (
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/sim"
)

func newCFQQueue(e *sim.Engine, cfg Config) (*Queue, *hdd.Disk) {
	d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))
	return New(e, d, cfg, nil), d
}

func cfqConfig() Config {
	return Config{Policy: CFQ, MaxSectors: 256,
		SliceIdle: 2 * sim.Millisecond, SliceQuantum: 4}
}

func TestCFQServesActiveOriginFirst(t *testing.T) {
	e := sim.New()
	q, _ := newCFQQueue(e, cfqConfig())
	var order []int32
	submit := func(origin int32, lbn int64, delay sim.Duration) {
		e.Go("io", func(p *sim.Proc) {
			p.Sleep(delay)
			submit(p, q, device.Request{Op: device.Read, LBN: lbn, Sectors: 8, Origin: origin})
			order = append(order, origin)
		})
	}
	// Origin 1 submits two requests; origin 2's request arrives between
	// them but CFQ stays with origin 1's slice.
	submit(1, 1<<20, 0)
	submit(1, 1<<20+8, 10*sim.Microsecond)
	submit(2, 1<<25, 5*sim.Microsecond)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("%d completions", len(order))
	}
	if order[0] != 1 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order by origin = %v, want [1 1 2]", order)
	}
}

func TestCFQQuantumRotatesOrigins(t *testing.T) {
	e := sim.New()
	cfg := cfqConfig()
	cfg.SliceQuantum = 2
	q, _ := newCFQQueue(e, cfg)
	var order []int32
	// Origin 1 floods 4 requests (spaced so they cannot merge); origin
	// 2 queues 1. With quantum 2, origin 2 must be served after at
	// most 2 of origin 1's.
	for i := 0; i < 4; i++ {
		i := i
		e.Go("o1", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * sim.Microsecond)
			submit(p, q, device.Request{Op: device.Read, LBN: int64(1<<20 + i*1024), Sectors: 8, Origin: 1})
			order = append(order, 1)
		})
	}
	e.Go("o2", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 25, Sectors: 8, Origin: 2})
		order = append(order, 2)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pos := -1
	for i, o := range order {
		if o == 2 {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("origin 2 served at position %d of %v; quantum not enforced", pos, order)
	}
}

func TestCFQAnticipationWaitsForActiveOrigin(t *testing.T) {
	// Origin 1's next request arrives within the idle window while
	// origin 2 has pending work: CFQ must serve origin 1's follow-up
	// first (that is the point of anticipation).
	e := sim.New()
	q, _ := newCFQQueue(e, cfqConfig())
	var order []int32
	e.Go("o1-first", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 8, Origin: 1})
		order = append(order, 1)
		// Issue the follow-up shortly after completion, well inside
		// the 2ms idle window.
		p.Sleep(200 * sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 1<<20 + 8, Sectors: 8, Origin: 1})
		order = append(order, 1)
	})
	e.Go("o2", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 25, Sectors: 8, Origin: 2})
		order = append(order, 2)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[1] != 1 {
		t.Fatalf("anticipation failed: order %v, want origin 1's follow-up second", order)
	}
}

// dispatches records the instants each origin's requests reached the
// device, in dispatch order.
type dispatches map[int32][]sim.Time

func (d dispatches) Dispatch(now sim.Time, r device.Request) {
	d[r.Origin] = append(d[r.Origin], now)
}

func TestCFQIdleWindowExpires(t *testing.T) {
	// If the active origin never returns, the idle window ends and the
	// next origin is served — the disk is not held hostage. The window
	// is exactly SliceIdle long, counted from o1's completion.
	e := sim.New()
	cfg := cfqConfig()
	log := dispatches{}
	q := New(e, hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1)), cfg, log)
	var done1 sim.Time
	e.Go("o1", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 8, Origin: 1})
		done1 = p.Now()
	})
	e.Go("o2", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 25, Sectors: 8, Origin: 2})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log[2]) != 1 {
		t.Fatalf("origin 2 dispatched %d times, want 1", len(log[2]))
	}
	if want := done1.Add(cfg.SliceIdle); log[2][0] != want {
		t.Fatalf("origin 2 dispatched at %v, want o1's completion %v + SliceIdle = %v", log[2][0], done1, want)
	}
}

func TestCFQIdleWindowEndsAtTickBoundary(t *testing.T) {
	// The idle window is checked every SliceIdle/8: an active origin
	// that returns between two checks (here +300µs) is dispatched at
	// the next one (+500µs), ahead of the waiting origin 2.
	e := sim.New()
	cfg := cfqConfig()
	step := cfg.SliceIdle / 8
	log := dispatches{}
	q := New(e, hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1)), cfg, log)
	var done1 sim.Time
	e.Go("o1", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 8, Origin: 1})
		done1 = p.Now()
		p.Sleep(step + step/5)
		submit(p, q, device.Request{Op: device.Read, LBN: 1<<20 + 8, Sectors: 8, Origin: 1})
	})
	e.Go("o2", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 25, Sectors: 8, Origin: 2})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log[1]) != 2 || len(log[2]) != 1 {
		t.Fatalf("dispatches %v, want two of origin 1 and one of origin 2", log)
	}
	if want := done1.Add(2 * step); log[1][1] != want {
		t.Fatalf("o1's follow-up dispatched at %v, want the second tick after its completion %v: %v", log[1][1], done1, want)
	}
	if log[2][0] < log[1][1] {
		t.Fatalf("origin 2 dispatched at %v, before o1's follow-up at %v", log[2][0], log[1][1])
	}
}

func TestCFQAnticipationPreservesLocality(t *testing.T) {
	// Two origins each stream a sequential region. With anticipation
	// the disk stays with one stream between its back-to-back requests
	// (few seeks); without it, the disk ping-pongs between the two
	// regions (a seek per request). This is CFQ's reason to exist.
	run := func(idle sim.Duration) int64 {
		e := sim.New()
		cfg := cfqConfig()
		cfg.SliceIdle = idle
		cfg.SliceQuantum = 64
		q, d := newCFQQueue(e, cfg)
		for o := int32(1); o <= 2; o++ {
			o := o
			e.Go("io", func(p *sim.Proc) {
				for k := 0; k < 8; k++ {
					submit(p, q, device.Request{
						Op: device.Read, LBN: int64(o)<<24 + int64(k*8), Sectors: 8, Origin: o,
					})
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d.Stats().Seeks
	}
	withIdle, without := run(2*sim.Millisecond), run(0)
	if withIdle >= without {
		t.Fatalf("anticipation did not reduce seeks: %d vs %d", withIdle, without)
	}
}

func TestCFQCrossOriginMergeStillWorks(t *testing.T) {
	e := sim.New()
	q, d := newCFQQueue(e, cfqConfig())
	// Block the device with origin 9, then two contiguous requests
	// from different origins arrive and must merge.
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 128, Origin: 9})
	})
	for i := 0; i < 2; i++ {
		i := i
		e.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * sim.Microsecond)
			submit(p, q, device.Request{
				Op: device.Read, LBN: int64(128 * i), Sectors: 128, Origin: int32(i + 1),
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if q.Stats().BackMerges != 1 {
		t.Fatalf("back merges = %d, want 1 (cross-origin)", q.Stats().BackMerges)
	}
	if d.Stats().TotalOps() != 2 {
		t.Fatalf("device ops = %d, want 2", d.Stats().TotalOps())
	}
}

func TestCFQDeterministic(t *testing.T) {
	run := func() sim.Duration {
		e := sim.New()
		q, _ := newCFQQueue(e, cfqConfig())
		rng := sim.NewRNG(5)
		for o := int32(1); o <= 4; o++ {
			o := o
			r := rng.Fork()
			e.Go("io", func(p *sim.Proc) {
				for k := 0; k < 10; k++ {
					p.Sleep(r.Duration(0, sim.Millisecond))
					submit(p, q, device.Request{
						Op: device.Read, LBN: r.Range(0, 1<<28), Sectors: 8, Origin: o,
					})
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Duration(e.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("CFQ runs diverged: %v vs %v", a, b)
	}
}
