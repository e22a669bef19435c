package iosched

import (
	"testing"

	"repro/internal/blktrace"
	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newQueue(e *sim.Engine, cfg Config, tr Tracer) (*Queue, *hdd.Disk) {
	d := hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))
	return New(e, d, cfg, tr), d
}

// submit starts r on q from process p, blocks p until r has been
// served, and returns the submit-to-completion latency.
func submit(p *sim.Proc, q *Queue, r device.Request) sim.Duration {
	start := p.Now()
	p.Call(func(done func()) { q.Start(r, done) })
	return p.Now().Sub(start)
}

func TestSingleRequestPassThrough(t *testing.T) {
	e := sim.New()
	q, d := newQueue(e, DiskDefaults(), nil)
	var lat sim.Duration
	e.Go("io", func(p *sim.Proc) {
		lat = submit(p, q, device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 128})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lat <= 0 {
		t.Fatal("no latency reported")
	}
	if d.Stats().TotalOps() != 1 {
		t.Fatalf("device served %d requests, want 1", d.Stats().TotalOps())
	}
}

func TestBackMerge(t *testing.T) {
	e := sim.New()
	tr := blktrace.New("t")
	q, d := newQueue(e, DiskDefaults(), tr)
	// Occupy the device so the two mergeable requests queue together.
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 128})
	})
	for i := 0; i < 2; i++ {
		i := i
		e.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * sim.Microsecond)
			submit(p, q, device.Request{Op: device.Read, LBN: int64(128 * i), Sectors: 128})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if q.Stats().BackMerges != 1 {
		t.Fatalf("back merges = %d, want 1", q.Stats().BackMerges)
	}
	if d.Stats().TotalOps() != 2 { // blocker + merged pair
		t.Fatalf("device ops = %d, want 2", d.Stats().TotalOps())
	}
	// The merged dispatch must be 256 sectors.
	found := false
	for _, sc := range tr.Distribution() {
		if sc.Sectors == 256 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 256-sector dispatch in %v", tr.Distribution())
	}
}

func TestFrontMerge(t *testing.T) {
	e := sim.New()
	q, d := newQueue(e, DiskDefaults(), nil)
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 128})
	})
	e.Go("later", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 128, Sectors: 128})
	})
	e.Go("earlier", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 0, Sectors: 128})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if q.Stats().FrontMerges != 1 {
		t.Fatalf("front merges = %d, want 1", q.Stats().FrontMerges)
	}
	if d.Stats().TotalOps() != 2 {
		t.Fatalf("device ops = %d, want 2", d.Stats().TotalOps())
	}
}

func TestNoMergeAcrossOps(t *testing.T) {
	e := sim.New()
	q, d := newQueue(e, DiskDefaults(), nil)
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 128})
	})
	e.Go("r", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		submit(p, q, device.Request{Op: device.Read, LBN: 0, Sectors: 128})
	})
	e.Go("w", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		submit(p, q, device.Request{Op: device.Write, LBN: 128, Sectors: 128})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if q.Stats().BackMerges+q.Stats().FrontMerges != 0 {
		t.Fatal("read and write merged")
	}
	if d.Stats().TotalOps() != 3 {
		t.Fatalf("device ops = %d, want 3", d.Stats().TotalOps())
	}
}

func TestMergeCapRespected(t *testing.T) {
	cfg := DiskDefaults()
	cfg.MaxSectors = 256
	e := sim.New()
	q, d := newQueue(e, cfg, nil)
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 128})
	})
	for i := 0; i < 4; i++ {
		i := i
		e.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * sim.Microsecond)
			submit(p, q, device.Request{Op: device.Read, LBN: int64(128 * i), Sectors: 128})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 4×128 sectors can merge into at most 2×256-sector requests.
	if got := d.Stats().TotalOps(); got != 3 {
		t.Fatalf("device ops = %d, want 3 (blocker + two capped merges)", got)
	}
}

func TestFIFOOrdersByArrival(t *testing.T) {
	e := sim.New()
	q, _ := newQueue(e, Config{Policy: FIFO, MaxSectors: 256}, nil)
	var order []int64
	e.Go("blocker", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 0, Sectors: 128})
	})
	// Arrival order: high LBN first. FIFO must preserve it.
	positions := []int64{1 << 30, 1 << 10, 1 << 20}
	for i, lbn := range positions {
		lbn := lbn
		e.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * sim.Microsecond)
			submit(p, q, device.Request{Op: device.Read, LBN: lbn, Sectors: 8})
			order = append(order, lbn)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Completion order equals arrival order under FIFO.
	for i, lbn := range order {
		if lbn != positions[i] {
			t.Fatalf("completion order %v, want %v", order, positions)
		}
	}
}

func TestConcurrencyEnablesMerging(t *testing.T) {
	// The emergent behaviour behind Figure 2(c): concurrent sequential
	// streams produce merged large dispatches when the disk is busy.
	run := func(nProcs int) float64 {
		e := sim.New()
		tr := blktrace.New("t")
		q, _ := newQueue(e, DiskDefaults(), tr)
		const perProc = 20
		for i := 0; i < nProcs; i++ {
			i := i
			e.Go("stream", func(p *sim.Proc) {
				for k := 0; k < perProc; k++ {
					lbn := int64((k*nProcs + i) * 128)
					submit(p, q, device.Request{Op: device.Read, LBN: lbn, Sectors: 128})
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return tr.FractionAtLeast(256)
	}
	solo, crowd := run(1), run(16)
	if crowd <= solo {
		t.Fatalf("merge fraction with 16 procs (%.2f) not above 1 proc (%.2f)", crowd, solo)
	}
}

func TestZeroLengthSubmitIsFree(t *testing.T) {
	e := sim.New()
	q, d := newQueue(e, DiskDefaults(), nil)
	e.Go("io", func(p *sim.Proc) {
		if lat := submit(p, q, device.Request{Op: device.Read, LBN: 0, Sectors: 0}); lat != 0 {
			t.Errorf("zero-length submit latency %v", lat)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Stats().TotalOps() != 0 {
		t.Fatal("zero-length request reached device")
	}
}

func TestWaitAccounting(t *testing.T) {
	e := sim.New()
	q, _ := newQueue(e, DiskDefaults(), nil)
	m := obs.New(obs.Config{Metrics: true}).QueueMetrics("iosched.hdd")
	q.SetMetrics(m)
	e.Go("io", func(p *sim.Proc) {
		submit(p, q, device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 128})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w := m.Wait.Snapshot(); w.Count() != 1 || w.Max() <= 0 {
		t.Fatalf("wait histogram holds %d samples, max %gms; want one positive wait", w.Count(), w.Max())
	}
	if d := m.Depth.Max(); d != 1 {
		t.Fatalf("max depth = %d, want 1", d)
	}
}
