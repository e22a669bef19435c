package hdd

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
)

func newDisk(e *sim.Engine) *Disk {
	return New(e, DefaultSpec(), sim.NewRNG(1))
}

// serve runs r on d as its scheduler does: it starts r, lets its service
// time pass and finishes it. It returns the service time.
func serve(p *sim.Proc, d *Disk, r device.Request) sim.Duration {
	t := d.Start(r)
	p.Sleep(t)
	d.Finish(r)
	return t
}

func TestSequentialReadBandwidth(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	const nReq = 256
	const sectors = 128 // 64 KB
	e.Go("reader", func(p *sim.Proc) {
		lbn := int64(0)
		for i := 0; i < nReq; i++ {
			serve(p, d, device.Request{Op: device.Read, LBN: lbn, Sectors: sectors})
			lbn += sectors
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	bytes := int64(nReq * sectors * device.SectorSize)
	bw := float64(bytes) / sim.Duration(e.Now()).Seconds()
	// First request pays one seek; the rest stream at media rate.
	if bw < 75e6 || bw > 86e6 {
		t.Fatalf("sequential read bandwidth = %.1f MB/s, want ≈85", bw/1e6)
	}
}

func TestSequentialWriteBandwidth(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	const nReq = 256
	e.Go("writer", func(p *sim.Proc) {
		lbn := int64(0)
		for i := 0; i < nReq; i++ {
			serve(p, d, device.Request{Op: device.Write, LBN: lbn, Sectors: 128})
			lbn += 128
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	bw := float64(nReq*128*device.SectorSize) / sim.Duration(e.Now()).Seconds()
	if bw < 70e6 || bw > 81e6 {
		t.Fatalf("sequential write bandwidth = %.1f MB/s, want ≈80", bw/1e6)
	}
}

func TestRandomMuchSlowerThanSequential(t *testing.T) {
	run := func(random bool) float64 {
		e := sim.New()
		d := newDisk(e)
		rng := sim.NewRNG(7)
		const nReq = 200
		e.Go("io", func(p *sim.Proc) {
			lbn := int64(0)
			for i := 0; i < nReq; i++ {
				if random {
					lbn = rng.Range(0, DefaultSpec().CapacityBytes/device.SectorSize-8)
				}
				serve(p, d, device.Request{Op: device.Read, LBN: lbn, Sectors: 8})
				lbn += 8
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(nReq*8*device.SectorSize) / sim.Duration(e.Now()).Seconds()
	}
	seq, rnd := run(false), run(true)
	if seq/rnd < 10 {
		t.Fatalf("sequential/random ratio = %.1f (seq %.1f MB/s, rand %.2f MB/s), want ≥10×",
			seq/rnd, seq/1e6, rnd/1e6)
	}
}

func TestRandomWriteSlowerThanRandomRead(t *testing.T) {
	run := func(op device.Op) float64 {
		e := sim.New()
		d := newDisk(e)
		rng := sim.NewRNG(7)
		const nReq = 200
		e.Go("io", func(p *sim.Proc) {
			for i := 0; i < nReq; i++ {
				lbn := rng.Range(0, DefaultSpec().CapacityBytes/device.SectorSize-8)
				serve(p, d, device.Request{Op: op, LBN: lbn, Sectors: 8})
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(nReq*8*device.SectorSize) / sim.Duration(e.Now()).Seconds()
	}
	rr, rw := run(device.Read), run(device.Write)
	if rw >= rr {
		t.Fatalf("random write %.2f MB/s not slower than random read %.2f MB/s", rw/1e6, rr/1e6)
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	spec := DefaultSpec()
	maxDist := spec.CapacityBytes / device.SectorSize
	prev := sim.Duration(0)
	for dist := int64(1); dist < maxDist; dist *= 4 {
		st := spec.SeekTime(dist)
		if st < prev {
			t.Fatalf("seek time not monotone at distance %d: %v < %v", dist, st, prev)
		}
		prev = st
	}
	if spec.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should cost nothing")
	}
	if st := spec.SeekTime(maxDist); st < spec.MaxSeek-sim.Millisecond/10 {
		t.Fatalf("full-stroke seek %v, want ≈%v", st, spec.MaxSeek)
	}
}

func TestSeekTimeSymmetric(t *testing.T) {
	spec := DefaultSpec()
	if err := quick.Check(func(dist int64) bool {
		if dist < 0 {
			dist = -dist
		}
		dist %= spec.CapacityBytes / device.SectorSize
		return spec.SeekTime(dist) == spec.SeekTime(-dist)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMatchesAvgServe(t *testing.T) {
	// Estimate uses average rotation; Start draws uniform
	// rotation. Over many requests the mean service time must agree.
	e := sim.New()
	d := newDisk(e)
	spec := DefaultSpec()
	rng := sim.NewRNG(3)
	var estimated, actual sim.Duration
	const nReq = 2000
	e.Go("io", func(p *sim.Proc) {
		prev := int64(0) // a fresh disk's head
		for i := 0; i < nReq; i++ {
			lbn := rng.Range(0, spec.CapacityBytes/device.SectorSize-128)
			r := device.Request{Op: device.Read, LBN: lbn, Sectors: 128}
			estimated += spec.Estimate(prev, r)
			actual += serve(p, d, r)
			prev = r.End()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ratio := float64(actual) / float64(estimated)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("estimate/actual mean ratio = %.3f, want ≈1", ratio)
	}
}

func TestEstimateFromUsesGivenLocation(t *testing.T) {
	spec := DefaultSpec()
	r := device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 128}
	near := spec.Estimate(1<<20, r) // contiguous: transfer only
	far := spec.Estimate(1<<30, r)  // long seek
	if near >= far {
		t.Fatalf("contiguous estimate %v not cheaper than far estimate %v", near, far)
	}
	if near != spec.TransferTime(r.Bytes(), device.Read) {
		t.Fatalf("contiguous estimate %v, want pure transfer %v", near, spec.TransferTime(r.Bytes(), device.Read))
	}
}

func TestStatsAccounting(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	e.Go("io", func(p *sim.Proc) {
		serve(p, d, device.Request{Op: device.Read, LBN: 0, Sectors: 128})
		serve(p, d, device.Request{Op: device.Read, LBN: 128, Sectors: 128}) // sequential
		serve(p, d, device.Request{Op: device.Write, LBN: 1 << 25, Sectors: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := d.Stats()
	if s.Ops[device.Read] != 2 || s.Ops[device.Write] != 1 {
		t.Fatalf("ops = %v", s.Ops)
	}
	if s.Bytes[device.Read] != 2*128*device.SectorSize {
		t.Fatalf("read bytes = %d", s.Bytes[device.Read])
	}
	// Head starts at 0, so the first request is contiguous too.
	if s.SeqOps[device.Read] != 2 {
		t.Fatalf("seq reads = %d, want 2", s.SeqOps[device.Read])
	}
	if s.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1", s.Seeks)
	}
	if s.BusyTime != sim.Duration(e.Now()) {
		t.Fatalf("busy %v != elapsed %v for single-stream load", s.BusyTime, sim.Duration(e.Now()))
	}
}

func TestZeroLengthRequestFree(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	e.Go("io", func(p *sim.Proc) {
		if got := serve(p, d, device.Request{Op: device.Read, LBN: 5, Sectors: 0}); got != 0 {
			t.Errorf("zero-length request cost %v", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Stats().TotalOps() != 0 {
		t.Fatal("zero-length request was counted")
	}
}

// TestIdleSince: a disk reads as busy (IdleSince is now) from Start to
// Finish, and afterwards as idle since the completion instant.
func TestIdleSince(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	e.Go("io", func(p *sim.Proc) {
		r := device.Request{Op: device.Read, LBN: 0, Sectors: 128}
		svc := d.Start(r)
		for _, step := range []sim.Duration{0, svc / 2, svc - svc/2} {
			p.Sleep(step)
			if got := d.IdleSince(); got != p.Now() {
				t.Errorf("in service at %v: IdleSince = %v, want now", p.Now(), got)
			}
		}
		d.Finish(r)
		done := p.Now()
		p.Sleep(10 * sim.Millisecond)
		if d.IdleSince() != done {
			t.Errorf("IdleSince = %v, want %v", d.IdleSince(), done)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
