package core

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/sim"
)

func newTestDisk(e *sim.Engine) *hdd.Disk {
	return hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))
}

func TestTrackerEq1Update(t *testing.T) {
	trk := newTracker(hdd.DefaultSpec(), 7.0/8)
	r := device.Request{Op: device.Read, LBN: 1 << 28, Sectors: 8}
	sample := trk.sample(r)
	want := 0*1.0/8 + sample*7.0/8
	trk.servedAtDisk(r)
	if math.Abs(trk.T()-want) > 1e-12 {
		t.Fatalf("T = %v, want %v", trk.T(), want)
	}
	if trk.prevLBN != r.End() {
		t.Fatalf("λ = %d, want %d", trk.prevLBN, r.End())
	}
}

func TestTrackerEq2NoUpdate(t *testing.T) {
	trk := newTracker(hdd.DefaultSpec(), 7.0/8)
	trk.servedAtDisk(device.Request{Op: device.Read, LBN: 1 << 28, Sectors: 8})
	tBefore, lBefore := trk.T(), trk.prevLBN
	trk.servedAtSSD()
	if trk.T() != tBefore || trk.prevLBN != lBefore {
		t.Fatal("SSD-served request changed T or λ (violates Eq. 2)")
	}
}

func TestTrackerSampleDependsOnSeekDistance(t *testing.T) {
	trk := newTracker(hdd.DefaultSpec(), 7.0/8)
	trk.prevLBN = 1 << 20
	near := trk.sample(device.Request{Op: device.Read, LBN: 1 << 20, Sectors: 8})
	far := trk.sample(device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 8})
	if near >= far {
		t.Fatalf("near sample %v not below far sample %v", near, far)
	}
}

func TestTrackerConvergesToSteadySample(t *testing.T) {
	// Feeding identical random-ish samples must converge T to the
	// sample value, fast given the 7/8 new-sample weight.
	trk := newTracker(hdd.DefaultSpec(), 7.0/8)
	r := device.Request{Op: device.Read, LBN: 1 << 28, Sectors: 8}
	var s float64
	for i := 0; i < 10; i++ {
		trk.prevLBN = 0 // force the same seek distance each time
		s = trk.sample(r)
		trk.servedAtDisk(r)
		trk.prevLBN = 0
	}
	if math.Abs(trk.T()-s)/s > 1e-6 {
		t.Fatalf("T = %v did not converge to sample %v", trk.T(), s)
	}
}

func TestMagnificationBoostWhenSlowest(t *testing.T) {
	view := []float64{0.002, 0.001, 0.003}
	// Server 0's current T (0.010) is the strict max vs siblings 1,2.
	got := magnification(0.010, 0, []int{1, 2}, view)
	want := (0.010 - 0.003) * 2 // (T_max − T_sec_max) · n
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("boost = %v, want %v", got, want)
	}
}

func TestMagnificationZeroWhenNotSlowest(t *testing.T) {
	view := []float64{0.002, 0.050, 0.003}
	if got := magnification(0.010, 0, []int{1, 2}, view); got != 0 {
		t.Fatalf("boost = %v, want 0 (sibling 1 is slower)", got)
	}
	// Tie also yields no boost (not strict max).
	view[1] = 0.010
	if got := magnification(0.010, 0, []int{1, 2}, view); got != 0 {
		t.Fatalf("boost = %v, want 0 on tie", got)
	}
}

func TestMagnificationNoSiblings(t *testing.T) {
	if got := magnification(0.010, 0, nil, []float64{0.1}); got != 0 {
		t.Fatalf("boost = %v, want 0 with no siblings", got)
	}
}

func TestMagnificationIgnoresOutOfRangeSiblings(t *testing.T) {
	// A sibling id outside the view (e.g. server not registered) must
	// not panic and must not contribute.
	view := []float64{0.002, 0.001}
	got := magnification(0.010, 0, []int{1, 5}, view)
	want := (0.010 - 0.001) * 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("boost = %v, want %v", got, want)
	}
}

func TestExchangeBroadcastStaleness(t *testing.T) {
	e := sim.New()
	x := NewExchange(e, sim.Second)
	d := newTestDisk(e)
	rng := sim.NewRNG(2)
	diskQ := newDiskQueue(e, d)
	ssdQ := newSSDQueue(e)
	cfg := DefaultConfig()
	b := NewBridge(e, cfg, 0, d, diskQ, ssdQ, x, rng)
	x.Start()
	e.Go("main", func(p *sim.Proc) {
		// Drive T up via a disk-served request.
		b.trk.servedAtDisk(device.Request{Op: device.Read, LBN: 1 << 30, Sectors: 8})
		if x.View()[0] != 0 {
			t.Error("view updated before broadcast period")
		}
		p.Sleep(sim.Second + sim.Millisecond)
		if x.View()[0] != b.T() {
			t.Errorf("view = %v after broadcast, want %v", x.View()[0], b.T())
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
