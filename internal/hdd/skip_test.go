package hdd

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestForwardSkipCheaperThanBackwardSeek verifies the rotational
// geometry: a short hop forward costs only the angular wait for the
// skipped sectors, while the same distance backward costs a seek plus
// rotational miss.
func TestForwardSkipCheaperThanBackwardSeek(t *testing.T) {
	spec := DefaultSpec()
	const start = 1 << 20
	const hop = 40 // 20 KB in sectors
	fwd := spec.Estimate(start, device.Request{Op: device.Read, LBN: start + hop, Sectors: 8})
	bwd := spec.Estimate(start, device.Request{Op: device.Read, LBN: start - hop, Sectors: 8})
	if fwd*4 > bwd {
		t.Fatalf("forward hop %v not ≪ backward hop %v", fwd, bwd)
	}
	// The forward hop's positioning is about the read-through time.
	xfer := spec.TransferTime(8*device.SectorSize, device.Read)
	skip := spec.TransferTime(hop*device.SectorSize, device.Read)
	if fwd < xfer+skip/2 || fwd > xfer+2*skip {
		t.Fatalf("forward hop %v, want ≈ transfer %v + skip %v", fwd, xfer, skip)
	}
}

// TestLongForwardHopSeeks verifies that beyond the break-even point the
// disk seeks instead of reading through: the cost is capped by seek +
// rotation.
func TestLongForwardHopSeeks(t *testing.T) {
	spec := DefaultSpec()
	const start = 1 << 20
	farHop := int64(4 << 20) // 2 GB forward: read-through would take seconds
	got := spec.Estimate(start, device.Request{Op: device.Read, LBN: start + farHop, Sectors: 8})
	cap := spec.MaxSeek + spec.RotationPeriod // generous bound
	if got > cap {
		t.Fatalf("far forward hop cost %v exceeds seek+rotation bound %v", got, cap)
	}
}

// TestHoleTilingStreamsNearMediaRate is the property iBridge's write
// path depends on: a stream of 54KB pieces with 10KB holes (the +10KB
// offset pattern after fragments go to the SSD) must flow at close to
// media rate, not at random-write rate.
func TestHoleTilingStreamsNearMediaRate(t *testing.T) {
	e := sim.New()
	d := newDisk(e)
	const pieces = 200
	const pieceSectors = 108 // 54 KB
	const holeSectors = 20   // 10 KB
	var useful int64
	e.Go("io", func(p *sim.Proc) {
		lbn := int64(0)
		for i := 0; i < pieces; i++ {
			serve(p, d, device.Request{Op: device.Write, LBN: lbn, Sectors: pieceSectors})
			useful += pieceSectors * device.SectorSize
			lbn += pieceSectors + holeSectors
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	bw := float64(useful) / sim.Duration(e.Now()).Seconds()
	// Media rate × useful fraction (54/64) ≈ 67 MB/s; demand ≥ 50.
	if bw < 50e6 {
		t.Fatalf("hole-tiled write stream = %.1f MB/s, want ≥50 (forward-skip broken)", bw/1e6)
	}
}
