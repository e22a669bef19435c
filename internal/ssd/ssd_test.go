package ssd

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// serve runs r on s as its scheduler does, back to back with the
// previous request, and returns its service time.
func serve(s *SSD, r device.Request) sim.Duration {
	t := s.Start(r)
	s.Finish(r)
	return t
}

// bench runs n requests of the given op and pattern and returns MB/s.
func bench(t *testing.T, op device.Op, random bool, sectors int64) float64 {
	t.Helper()
	s := New(DefaultSpec())
	rng := sim.NewRNG(5)
	const nReq = 500
	var elapsed sim.Duration
	lbn := int64(0)
	for i := 0; i < nReq; i++ {
		if random {
			lbn = rng.Range(0, DefaultSpec().CapacityBytes/device.SectorSize-sectors)
		}
		elapsed += serve(s, device.Request{Op: op, LBN: lbn, Sectors: sectors})
		lbn += sectors
	}
	return float64(nReq*sectors*device.SectorSize) / elapsed.Seconds() / 1e6
}

// TestTableIICalibration checks all four SSD rows of the paper's Table II
// at 4 KB requests: 160/60/140/30 MB/s.
func TestTableIICalibration(t *testing.T) {
	cases := []struct {
		name   string
		op     device.Op
		random bool
		lo, hi float64
	}{
		{"seq-read", device.Read, false, 150, 165},
		{"rand-read", device.Read, true, 55, 70},
		{"seq-write", device.Write, false, 130, 145},
		{"rand-write", device.Write, true, 27, 35},
	}
	for _, c := range cases {
		got := bench(t, c.op, c.random, 8) // 4 KB
		if got < c.lo || got > c.hi {
			t.Errorf("%s = %.1f MB/s, want in [%.0f, %.0f]", c.name, got, c.lo, c.hi)
		}
	}
}

func TestReadInsensitiveToLocation(t *testing.T) {
	// For large requests, random reads approach sequential reads — the
	// property that lets the SSD serve fragments without penalty.
	seq := bench(t, device.Read, false, 128)
	rnd := bench(t, device.Read, true, 128)
	if rnd < 0.9*seq {
		t.Fatalf("64 KB random read %.1f MB/s vs sequential %.1f MB/s; expected near parity", rnd, seq)
	}
}

func TestSequentialWriteAdvantage(t *testing.T) {
	seq := bench(t, device.Write, false, 8)
	rnd := bench(t, device.Write, true, 8)
	if seq/rnd < 3 {
		t.Fatalf("seq/rand write ratio %.1f, want ≥3 (the log-structuring motivation)", seq/rnd)
	}
}

func TestPerOpSequentialityTracking(t *testing.T) {
	// Interleaved reads and writes to two separate sequential streams
	// must both count as sequential: the model tracks position per op.
	s := New(DefaultSpec())
	var total sim.Duration
	rl, wl := int64(0), int64(1<<20)
	for i := 0; i < 50; i++ {
		total += serve(s, device.Request{Op: device.Read, LBN: rl, Sectors: 8})
		total += serve(s, device.Request{Op: device.Write, LBN: wl, Sectors: 8})
		rl += 8
		wl += 8
	}
	spec := DefaultSpec()
	// After the first pair, every op should pay only SeqLat.
	maxExpected := 2*(spec.RandReadLat+spec.RandWriteLat) +
		98*spec.SeqLat +
		sim.Duration(50*4096.0/spec.ReadBW*float64(sim.Second)) +
		sim.Duration(50*4096.0/spec.WriteBW*float64(sim.Second))
	if total > maxExpected+sim.Microsecond {
		t.Fatalf("interleaved streams cost %v, want ≤%v (per-op tracking broken)", total, maxExpected)
	}
}

func TestEstimateMatchesServe(t *testing.T) {
	s := New(DefaultSpec())
	spec := DefaultSpec()
	r := device.Request{Op: device.Write, LBN: 4096, Sectors: 8}
	est := spec.Estimate(-1, r) // a fresh SSD has no previous write
	if got := serve(s, r); est != got {
		t.Errorf("estimate %v != served %v", est, got)
	}
	// Now contiguous: estimate must drop to sequential latency.
	r2 := device.Request{Op: device.Write, LBN: r.End(), Sectors: 8}
	if spec.Estimate(r.End(), r2) >= est {
		t.Errorf("contiguous estimate %v not cheaper than random %v", spec.Estimate(r.End(), r2), est)
	}
}

func TestZeroLengthRequestFree(t *testing.T) {
	spec := DefaultSpec()
	s := New(spec)
	if d := serve(s, device.Request{Op: device.Read, LBN: 0, Sectors: 0}); d != 0 {
		t.Errorf("zero-length request cost %v", d)
	}
	// It left no position behind: the next read is a random one.
	r := device.Request{Op: device.Read, LBN: 0, Sectors: 8}
	if got, want := serve(s, r), spec.Estimate(-1, r); got != want {
		t.Errorf("read after a zero-length one cost %v, want %v", got, want)
	}
}
