// Package hdd models a 7200-RPM hard disk drive with an explicit
// seek-time curve, rotational latency, and sequential transfer bandwidth.
//
// The model is the one the paper's Eq. (1) assumes: the service time of a
// request is D_to_T(seek distance) + R + size/B, where D_to_T is obtained
// from an offline profile of the disk (here, a parametric square-root seek
// curve, the standard fit for voice-coil actuators), R is rotational
// latency, and B is the peak transfer bandwidth. Requests that continue
// exactly where the head stopped pay no positioning cost, which is the
// entire source of the sequential-vs-random efficiency gap that fragments
// exploit.
package hdd

import (
	"math"

	"repro/internal/device"
	"repro/internal/sim"
)

// Spec holds the parameters of the disk model. The defaults are calibrated
// so that the sequential rows of the paper's Table II hold (85 MB/s read,
// 80 MB/s write) and random access is an order of magnitude slower, which
// is the property all of the paper's figures depend on.
type Spec struct {
	// CapacityBytes is the size of the LBN space.
	CapacityBytes int64
	// SeqReadBW and SeqWriteBW are media transfer rates in bytes/second.
	SeqReadBW  float64
	SeqWriteBW float64
	// MinSeek and MaxSeek bound the seek-time curve: a single-track seek
	// costs MinSeek, a full-stroke seek costs MaxSeek, and intermediate
	// distances follow MinSeek + (MaxSeek-MinSeek)*sqrt(d/D).
	MinSeek sim.Duration
	MaxSeek sim.Duration
	// RotationPeriod is one platter revolution (8.33 ms at 7200 RPM).
	// Each repositioned request pays a uniformly distributed rotational
	// latency in [0, RotationPeriod).
	RotationPeriod sim.Duration
	// WriteSettle is the extra head-settle penalty a write pays after
	// repositioning (writes need tighter positioning than reads), which
	// produces the paper's rand-write ≪ rand-read gap.
	WriteSettle sim.Duration
	// NearSectors is the distance, in sectors, under which a
	// reposition counts as a short head move costing MinSeek only.
	NearSectors int64
}

// forwardSkip returns the cost of letting the platter rotate forward past
// dist sectors (read-through at media rate): a short forward hop costs
// only the angular wait for the skipped sectors to pass under the head.
func (s *Spec) forwardSkip(dist int64) sim.Duration {
	return sim.Duration(float64(dist*device.SectorSize) / s.SeqReadBW * float64(sim.Second))
}

// DefaultSpec returns the model of the evaluation platform's HP 7200-RPM
// drive (Table II).
func DefaultSpec() Spec {
	return Spec{
		CapacityBytes:  1 << 40, // 1 TB
		SeqReadBW:      85e6,
		SeqWriteBW:     80e6,
		MinSeek:        500 * sim.Microsecond,
		MaxSeek:        9 * sim.Millisecond,
		RotationPeriod: 8333 * sim.Microsecond, // 7200 RPM
		WriteSettle:    1200 * sim.Microsecond,
		NearSectors:    16, // 8 KB: longer hops miss the rotation
	}
}

// SeekTime is the paper's D_to_T function: it converts a seek distance in
// sectors to a seek time using the square-root curve of the spec.
func (s *Spec) SeekTime(distance int64) sim.Duration {
	if distance < 0 {
		distance = -distance
	}
	if distance == 0 {
		return 0
	}
	if distance <= s.NearSectors {
		return s.MinSeek
	}
	maxDist := float64(s.CapacityBytes / device.SectorSize)
	frac := math.Sqrt(float64(distance) / maxDist)
	return s.MinSeek + sim.Duration(frac*float64(s.MaxSeek-s.MinSeek))
}

// TransferTime returns size/B for the given operation.
func (s *Spec) TransferTime(bytes int64, op device.Op) sim.Duration {
	bw := s.SeqReadBW
	if op == device.Write {
		bw = s.SeqWriteBW
	}
	return sim.Duration(float64(bytes) / bw * float64(sim.Second))
}

// positionCost returns the positioning time from prev to r, using rot for
// the rotational component (a drawn or average value). A forward hop may
// be served by letting the platter rotate past the skipped sectors
// (read-through at media rate) when that beats a seek; a backward hop
// always seeks and pays the rotational miss.
func (s *Spec) positionCost(prev int64, r device.Request, rot sim.Duration) sim.Duration {
	dist := r.LBN - prev
	if dist == 0 {
		return 0
	}
	forward := dist > 0
	if dist < 0 {
		dist = -dist
	}
	cost := s.SeekTime(dist)
	if dist > s.NearSectors {
		cost += rot
		if r.Op == device.Write {
			cost += s.WriteSettle
		}
	}
	if forward {
		if skip := s.forwardSkip(dist); skip < cost {
			return skip
		}
	}
	return cost
}

// Estimate is the paper's Eq. (1) sample for r following an access that
// ended at sector prev: D_to_T(Δλ) + R + size/B, with R the expected
// rotational latency (half a revolution). It depends on the spec alone,
// so a caller can track its own λ_{i-1} apart from any disk's head.
func (s *Spec) Estimate(prev int64, r device.Request) sim.Duration {
	return s.positionCost(prev, r, s.RotationPeriod/2) + s.TransferTime(r.Bytes(), r.Op)
}

// Disk is a simulated hard disk. The medium serves one request at a
// time, started by its I/O scheduler (internal/iosched), whose job is
// request reordering.
type Disk struct {
	e    *sim.Engine
	spec Spec
	rng  *sim.RNG
	head int64 // sector after the last one accessed
	// busy is set from Start to Finish, and pos and xfer are the
	// positioning and transfer times of the request in service.
	busy      bool
	pos, xfer sim.Duration

	stats     device.Stats
	idleSince sim.Time
	probe     device.Probe
}

// SetProbe installs an observer for served requests (nil disables).
func (d *Disk) SetProbe(p device.Probe) { d.probe = p }

// New returns a disk with the given spec. The rng seeds the rotational
// latency draws; the same seed reproduces the same run exactly.
func New(e *sim.Engine, spec Spec, rng *sim.RNG) *Disk {
	return &Disk{e: e, spec: spec, rng: rng}
}

// Spec returns the disk's model parameters.
func (d *Disk) Spec() Spec { return d.spec }

// Stats returns the disk's accumulated service statistics.
func (d *Disk) Stats() *device.Stats { return &d.stats }

// IdleSince returns the virtual time at which the disk last completed a
// request, for the writeback daemon's idle detection. A busy disk
// returns the current time.
func (d *Disk) IdleSince() sim.Time {
	if d.busy {
		return d.e.Now()
	}
	return d.idleSince
}

// Start implements iosched.Device. It draws r's rotational latency and
// returns the full positioning and transfer time of r.
func (d *Disk) Start(r device.Request) sim.Duration {
	if r.Sectors <= 0 {
		return 0
	}
	d.busy = true
	rot := d.rng.Duration(0, d.spec.RotationPeriod)
	d.pos = d.spec.positionCost(d.head, r, rot)
	d.xfer = d.spec.TransferTime(r.Bytes(), r.Op)
	return d.pos + d.xfer
}

// Finish implements iosched.Device. It moves the head and records r.
func (d *Disk) Finish(r device.Request) {
	if r.Sectors <= 0 {
		return
	}
	d.head = r.End()
	d.stats.Ops[r.Op]++
	d.stats.Bytes[r.Op] += r.Bytes()
	d.stats.BusyTime += d.pos + d.xfer
	if d.pos > 0 {
		d.stats.SeekTime += d.pos
		d.stats.Seeks++
	} else {
		d.stats.SeqOps[r.Op]++
	}
	d.busy = false
	d.idleSince = d.e.Now()
	if d.probe != nil {
		d.probe.ObserveIO(r, d.pos, d.xfer)
	}
}
