// Package ssd models a SATA solid-state drive. The model captures the two
// SSD properties iBridge relies on: service time is insensitive to the
// *location* of reads (no mechanical positioning), and sequential writes
// are substantially faster than random writes (the paper's Table II SSD
// shows 140 MB/s vs 30 MB/s at 4 KB), which is why iBridge writes into the
// SSD strictly log-structured.
package ssd

import (
	"repro/internal/device"
	"repro/internal/sim"
)

// Spec holds the SSD model parameters, calibrated to the paper's Table II
// device (HP 120 GB SATA SSD).
type Spec struct {
	// CapacityBytes is the size of the LBN space.
	CapacityBytes int64
	// ReadBW and WriteBW are peak transfer rates in bytes/second.
	ReadBW  float64
	WriteBW float64
	// RandReadLat and RandWriteLat are the per-operation latencies paid
	// when a request does not continue the preceding access (FTL lookup
	// for reads; read-modify-write and mapping churn for writes).
	RandReadLat  sim.Duration
	RandWriteLat sim.Duration
	// SeqLat is the (small) per-operation overhead of an access that
	// continues exactly where the previous one ended.
	SeqLat sim.Duration
}

// DefaultSpec returns the model of the evaluation platform's SSD. At 4 KB:
// sequential read ≈ 157 MB/s, random read ≈ 62 MB/s, sequential write
// ≈ 136 MB/s, random write ≈ 31 MB/s — the Table II values.
func DefaultSpec() Spec {
	return Spec{
		CapacityBytes: 120e9,
		ReadBW:        172e6, // media rate; 160 MB/s effective at 4 KB with SeqLat
		WriteBW:       150e6, // media rate; 140 MB/s effective at 4 KB with SeqLat
		RandReadLat:   40 * sim.Microsecond,
		RandWriteLat:  105 * sim.Microsecond,
		SeqLat:        2 * sim.Microsecond,
	}
}

// latency returns the per-operation latency of r following an access of
// the same op that ended at sector prev.
func (s *Spec) latency(prev int64, r device.Request) sim.Duration {
	if r.LBN == prev {
		return s.SeqLat
	}
	if r.Op == device.Read {
		return s.RandReadLat
	}
	return s.RandWriteLat
}

// TransferTime returns the media transfer time of bytes for op.
func (s *Spec) TransferTime(bytes int64, op device.Op) sim.Duration {
	bw := s.ReadBW
	if op == device.Write {
		bw = s.WriteBW
	}
	return sim.Duration(float64(bytes) / bw * float64(sim.Second))
}

// Estimate returns the model service time of r following an access of
// the same op that ended at sector prev: the per-operation latency plus
// the media transfer.
func (s *Spec) Estimate(prev int64, r device.Request) sim.Duration {
	return s.latency(prev, r) + s.TransferTime(r.Bytes(), r.Op)
}

// SSD is a simulated solid-state drive. Like the disk, the medium serves
// one request at a time, started by its scheduler (Noop for SSDs, per
// the paper's evaluation setup), which handles ordering.
type SSD struct {
	spec Spec
	// lat and xfer are the per-operation latency and transfer time of
	// the request in service.
	lat, xfer sim.Duration

	lastEnd [2]int64 // per-Op position after the previous access
	probe   device.Probe
}

// SetProbe installs an observer for served requests (nil disables).
func (s *SSD) SetProbe(p device.Probe) { s.probe = p }

// New returns an SSD with the given spec.
func New(spec Spec) *SSD {
	return &SSD{spec: spec, lastEnd: [2]int64{-1, -1}}
}

// Start implements iosched.Device. It returns the service time of r.
func (s *SSD) Start(r device.Request) sim.Duration {
	if r.Sectors <= 0 {
		return 0
	}
	s.lat = s.spec.latency(s.lastEnd[r.Op], r)
	s.xfer = s.spec.TransferTime(r.Bytes(), r.Op)
	return s.lat + s.xfer
}

// Finish implements iosched.Device. It records where r ended.
func (s *SSD) Finish(r device.Request) {
	if r.Sectors <= 0 {
		return
	}
	s.lastEnd[r.Op] = r.End()
	if s.probe != nil {
		s.probe.ObserveIO(r, s.lat, s.xfer)
	}
}
