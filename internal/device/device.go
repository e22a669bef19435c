// Package device defines the data shared by the simulated storage devices
// (internal/hdd, internal/ssd) and their observers: block-level requests,
// the per-request probe, and service statistics. It is pure data on the
// virtual clock (internal/vtime) and does not link the simulation engine;
// the serving interface lives with its caller, internal/iosched.
//
// Devices operate on a logical-block-number (LBN) address space measured in
// 512-byte sectors, matching the granularity the paper uses for its
// blktrace request-size distributions.
package device

import (
	"fmt"

	"repro/internal/vtime"
)

// SectorSize is the size in bytes of one logical block (disk sector).
const SectorSize = 512

// Op distinguishes reads from writes.
type Op uint8

// The two block-level operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one block-level I/O request dispatched to a device.
type Request struct {
	Op      Op
	LBN     int64 // first sector
	Sectors int64 // length in sectors
	// Origin identifies the issuing process context (MPI rank or
	// server daemon); the CFQ-style scheduler groups requests by it.
	Origin int32
}

// Bytes returns the request length in bytes.
func (r Request) Bytes() int64 { return r.Sectors * SectorSize }

// End returns the LBN one past the last sector of the request.
func (r Request) End() int64 { return r.LBN + r.Sectors }

func (r Request) String() string {
	return fmt.Sprintf("%s[%d+%d]", r.Op, r.LBN, r.Sectors)
}

// Contiguous reports whether s starts exactly where r ends (back-merge
// candidate) and has the same operation.
func (r Request) Contiguous(s Request) bool {
	return r.Op == s.Op && r.End() == s.LBN
}

// Probe observes completed device requests with the service time split
// into its positioning and transfer components (the seek-vs-transfer
// decomposition behind the paper's Eq. 1). Implemented by
// obs.DeviceMetrics; a nil Probe disables observation at the cost of a
// single branch per request.
//
// Probes run inline in the serving process after the request's virtual
// time has elapsed; they must not block or mutate simulation state.
type Probe interface {
	ObserveIO(r Request, position, transfer vtime.Duration)
}

// Stats accumulates device service statistics.
type Stats struct {
	Ops      [2]int64       // per Op
	Bytes    [2]int64       // per Op
	BusyTime vtime.Duration // total time the medium was busy
	SeekTime vtime.Duration // time spent positioning (HDD only)
	Seeks    int64          // repositioning operations (HDD only)
	SeqOps   [2]int64       // requests served without repositioning
}

// TotalOps returns the total number of requests served.
func (s *Stats) TotalOps() int64 { return s.Ops[Read] + s.Ops[Write] }

// TotalBytes returns the total number of bytes moved.
func (s *Stats) TotalBytes() int64 { return s.Bytes[Read] + s.Bytes[Write] }
