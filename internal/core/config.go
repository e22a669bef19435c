// Package core implements iBridge, the paper's contribution: a hybrid
// disk+SSD storage stack for parallel file system data servers that
// redirects fragments (small sub-requests of large striped requests) and
// regular random requests to an SSD cache when a dynamic
// resource-effectiveness analysis predicts a positive return.
//
// The package provides:
//
//   - the return-value model of Eqs. (1)–(3): a decayed average disk
//     service time T updated per request from the disk model
//     (D_to_T(Δλ) + R + size/B), the return T_ret of SSD-serving a
//     request, and the striping-magnification boost for fragments whose
//     disk is currently the slowest among the parent's servers;
//   - the T-value exchange through the metadata server (each data server
//     reports its T every second; the metadata server broadcasts the
//     vector back);
//   - the SSD cache: a mapping table from disk extents to locations in a
//     log-structured SSD region, dirty tracking, per-class (regular
//     random vs fragment) LRU lists, and the dynamic partition of SSD
//     space proportional to the classes' average recorded returns;
//   - the maintenance daemon that stages read data into the SSD and
//     writes dirty data back to the disk in long sequential runs during
//     idle device periods.
package core

import "repro/internal/sim"

// Class partitions cached data into the paper's two request types.
type Class int

// The two SSD-cache client classes.
const (
	ClassRandom   Class = 0 // regular random requests
	ClassFragment Class = 1 // fragments of striped parents
)

func (c Class) String() string {
	if c == ClassRandom {
		return "random"
	}
	return "fragment"
}

// Config tunes an iBridge instance. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// SSDCapacity is the size in bytes of the SSD cache partition
	// (10 GB in the paper's evaluation).
	SSDCapacity int64
	// EWMANew is the Eq. (1) weight of the new sample, in (0, 1]; the
	// previous average gets 1 − EWMANew. The default puts 7/8 on the new
	// sample, although the paper's text (and the Linux anticipatory
	// scheduler it borrows from) puts 1/8 there: EXPERIMENTS.md D7.
	EWMANew float64
	// Magnification enables the Eq. (3) striping-magnification boost
	// for fragments on the currently slowest sibling disk. Disabling
	// it is the A1 ablation.
	Magnification bool
	// DynamicPartition partitions SSD space between the classes
	// proportionally to their average recorded return values; when
	// false, StaticFragShare fixes the fragment share (Fig. 12's 1:1
	// and 1:2 static configurations).
	DynamicPartition bool
	StaticFragShare  float64
	// LogStructured appends SSD writes to a log-managed region (the
	// paper's design); false places them at scattered locations (A4
	// ablation), paying the SSD's random-write penalty.
	LogStructured bool
	// IdleCheck is the spacing of the maintenance daemon's check
	// instants: it looks for work at the first one after the devices
	// have been idle for idleAfter (see Bridge.maintain).
	IdleCheck sim.Duration
	// WritebackMinDirty is the dirty fraction of the cache above which
	// idle writeback engages. Below it, dirty data waits for real
	// pressure or program termination: under a continuously loaded
	// disk, "idle" windows are brief anticipation gaps, and a random
	// writeback write in one delays the next foreground request (the
	// A5 ablation measures this).
	WritebackMinDirty float64
}

// Fixed parameters of the maintenance daemon.
const (
	// idleAfter is how long both devices must have been quiet before
	// the daemon stages reads or writes back dirty data.
	idleAfter = sim.Millisecond
	// writebackBatch bounds how many dirty extents one idle pass writes
	// back before re-checking for foreground traffic.
	writebackBatch = 32
	// stageQueueMax bounds the pending read-staging queue.
	stageQueueMax = 4096
)

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		SSDCapacity:       10 << 30,
		EWMANew:           7.0 / 8.0,
		Magnification:     true,
		DynamicPartition:  true,
		StaticFragShare:   0.5,
		LogStructured:     true,
		IdleCheck:         2 * sim.Millisecond,
		WritebackMinDirty: 0.5,
	}
}

// Stats accumulates per-bridge iBridge statistics.
type Stats struct {
	// Bytes of user I/O served by each medium.
	SSDReadBytes   int64
	SSDWriteBytes  int64
	DiskReadBytes  int64
	DiskWriteBytes int64
	// Cache behaviour.
	Hits       int64
	Misses     int64
	Admissions [2]int64 // per Class
	Evictions  int64
	Rejections int64 // positive-return requests that could not fit
	// Offload decisions split by whether the Eq. (3) striping
	// magnification contributed to the positive return.
	BoostedOffloads int64
	PlainOffloads   int64
	// Background traffic.
	StagedBytes    int64
	WritebackBytes int64
	// PeakUsage is the maximum cache occupancy in bytes (the paper's
	// Fig. 13 "SSD usage" metric).
	PeakUsage int64
	// SSDFailures counts injected SSD-device failures survived by
	// degrading to the disk path (fault-plan chaos runs).
	SSDFailures int64
}

// SSDServedBytes returns user bytes served at the SSD.
func (s *Stats) SSDServedBytes() int64 { return s.SSDReadBytes + s.SSDWriteBytes }

// TotalServedBytes returns all user bytes served by this bridge.
func (s *Stats) TotalServedBytes() int64 {
	return s.SSDServedBytes() + s.DiskReadBytes + s.DiskWriteBytes
}

// SSDFraction returns the fraction of user bytes served at the SSD (the
// paper reports 19%/10%/4% for 33/65/129 KB mpi-io-test requests).
func (s *Stats) SSDFraction() float64 {
	t := s.TotalServedBytes()
	if t == 0 {
		return 0
	}
	return float64(s.SSDServedBytes()) / float64(t)
}

// Add folds other into s (for cluster-wide aggregation).
func (s *Stats) Add(other *Stats) {
	s.SSDReadBytes += other.SSDReadBytes
	s.SSDWriteBytes += other.SSDWriteBytes
	s.DiskReadBytes += other.DiskReadBytes
	s.DiskWriteBytes += other.DiskWriteBytes
	s.Hits += other.Hits
	s.Misses += other.Misses
	for i := range s.Admissions {
		s.Admissions[i] += other.Admissions[i]
	}
	s.Evictions += other.Evictions
	s.Rejections += other.Rejections
	s.BoostedOffloads += other.BoostedOffloads
	s.PlainOffloads += other.PlainOffloads
	s.StagedBytes += other.StagedBytes
	s.WritebackBytes += other.WritebackBytes
	s.PeakUsage += other.PeakUsage
	s.SSDFailures += other.SSDFailures
}
