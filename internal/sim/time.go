// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine used to model the iBridge storage cluster in virtual
// time.
//
// Simulated processes are coroutines that run one at a time under control
// of an Engine: a process runs until it blocks (Sleep, Call, Block,
// barrier, ...), at which point it switches back to the engine, which
// advances the virtual clock to the next scheduled event and switches
// into the process that event resumes. Callbacks (After, and a Wait's
// continuation) run inline in the engine loop, with no process to switch
// into. In the cluster only some workloads' ranks (and the drivers that
// start them) are processes; mpi-io-test's and ior-mpi-io's ranks and
// the storage stack beneath them run on callbacks. Runs are fully
// deterministic: events with equal timestamps fire in scheduling order.
package sim

import "repro/internal/vtime"

// Time and Duration are the virtual clock's types (package vtime),
// re-exported so engine users need not import vtime.
type (
	Time     = vtime.Time
	Duration = vtime.Duration
)

// Common durations, re-exported from package vtime.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)
