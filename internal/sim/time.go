// Package sim provides a deterministic discrete-event simulation engine
// used to model the iBridge storage cluster in virtual time.
//
// The engine advances the virtual clock from event to event and runs
// each event's callback (After, a Wait's continuation, a barrier's
// release) inline. The whole cluster — every workload and rank, and the
// storage stack beneath them — is chains of such callbacks. The engine
// also runs processes: coroutines that run one at a time until they
// block (Sleep, Call, Block, Barrier.Wait), switching back to the
// engine, which switches into the process the next event resumes. No
// production code starts one; they remain for the tests' reference
// ranks, which the callback ranks are held to, and the benchmark's
// engine probe. Runs are fully deterministic: events with equal
// timestamps fire in scheduling order.
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
