package sim

// Probe observes the engine's event loop. It exists for the
// observability layer (internal/obs): the engine itself defines only
// this narrow interface so that instrumentation adds exactly one
// nil-pointer branch per event to the hot loop and nothing else — the
// disabled path stays at 0 allocs/op (asserted by this package's
// benchmark regression tests).
//
// Implementations run inline in the engine loop: they must not block,
// must not schedule events, and must not mutate engine state, so that
// an observed run is indistinguishable from an unobserved one.
type Probe interface {
	// OnEvent fires after the clock advances to an event's timestamp,
	// with the number of events still pending.
	OnEvent(now Time, pending int)
	// OnResume fires each time the engine switches into a process: its
	// start, and every return from a park.
	OnResume()
	// OnStart fires when Go creates a process.
	OnStart()
}

// SetProbe installs p (nil removes it). Call before Run.
func (e *Engine) SetProbe(p Probe) { e.probe = p }
