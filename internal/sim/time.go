// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine used to model the iBridge storage cluster in virtual
// time.
//
// Simulated processes are coroutines that run one at a time under control
// of an Engine: a process runs until it blocks (Sleep, semaphore, queue,
// barrier, ...), at which point it switches back to the engine, which
// advances the virtual clock to the next scheduled event and switches
// into the process that event resumes. Runs are fully deterministic:
// events with equal timestamps fire in scheduling order.
package sim

import "fmt"

// Time is an absolute point in virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring package time but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns the duration as a floating-point number of
// microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns the time as a floating-point number of seconds since the
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationOf converts a floating-point number of seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

func (t Time) String() string { return Duration(t).String() }
