// Package vtime is the virtual clock's vocabulary: absolute points and
// spans of simulated time in nanoseconds. It is a leaf (it imports only
// fmt) so that packages which merely name simulated time — device
// requests and statistics, the observability layer — do not link the
// simulation engine. Package sim re-exports these types as aliases.
package vtime

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
