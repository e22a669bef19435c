// Package obs is the observability layer: a metrics registry (counters,
// gauges, fixed-bucket latency histograms), one request-flow tracer
// (XTracer) that exports Chrome trace_event JSON, and T_i telemetry
// sampled at the metadata-server broadcast tick. The simulator stamps
// its trace events with virtual time and the live cluster with the wall
// clock; both record the same XEvent into the same bounded buffer.
//
// The package is built around a zero-cost-when-off contract. A nil *Set
// disables everything: components receive nil metric structs and a nil
// tracer, and every instrumentation point in the simulator reduces to a
// single branch on a nil pointer — no interface dispatch, no map lookup,
// no allocation.
//
// Each simulated event is counted once. A count lives in its
// component's Stats (the engine's, a block queue's, a bridge's, the
// file system's), and cluster.Run adds those Stats to the registry
// when the run ends. Only what no Stats keeps is observed per event,
// through the bundles of metrics.go: histograms, gauges, the tracer and
// a few counts (device reads and writes, bridge stages and writebacks).
//
// When enabled, components register their metrics once at construction
// (the only point where names are resolved) and thereafter update them
// through pointers. Counters and gauges are atomics and histograms take
// a short mutex, so one Set can safely aggregate across the parallel
// experiment runner's concurrent simulations.
//
// Observability never perturbs the simulation: probes only read state
// and record, so a traced run is byte-identical to an untraced one
// (enforced by internal/experiments' TestGoldenDigests).
package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/vtime"
)

// Config selects which observability features are enabled.
type Config struct {
	// Metrics enables the registry (counters, gauges, histograms).
	Metrics bool
	// Trace enables the request-flow tracer (DefaultMaxEvents bound).
	Trace bool
	// SampleEvery throttles T_i sampling: samples closer together than
	// this are dropped. 0 samples at every metadata broadcast tick.
	SampleEvery vtime.Duration
}

// Set is one observability instance: the registry, the tracer, and the
// per-run T_i samplers. A nil *Set is valid and means "disabled"; all
// accessors return nil so callers wire nil sinks into components.
type Set struct {
	cfg     Config
	reg     *Registry
	tr      *XTracer
	nextRun atomic.Int32
	ti      tiList
}

// New returns a Set per cfg, or nil when nothing is enabled (so callers
// can thread the result straight into components as the disabled sink).
func New(cfg Config) *Set {
	if !cfg.Metrics && !cfg.Trace {
		return nil
	}
	s := &Set{cfg: cfg}
	if cfg.Metrics {
		s.reg = NewRegistry()
	}
	if cfg.Trace {
		s.tr = NewXTracer("sim", 0)
		if s.reg != nil {
			// Surface overflow in the metrics: a truncated trace should
			// show up in the registry, not be discovered by its absence.
			s.tr.SetDropCounter(s.reg.Counter("obs.trace.dropped_events"))
		}
	}
	return s
}

// Registry returns the metrics registry, or nil when metrics are off.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the request-flow tracer, or nil when tracing is off.
// It is one tracer, process "sim", shared by every run the Set observes;
// components lay their events out in lanes "run<N>/<comp>".
func (s *Set) Tracer() *XTracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// NextRun allocates a run id, labelling one cluster instance in the
// trace lanes and the T_i sampler list.
func (s *Set) NextRun() int32 {
	if s == nil {
		return 0
	}
	return s.nextRun.Add(1)
}

// WriteMetrics renders the registry and the T_i telemetry to w.
func (s *Set) WriteMetrics(w io.Writer) {
	if s == nil {
		return
	}
	if s.reg != nil {
		io.WriteString(w, s.reg.Render())
	}
	s.ti.render(w)
}

// fmtMS formats a millisecond quantity for metric output.
func fmtMS(ms float64) string { return fmt.Sprintf("%.3fms", ms) }
