package obs

import (
	"repro/internal/device"
	"repro/internal/vtime"
)

// This file defines the per-component metric bundles. Each bundle is a
// plain struct of registry pointers that a component resolves once at
// wiring time and updates directly on its hot path — the registry map
// is never touched again. All constructors are nil-safe: a nil Set (or
// a Set without metrics) yields a nil bundle, and the component's
// instrumentation reduces to one branch on that nil pointer.
//
// A bundle holds only what must be observed per event: histograms,
// gauges, and counts no component Stats keeps. A count a component
// keeps in its Stats is not mirrored here; cluster.Run adds the Stats
// to the registry under the count's name when the run ends.
//
// Bundles from different cluster instances built against the same Set
// resolve to the same named metrics, so a parallel experiment grid
// aggregates into one registry.

// DeviceMetrics instruments one class of device ("hdd" or "ssd") with
// per-request service-time histograms split into positioning and
// transfer components. It implements device.Probe.
type DeviceMetrics struct {
	Reads, Writes *Counter
	Service       *Hist // full service time
	Position      *Hist // seek+rotation (HDD) or per-op latency (SSD)
	Transfer      *Hist // media transfer
}

// DeviceMetrics returns the bundle for the device class kind, or nil
// when metrics are off.
func (s *Set) DeviceMetrics(kind string) *DeviceMetrics {
	r := s.Registry()
	if r == nil {
		return nil
	}
	return &DeviceMetrics{
		Reads:    r.Counter(kind + ".reads"),
		Writes:   r.Counter(kind + ".writes"),
		Service:  r.Hist(kind + ".service_ms"),
		Position: r.Hist(kind + ".position_ms"),
		Transfer: r.Hist(kind + ".transfer_ms"),
	}
}

// ObserveIO implements device.Probe.
func (m *DeviceMetrics) ObserveIO(r device.Request, position, transfer vtime.Duration) {
	if r.Op == device.Read {
		m.Reads.Inc()
	} else {
		m.Writes.Inc()
	}
	m.Service.ObserveDur(position + transfer)
	m.Position.ObserveDur(position)
	m.Transfer.ObserveDur(transfer)
}

// QueueMetrics instruments one class of I/O scheduler queue.
type QueueMetrics struct {
	Wait  *Hist  // submit-to-completion latency
	Depth *Gauge // pending-queue length at dispatch
}

// QueueMetrics returns the bundle for the scheduler class kind (e.g.
// "iosched.hdd"), or nil when metrics are off.
func (s *Set) QueueMetrics(kind string) *QueueMetrics {
	r := s.Registry()
	if r == nil {
		return nil
	}
	return &QueueMetrics{
		Wait:  r.Hist(kind + ".wait_ms"),
		Depth: r.Gauge(kind + ".depth"),
	}
}

// BridgeMetrics instruments the iBridge decision engine and SSD cache.
type BridgeMetrics struct {
	Stages     *Counter // read data staged during idle
	Writebacks *Counter
	Return     *Hist  // accepted T_ret values
	Occupancy  *Gauge // cache occupancy in bytes
}

// BridgeMetrics returns the bridge bundle, or nil when metrics are off.
func (s *Set) BridgeMetrics() *BridgeMetrics {
	r := s.Registry()
	if r == nil {
		return nil
	}
	return &BridgeMetrics{
		Stages:     r.Counter("bridge.stages"),
		Writebacks: r.Counter("bridge.writebacks"),
		Return:     r.Hist("bridge.return_ms"),
		Occupancy:  r.Gauge("bridge.occupancy_bytes"),
	}
}

// PFSMetrics instruments the parallel file system's request flow: the
// client-observed parent requests and the per-server sub-requests.
type PFSMetrics struct {
	Parent   *Hist // parent request completion latency
	SubServe *Hist // per-sub-request store service time
}

// PFSMetrics returns the file-system bundle, or nil when metrics are
// off.
func (s *Set) PFSMetrics() *PFSMetrics {
	r := s.Registry()
	if r == nil {
		return nil
	}
	return &PFSMetrics{
		Parent:   r.Hist("pfs.parent_ms"),
		SubServe: r.Hist("pfs.sub_serve_ms"),
	}
}
