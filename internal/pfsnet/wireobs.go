package pfsnet

import (
	"sync/atomic"

	"repro/internal/obs"
)

// wireMetrics holds the wire-level observability hooks for one endpoint
// (client or data server). A nil *wireMetrics disables everything at the
// cost of one pointer test per event — the same zero-cost-when-off
// contract the rest of the repo's obs wiring follows.
type wireMetrics struct {
	framesTx *obs.Counter // frames written
	framesRx *obs.Counter // frames read
	bytesTx  *obs.Counter // payload bytes written
	bytesRx  *obs.Counter // payload bytes read

	// Client-only metrics (newClientWireMetrics); nil on a server, which
	// never calls their hooks.
	inflight     *obs.Gauge   // requests inside a round trip
	scatterReads *obs.Counter // replies scattered straight into caller buffers
	// copyAvoided counts the data bytes that crossed the wire with no
	// user-space copy at all: borrowed write data on the send side,
	// scattered read data on the receive side.
	copyAvoided *obs.Counter

	// Vectored-path metrics: how well the writev batching amortizes
	// syscalls.
	writevCalls  *obs.Counter // vectored flushes submitted
	writevFrames *obs.Counter // frames carried by those flushes
	writevBatch  *obs.Hist    // frames per vectored flush
}

// newWireMetrics resolves a server endpoint's metrics in reg under
// prefix (e.g. "pfsnet.server."). Returns nil when reg is nil.
func newWireMetrics(reg *obs.Registry, prefix string) *wireMetrics {
	if reg == nil {
		return nil
	}
	armPoolMetrics(reg)
	return &wireMetrics{
		framesTx:     reg.Counter(prefix + "frames_tx"),
		framesRx:     reg.Counter(prefix + "frames_rx"),
		bytesTx:      reg.Counter(prefix + "bytes_tx"),
		bytesRx:      reg.Counter(prefix + "bytes_rx"),
		writevCalls:  reg.Counter(prefix + "writev_calls"),
		writevFrames: reg.Counter(prefix + "writev_frames"),
		writevBatch:  reg.Hist(prefix + "writev_frames_per_call"),
	}
}

// newClientWireMetrics is newWireMetrics under "pfsnet.client." plus the
// metrics only a client moves: in-flight depth, scatter reads and the
// copies borrowing and scattering avoid.
func newClientWireMetrics(reg *obs.Registry) *wireMetrics {
	m := newWireMetrics(reg, "pfsnet.client.")
	if m != nil {
		m.inflight = reg.Gauge("pfsnet.client.inflight")
		m.scatterReads = reg.Counter("pfsnet.client.scatter_reads")
		m.copyAvoided = reg.Counter("pfsnet.client.copy_avoided_bytes")
	}
	return m
}

func (m *wireMetrics) onWritev(frames int) {
	if m == nil || frames == 0 {
		return
	}
	m.writevCalls.Inc()
	m.writevFrames.Add(int64(frames))
	m.writevBatch.Observe(float64(frames))
}

func (m *wireMetrics) onCopyAvoided(n int) {
	if m == nil {
		return
	}
	m.copyAvoided.Add(int64(n))
}

func (m *wireMetrics) onScatter(n int) {
	if m == nil {
		return
	}
	m.scatterReads.Inc()
	m.copyAvoided.Add(int64(n))
}

// Pool ownership metrics. The buffer pool is package-global, so its
// foreign-put count lives in a global atomic; armPoolMetrics mirrors it
// into whichever registries are in play (idempotent per registry — the
// counter is shared monotonic state, and every registry sees the same
// process-wide total via the atomic).
var (
	poolForeignPuts atomic.Int64
	poolObs         atomic.Pointer[obs.Counter]
)

// notePoolForeignPut records a rejected foreign-capacity putBuf.
func notePoolForeignPut() {
	poolForeignPuts.Add(1)
	if c := poolObs.Load(); c != nil {
		c.Inc()
	}
}

// armPoolMetrics points the pool's foreign-put counter at reg.
func armPoolMetrics(reg *obs.Registry) {
	poolObs.Store(reg.Counter("pfsnet.pool.foreign_put"))
}

// PoolForeignPuts returns the process-wide count of foreign-capacity
// buffers rejected by the wire pool — nonzero in steady state means an
// ownership-transfer bug is churning heap somewhere.
func PoolForeignPuts() int64 { return poolForeignPuts.Load() }

func (m *wireMetrics) onTx(payloadBytes int) {
	if m == nil {
		return
	}
	m.framesTx.Inc()
	m.bytesTx.Add(int64(payloadBytes))
}

func (m *wireMetrics) onRx(payloadBytes int) {
	if m == nil {
		return
	}
	m.framesRx.Inc()
	m.bytesRx.Add(int64(payloadBytes))
}

func (m *wireMetrics) setInflight(n int) {
	if m == nil {
		return
	}
	m.inflight.Set(int64(n))
}

// resilienceMetrics mirrors the client's retry/breaker activity into the
// obs registry. Same nil-sink contract as wireMetrics: a nil receiver
// turns every hook into a pointer test.
type resilienceMetrics struct {
	retries      *obs.Counter // transport-failure retries issued
	deadlines    *obs.Counter // attempts/requests lost to a deadline
	breakerOpens *obs.Counter // breaker open transitions
	fastFails    *obs.Counter // requests refused while a breaker was open
	breakersOpen *obs.Gauge   // breakers currently open
}

func newResilienceMetrics(reg *obs.Registry) *resilienceMetrics {
	if reg == nil {
		return nil
	}
	return &resilienceMetrics{
		retries:      reg.Counter("pfsnet.client.retries"),
		deadlines:    reg.Counter("pfsnet.client.deadline_exceeded"),
		breakerOpens: reg.Counter("pfsnet.client.breaker_opens"),
		fastFails:    reg.Counter("pfsnet.client.breaker_fastfails"),
		breakersOpen: reg.Gauge("pfsnet.client.breakers_open"),
	}
}

func (m *resilienceMetrics) onRetry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

func (m *resilienceMetrics) onDeadline() {
	if m == nil {
		return
	}
	m.deadlines.Inc()
}

func (m *resilienceMetrics) onFastFail() {
	if m == nil {
		return
	}
	m.fastFails.Inc()
}

func (m *resilienceMetrics) onOpen(nowOpen int64) {
	if m == nil {
		return
	}
	m.breakerOpens.Inc()
	m.breakersOpen.Set(nowOpen)
}

func (m *resilienceMetrics) onClose(nowOpen int64) {
	if m == nil {
		return
	}
	m.breakersOpen.Set(nowOpen)
}
