package pfsnet

import (
	"sync/atomic"
	"time"

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
	inflight *obs.Gauge   // requests issued and not yet completed
	qwait    *obs.Hist    // ms from enqueue to wire write (client send queue)

	// Vectored-path metrics: how well the writev batching amortizes
	// syscalls, and how many payload bytes crossed the wire without an
	// intermediate stream-buffer copy (large iovec payloads on the send
	// side, scatter reads on the receive side).
	writevCalls  *obs.Counter // vectored flushes submitted
	writevFrames *obs.Counter // frames carried by those flushes
	writevBatch  *obs.Hist    // frames per vectored flush
	copyAvoided  *obs.Counter // payload bytes moved with no intermediate copy
	scatterReads *obs.Counter // replies scattered straight into caller buffers
}

// newWireMetrics resolves the endpoint's metrics in reg under prefix
// (e.g. "pfsnet.client."). Returns nil when reg is nil.
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
		inflight:     reg.Gauge(prefix + "inflight"),
		qwait:        reg.Hist(prefix + "queue_wait_ms"),
		writevCalls:  reg.Counter(prefix + "writev_calls"),
		writevFrames: reg.Counter(prefix + "writev_frames"),
		writevBatch:  reg.Hist(prefix + "writev_frames_per_call"),
		copyAvoided:  reg.Counter(prefix + "copy_avoided_bytes"),
		scatterReads: reg.Counter(prefix + "scatter_reads"),
	}
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

func (m *wireMetrics) observeQueueWait(enq time.Time) {
	if m == nil || enq.IsZero() {
		return
	}
	m.qwait.Observe(float64(time.Since(enq)) / float64(time.Millisecond))
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

// hedgeMetrics tracks the hedged-read machinery. Unlike wireMetrics it
// keeps local atomics alongside the optional registry mirrors: hedge
// counts feed deterministic test/chaos summaries via HedgeStats even
// when no registry is attached. A nil receiver (hedging never armed) is
// a no-op.
type hedgeMetrics struct {
	armed       atomic.Int64 // hedge timers started
	fired       atomic.Int64 // hedges actually issued to the wire
	won         atomic.Int64 // hedge replies that beat the primary
	wasted      atomic.Int64 // hedges fired whose primary won anyway
	suppressed  atomic.Int64 // hedges skipped for lack of a budget token
	cancelsSent atomic.Int64 // opCancel frames issued for losers

	// Registry mirrors; nil without an obs registry.
	cArmed, cFired, cWon, cWasted, cSuppressed, cCancels *obs.Counter
}

// newHedgeMetrics builds the client's hedge metrics; reg may be nil, in
// which case only the local atomics count.
func newHedgeMetrics(reg *obs.Registry) *hedgeMetrics {
	m := &hedgeMetrics{}
	if reg != nil {
		m.cArmed = reg.Counter("pfsnet.client.hedges_armed")
		m.cFired = reg.Counter("pfsnet.client.hedges_fired")
		m.cWon = reg.Counter("pfsnet.client.hedges_won")
		m.cWasted = reg.Counter("pfsnet.client.hedges_wasted")
		m.cSuppressed = reg.Counter("pfsnet.client.hedges_suppressed")
		m.cCancels = reg.Counter("pfsnet.client.cancels_sent")
	}
	return m
}

func bump(local *atomic.Int64, mirror *obs.Counter) {
	local.Add(1)
	if mirror != nil {
		mirror.Inc()
	}
}

func (m *hedgeMetrics) onArmed() {
	if m == nil {
		return
	}
	bump(&m.armed, m.cArmed)
}

func (m *hedgeMetrics) onFired() {
	if m == nil {
		return
	}
	bump(&m.fired, m.cFired)
}

func (m *hedgeMetrics) onWon() {
	if m == nil {
		return
	}
	bump(&m.won, m.cWon)
}

func (m *hedgeMetrics) onWasted() {
	if m == nil {
		return
	}
	bump(&m.wasted, m.cWasted)
}

func (m *hedgeMetrics) onSuppressed() {
	if m == nil {
		return
	}
	bump(&m.suppressed, m.cSuppressed)
}

func (m *hedgeMetrics) onCancelSent() {
	if m == nil {
		return
	}
	bump(&m.cancelsSent, m.cCancels)
}
