package core

import (
	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/sim"
)

// tracker maintains the decayed average disk service time T of Eqs. (1)
// and (2) for one data server's disk, together with the location λ of the
// previous disk-served request.
type tracker struct {
	spec    hdd.Spec
	wOld    float64
	wNew    float64
	tAvg    float64 // seconds
	prevLBN int64
}

// newTracker returns a tracker that weighs each new sample by wNew and
// the previous average by 1 − wNew.
func newTracker(spec hdd.Spec, wNew float64) *tracker {
	return &tracker{spec: spec, wOld: 1 - wNew, wNew: wNew}
}

// sample returns the Eq. (1) service-time sample for request r arriving
// now: D_to_T(λ_i − λ_{i-1}) + R + size/B, in seconds.
func (t *tracker) sample(r device.Request) float64 {
	return t.spec.Estimate(t.prevLBN, r).Seconds()
}

// hypothetical returns what T would become if r were served at the disk
// (Eq. 1), without committing the update.
func (t *tracker) hypothetical(r device.Request) float64 {
	return t.wOld*t.tAvg + t.wNew*t.sample(r)
}

// servedAtDisk commits the Eq. (1) update after r has been sent to the
// disk, and advances λ.
func (t *tracker) servedAtDisk(r device.Request) {
	t.tAvg = t.hypothetical(r)
	t.prevLBN = r.End()
}

// servedAtSSD is Eq. (2): serving at the SSD leaves both T and λ
// untouched.
func (t *tracker) servedAtSSD() {}

// T returns the current decayed average service time in seconds.
func (t *tracker) T() float64 { return t.tAvg }

// Exchange implements the T-value reporting protocol: every period (1 s
// in the paper) each data server's current T is collected at the
// metadata server and the full vector is broadcast back. Between
// broadcasts, servers see a stale snapshot — exactly the paper's
// once-per-second daemon pair.
type Exchange struct {
	e       *sim.Engine
	period  sim.Duration
	bridges []*Bridge
	view    []float64
	started bool
	tickFn  func() // tick bound once
	// sampler, when non-nil, observes each broadcast (the T_i telemetry
	// hook); it must not mutate the view or block.
	sampler func(now sim.Time, view []float64)
}

// SetSampler installs a broadcast observer (nil disables). Call before
// Start.
func (x *Exchange) SetSampler(fn func(now sim.Time, view []float64)) { x.sampler = fn }

// NewExchange returns an exchange with the given positive broadcast period.
func NewExchange(e *sim.Engine, period sim.Duration) *Exchange {
	if period <= 0 {
		panic("core: non-positive exchange period")
	}
	return &Exchange{e: e, period: period}
}

// Register adds a bridge to the exchange. Bridges must be registered in
// data-server order so that the broadcast vector indexes match the
// sibling-server identifiers carried by fragment requests.
func (x *Exchange) Register(b *Bridge) {
	if x.started {
		panic("core: Register after Start")
	}
	x.bridges = append(x.bridges, b)
	x.view = append(x.view, 0)
}

// Start begins the periodic collection and broadcast: a chain of engine
// callbacks, one per period.
func (x *Exchange) Start() {
	if x.started || len(x.bridges) == 0 {
		x.started = true
		return
	}
	x.started = true
	x.tickFn = x.tick
	x.e.After(x.period, x.tickFn)
}

// tick is one collection and broadcast; it schedules the next.
func (x *Exchange) tick() {
	for i, b := range x.bridges {
		x.view[i] = b.T()
	}
	if x.sampler != nil {
		x.sampler(x.e.Now(), x.view)
	}
	x.e.After(x.period, x.tickFn)
}

// View returns the last broadcast T vector, indexed by server id. The
// caller must not mutate it.
func (x *Exchange) View() []float64 { return x.view }

// magnification computes the Eq. (3) boost for a fragment arriving at
// server self with the given sibling servers: if self's current T is the
// strict maximum among the parent's servers, the return grows by
// (T_max − T_sec_max) · n, with n the sibling count. The comparison uses
// self's *current* T but the siblings' *broadcast* (possibly stale) T
// values, as in the paper.
func magnification(selfT float64, self int, siblings []int, view []float64) float64 {
	if len(siblings) == 0 {
		return 0
	}
	secMax := -1.0
	for _, s := range siblings {
		if s == self || s < 0 || s >= len(view) {
			continue
		}
		if view[s] >= selfT {
			// Some other server is at least as slow: no boost; the
			// parent is bottlenecked elsewhere.
			return 0
		}
		if view[s] > secMax {
			secMax = view[s]
		}
	}
	if secMax < 0 {
		return 0
	}
	return (selfT - secMax) * float64(len(siblings))
}
