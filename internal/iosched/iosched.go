// Package iosched implements the block-layer I/O schedulers that sit
// between a data server's storage stack and its device, mirroring the
// paper's evaluation setup (CFQ for the hard disk, Noop for the SSD).
//
// The scheduler queues concurrently submitted requests, merges physically
// contiguous ones (the mechanism behind the 128 KB peaks in the paper's
// Figure 2(c) block-size distribution), and dispatches in CFQ order (per
// origin slices) or FIFO order (Noop). Dispatch is work-conserving: the
// queue starts a request on its device whenever the device is idle and
// requests are pending, so merging opportunities arise exactly when the
// device is the bottleneck — the same dynamics as the Linux block layer.
// Neither the dispatcher nor a submitter is a process: Start takes a
// continuation, and the queue runs from engine callbacks, one when a busy
// period opens, one at each completion and one at the end of each CFQ
// anticipation window.
package iosched

import (
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Policy selects the dispatch order.
type Policy uint8

const (
	// FIFO dispatches in arrival order (the Noop scheduler); used for
	// SSDs, whose service time does not depend on order.
	FIFO Policy = iota
	// CFQ models the Linux Completely Fair Queueing scheduler the
	// paper uses for hard disks: requests are grouped by origin
	// (process); the disk serves one origin's queue in LBN order for a
	// bounded slice and idles briefly at the end of a slice
	// anticipating the origin's next request before switching. The
	// idle windows bound aligned streaming throughput, and every
	// origin whose pattern does not continue locally — a fragment of a
	// striped parent, most of all — pays a whole positioning + slice
	// overhead for however little data it moves.
	CFQ
)

// Device is the simulated block device a queue dispatches to
// (internal/hdd, internal/ssd). Its medium serves one request at a
// time, and its queue is its only dispatcher: Start is called only
// while the device is idle, and Finish once per Start.
type Device interface {
	// Start begins serving r and returns its service time. It does not
	// block.
	Start(r device.Request) sim.Duration
	// Finish completes the request Start began, when its service time
	// has passed.
	Finish(r device.Request)
}

// Tracer observes dispatched block-level requests; implemented by
// blktrace.Collector. A nil Tracer disables tracing.
type Tracer interface {
	Dispatch(now sim.Time, r device.Request)
}

// Config tunes a scheduler queue. Queues always front- and back-merge
// contiguous requests.
type Config struct {
	Policy Policy
	// MaxSectors caps the size a merged request may reach, like the
	// block layer's max_sectors_kb. 256 sectors = 128 KB, the largest
	// request size visible in the paper's Figure 2(c).
	MaxSectors int64
	// SliceIdle is the CFQ anticipation window: after draining an
	// origin's queue the dispatcher waits this long for the origin to
	// continue before switching (Linux cfq's slice_idle).
	SliceIdle sim.Duration
	// SliceQuantum bounds dispatches per slice before the scheduler
	// switches origins even if the active origin has more work.
	SliceQuantum int
}

// DiskDefaults returns the configuration used for hard disks in the
// paper's evaluation: CFQ with merging.
func DiskDefaults() Config {
	return Config{
		Policy:       CFQ,
		MaxSectors:   256,
		SliceIdle:    2 * sim.Millisecond,
		SliceQuantum: 16,
	}
}

// SSDDefaults returns the configuration used for SSDs (Noop: merging,
// FIFO dispatch).
func SSDDefaults() Config {
	return Config{Policy: FIFO, MaxSectors: 256}
}

// Stats accumulates scheduler statistics.
type Stats struct {
	Submitted   int64
	BackMerges  int64
	FrontMerges int64
	Dispatches  int64
}

// unit is one queued block request, possibly the merge of several
// submitted requests; every submitter waits on the unit until it is
// served. A served unit goes back on its queue's free list, waiters
// backing array and all.
type unit struct {
	req     device.Request
	waiters []waiter
	seq     uint64 // arrival order, for FIFO dispatch and fairness
	origin  int32  // issuing process context, for CFQ grouping
}

// waiter is a submitter waiting on a unit: its continuation, and when it
// submitted, for the wait histogram.
type waiter struct {
	done  func()
	start sim.Time
}

// Queue is a scheduler instance bound to one device.
type Queue struct {
	e         *sim.Engine
	dev       Device
	cfg       Config
	tracer    Tracer
	pending   []*unit // sorted by LBN
	free      []*unit // served units, for place to reuse
	draining  bool    // a busy period is open: dispatch is due, in service or idling
	inService *unit   // the unit the device is serving
	pos       int64   // LBN after the last dispatched request
	seq       uint64  // arrival sequence for FIFO dispatch
	// CFQ slice state. idleFrom is when the current anticipation
	// window opened, and window the wait it is, whose continuation
	// dispatches; idleOver and idleEnd are idleDone and windowEnd
	// bound once, its predicate and earliest instant.
	active     int32
	sliceCount int
	idled      bool
	idleFrom   sim.Time
	window     *sim.Wait
	idleOver   func() bool
	idleEnd    func() sim.Time
	// woken holds the submitters of served units whose continuations
	// are due: one resume event each, scheduled where the unit
	// completed, and they run in the order they were scheduled.
	woken sim.Ring[waiter]
	// dispatchFn, doneFn and resumeFn are dispatch, done and resume
	// bound once, for the engine to call back.
	dispatchFn, doneFn, resumeFn func()
	stats                        Stats
	// m, when non-nil, observes what stats does not keep: the wait
	// histogram and the depth gauge. The nil check per update is the
	// entire disabled-path cost.
	m *obs.QueueMetrics
}

// SetMetrics installs an observability bundle (nil disables).
func (q *Queue) SetMetrics(m *obs.QueueMetrics) { q.m = m }

// New returns a scheduler queue feeding dev.
func New(e *sim.Engine, dev Device, cfg Config, tracer Tracer) *Queue {
	q := &Queue{e: e, dev: dev, cfg: cfg, tracer: tracer}
	q.idleOver, q.idleEnd = q.idleDone, q.windowEnd
	q.dispatchFn, q.doneFn, q.resumeFn = q.dispatch, q.done, q.resume
	q.window = e.NewWait(q.dispatchFn)
	return q
}

// Stats returns accumulated scheduler statistics.
func (q *Queue) Stats() *Stats { return &q.stats }

// Pending returns the number of queued (not yet dispatched) requests.
func (q *Queue) Pending() int { return len(q.pending) }

// Start enqueues r and runs done once the request (or the merged request
// containing it) has been served: from an event of its own at the
// completion instant, scheduled when the unit completes. A request of no
// sectors needs no device, and done runs inline.
func (q *Queue) Start(r device.Request, done func()) {
	if r.Sectors <= 0 {
		done()
		return
	}
	q.stats.Submitted++
	u := q.place(r)
	u.waiters = append(u.waiters, waiter{done: done, start: q.e.Now()})
	if u.origin == q.active {
		q.window.Kick() // the anticipated request: end the window
	}
	if !q.draining {
		q.draining = true
		q.e.After(0, q.dispatchFn)
	}
}

// resume runs the continuation of the submitter whose resume event this
// is, the oldest in woken.
func (q *Queue) resume() {
	w := q.woken.Pop()
	if q.m != nil {
		q.m.Wait.ObserveDur(q.e.Now().Sub(w.start))
	}
	w.done()
}

// place merges r into a pending unit if possible, otherwise inserts a new
// unit in LBN order, and returns the unit carrying r.
func (q *Queue) place(r device.Request) *unit {
	for _, u := range q.pending {
		if u.req.Sectors+r.Sectors > q.cfg.MaxSectors {
			continue
		}
		if u.req.Contiguous(r) { // back merge: r extends u
			u.req.Sectors += r.Sectors
			q.stats.BackMerges++
			return u
		}
		if r.Contiguous(u.req) { // front merge: r precedes u
			u.req.LBN = r.LBN
			u.req.Sectors += r.Sectors
			q.stats.FrontMerges++
			return u
		}
	}
	q.seq++
	var u *unit
	if n := len(q.free); n > 0 {
		u, q.free = q.free[n-1], q.free[:n-1]
	} else {
		u = &unit{}
	}
	u.req, u.seq, u.origin = r, q.seq, r.Origin
	// Insert in LBN order (stable for equal LBNs: after existing ones,
	// preserving arrival order for FIFO fairness at the same location).
	i := len(q.pending)
	for j, v := range q.pending {
		if v.req.LBN > r.LBN {
			i = j
			break
		}
	}
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = u
	return u
}

// pick removes and returns the oldest pending unit by arrival
// sequence (pending is LBN-sorted).
func (q *Queue) pick() *unit {
	best := 0
	for i, u := range q.pending {
		if u.seq < q.pending[best].seq {
			best = i
		}
	}
	u := q.pending[best]
	q.pending = append(q.pending[:best], q.pending[best+1:]...)
	return u
}

// dispatch starts the next unit on the device, or closes the busy
// period when the queue is empty. Under CFQ it may instead open an
// anticipation window, whose end calls it again.
func (q *Queue) dispatch() {
	var u *unit
	if q.cfg.Policy == CFQ {
		u = q.selectCFQ()
	} else if len(q.pending) > 0 {
		u = q.pick()
	}
	if u == nil {
		// Empty, unless a window opened: the busy period outlasts it.
		q.draining = q.window.Waiting()
		return
	}
	q.stats.Dispatches++
	if q.m != nil {
		q.m.Depth.Set(int64(len(q.pending) + 1))
	}
	if q.tracer != nil {
		q.tracer.Dispatch(q.e.Now(), u.req)
	}
	q.inService = u
	q.e.After(q.dev.Start(u.req), q.doneFn)
}

// done completes the unit in service, schedules its submitters'
// continuations and dispatches the next.
func (q *Queue) done() {
	u := q.inService
	q.inService = nil
	q.dev.Finish(u.req)
	q.pos = u.req.End()
	for _, w := range u.waiters {
		q.woken.Push(w)
		q.e.After(0, q.resumeFn)
	}
	clear(u.waiters)
	u.waiters = u.waiters[:0]
	q.free = append(q.free, u)
	q.dispatch()
}

// selectCFQ removes and returns the next unit under the CFQ policy. It
// returns nil when the queue is empty, or when it opened an anticipation
// window instead.
func (q *Queue) selectCFQ() *unit {
	for {
		if len(q.pending) == 0 {
			return nil
		}
		// Look for the active origin's next unit: C-LOOK within the
		// origin's queue (nearest at or ahead of the head, else its
		// lowest LBN).
		best, bestAhead := -1, -1
		for i, u := range q.pending {
			if u.origin != q.active {
				continue
			}
			if u.req.LBN >= q.pos {
				if bestAhead < 0 || u.req.LBN < q.pending[bestAhead].req.LBN {
					bestAhead = i
				}
				continue
			}
			if best < 0 || u.req.LBN < q.pending[best].req.LBN {
				best = i
			}
		}
		if bestAhead >= 0 {
			best = bestAhead
		}
		if best >= 0 && q.sliceCount < q.cfg.SliceQuantum {
			q.sliceCount++
			u := q.pending[best]
			q.pending = append(q.pending[:best], q.pending[best+1:]...)
			return u
		}
		if best < 0 && !q.idled && q.cfg.SliceIdle > 0 {
			// End of the active origin's queue: anticipate its next
			// request before giving the disk away (cfq slice_idle).
			// The window ends at the first sub-window step at or after
			// the origin's next arrival (Start kicks) or its full
			// length; the engine arms only that step.
			q.idled = true
			step := q.cfg.SliceIdle / 8
			if step <= 0 {
				step = q.cfg.SliceIdle
			}
			q.idleFrom = q.e.Now()
			q.window.Await(step, q.idleOver, q.idleEnd)
			return nil
		}
		// Slice over: rotate to the origin that has waited longest,
		// preferring a *different* origin (round-robin fairness); if
		// only the active origin has work, its slice restarts.
		oldest, oldestOther := -1, -1
		for i, u := range q.pending {
			if oldest < 0 || u.seq < q.pending[oldest].seq {
				oldest = i
			}
			if u.origin != q.active && (oldestOther < 0 || u.seq < q.pending[oldestOther].seq) {
				oldestOther = i
			}
		}
		pick := oldest
		if oldestOther >= 0 {
			pick = oldestOther
		}
		q.active = q.pending[pick].origin
		q.sliceCount = 0
		q.idled = false
	}
}

// idleDone reports whether the anticipation window is over: the active
// origin has a request pending, or the window has run its full length.
// It reads state only, so the engine evaluates it inline at the
// window's armed check.
func (q *Queue) idleDone() bool {
	return q.hasPending(q.active) || q.e.Now().Sub(q.idleFrom) >= q.cfg.SliceIdle
}

// windowEnd is the earliest instant idleDone can hold: now once the
// active origin has a request pending, else the end of the window. Only
// an arrival of the active origin moves it, and Start kicks then.
func (q *Queue) windowEnd() sim.Time {
	if q.hasPending(q.active) {
		return q.e.Now()
	}
	return q.idleFrom.Add(q.cfg.SliceIdle)
}

// hasPending reports whether any pending unit belongs to origin.
func (q *Queue) hasPending(origin int32) bool {
	for _, u := range q.pending {
		if u.origin == origin {
			return true
		}
	}
	return false
}
