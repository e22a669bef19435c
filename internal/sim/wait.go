package sim

import (
	"fmt"
	"math"
)

// Never is the instant of an event that is not coming: what a wait's
// earliest reports when only a Kick can make its predicate hold.
const Never Time = math.MaxInt64

// Wait is an armed wait. Between Await and the check that finds its
// predicate true it is waiting; that check runs its continuation, a
// callback, inline, so a wait costs no process. A Wait is reusable: it
// may Await again once its continuation has begun.
type Wait struct {
	e *Engine
	// then is the continuation, and check is fire bound once, so that
	// a wait allocates nothing.
	then  func()
	check func()
	// The predicate, the instant it could first hold, the grid of check
	// instants from + k·period (k ≥ 1), the wait's place in (at, seq)
	// order, and the one armed check. ready is nil when not waiting.
	ready    func() bool
	earliest func() Time
	period   Duration
	from     Time
	seq      uint64
	at       Time // the armed check's instant, or Never
}

// NewWait returns a wait that is not waiting, whose continuation is
// then. then runs inline in the engine loop and must not block.
func (e *Engine) NewWait(then func()) *Wait {
	w := &Wait{e: e, then: then}
	w.check = w.fire
	return w
}

// Await starts w at the current instant: its continuation runs at the
// first instant now + k·period (k ≥ 1) at which ready holds. ready is
// evaluated inline, as a timer callback, and only at the instant the
// engine has armed: the first grid instant at or after earliest(), the
// instant ready could first hold if nothing but time changes (Never:
// not until something else changes). Code that changes what ready or
// earliest read must call Kick, which re-arms. Instants before earliest
// are skipped unseen: they cost no event.
//
// Every check is ordered as if all of them had been scheduled when the
// wait began: after the events scheduled before the Await, before those
// scheduled after it.
//
// ready and earliest read simulation state only — they may not block,
// schedule or mutate — so they may be method values bound once and
// passed to every Await. period must be positive, and w not waiting.
func (w *Wait) Await(period Duration, ready func() bool, earliest func() Time) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Await with non-positive period %v", period))
	}
	if w.ready != nil {
		panic("sim: Await on a wait that is already waiting")
	}
	e := w.e
	e.seq++
	w.ready, w.earliest, w.period, w.from, w.seq, w.at = ready, earliest, period, e.now, e.seq, Never
	w.arm()
}

// Waiting reports whether w has begun an Await whose continuation has
// not yet run.
func (w *Wait) Waiting() bool { return w.ready != nil }

// Kick re-arms w after a change to what its predicate reads. A wait
// that is not waiting is left alone.
func (w *Wait) Kick() {
	if w.ready != nil {
		w.arm()
	}
}

// arm sets w's check to the first grid instant at or after earliest()
// that the current event does not already follow in (at, seq) order,
// and schedules it unless it is already armed. The superseded check
// stays queued and is skipped when it comes up.
func (w *Wait) arm() {
	e := w.e
	t := w.earliest()
	if t == Never {
		w.at = Never
		return
	}
	k := max(1, (max(t, e.now).Sub(w.from)+w.period-1)/w.period)
	at := w.from.Add(k * w.period)
	if at == e.now && e.cur >= w.seq {
		at = at.Add(w.period) // this instant's check has had its turn
	}
	if at == w.at {
		return
	}
	w.at = at
	// Straight onto the heap, at the wait's seq: taken before the
	// current instant, it precedes every event in the same-instant ring,
	// as next() assumes of the heap's events at now.
	e.events.push(event{at: at, seq: w.seq, fn: w.check})
}

// fire runs an armed check: it ends the wait and runs the continuation
// if ready holds, and otherwise arms the next check. A check that is
// not the armed one — superseded by a Kick, or left over from a
// finished wait — does nothing.
func (w *Wait) fire() {
	if w.ready == nil || w.seq != w.e.cur || w.at != w.e.now {
		return
	}
	if w.ready() {
		w.ready, w.earliest = nil, nil
		w.then()
		return
	}
	w.arm()
}
