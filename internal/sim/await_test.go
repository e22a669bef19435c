package sim

import (
	"fmt"
	"strings"
	"testing"
)

// A waiterMode is how a scenario's daemons wait.
type waiterMode int

const (
	// eagerProcess is the reference the armed wait must match: when the
	// wait begins it schedules, with After, a check at every grid
	// instant up to the run's horizon, each of which resumes the
	// process inline at the first one to find ready true. Those checks
	// are ordered as the armed wait's rule says — after every event
	// scheduled before the wait, before every event scheduled after it
	// — and nothing is skipped, so it needs no earliest and no kicks.
	eagerProcess waiterMode = iota
	// armedCallback runs the daemon as callbacks: a Wait whose
	// continuation does the work, kicked by Wait.Kick.
	armedCallback
)

// eagerAwait is eagerProcess's wait.
func eagerAwait(p *Proc, horizon Time, period Duration, ready func() bool) {
	e, done := p.e, false
	for t := e.now.Add(period); t <= horizon; t = t.Add(period) {
		e.After(t.Sub(e.now), func() {
			if !done && ready() {
				done = true
				p.next()
			}
		})
	}
	p.park()
}

// awaitScenario is a run of daemons that wait for work on a grid, and of
// producers that add it. With a window the daemons wait as a CFQ
// anticipation window does: until work arrives or the window has passed.
// Without one they wait as the bridge's daemon does, with nothing armed
// while there is no work.
type awaitScenario struct {
	period, window, busy Duration
	daemons              int
	// early producers are created before the daemons, so a production
	// they schedule before a daemon's wait begins precedes its checks at
	// the same instant; late ones are created after the daemons.
	early, late [][]Duration
}

// awaitCoverage counts the kicks of an armed run by the state of the wait
// they reach.
type awaitCoverage struct {
	unarmed, beforeCheck, afterCheck int
}

// run plays s with its daemons waiting in the given mode, and returns
// the log of every wake and production. cov, if not nil, counts an
// armed run's kicks.
func (s awaitScenario) run(t testing.TB, mode waiterMode, cov *awaitCoverage) string {
	var end Duration
	for _, gaps := range append(append([][]Duration{}, s.early...), s.late...) {
		var sum Duration
		for _, g := range gaps {
			sum += g
		}
		end = max(end, sum)
	}
	end += s.window + 4*s.period + s.busy
	horizon := Time(0).Add(end + s.period)

	e := New()
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, e.Now())) }
	work := 0
	// waits are the armed daemons' waits, each kicked by a production.
	var waits []*Wait
	kickAll := func() {
		for _, w := range waits {
			if cov != nil && w.ready != nil {
				switch {
				case w.at == Never:
					cov.unarmed++
				case e.now > w.from && e.now.Sub(w.from)%w.period == 0 && e.cur < w.seq:
					cov.beforeCheck++
				case e.now > w.from && e.now.Sub(w.from)%w.period == 0:
					cov.afterCheck++
				}
			}
			w.Kick()
		}
	}
	producer := func(name string, gaps []Duration) {
		e.Go(name, func(p *Proc) {
			for _, g := range gaps {
				p.Sleep(g)
				work += 2
				note(name)
				kickAll()
			}
		})
	}
	for i, gaps := range s.early {
		producer(fmt.Sprint("early", i), gaps)
	}
	for i := 0; i < s.daemons; i++ {
		name := fmt.Sprint("daemon", i)
		var start Time
		ready := func() bool { return work > 0 || s.window > 0 && e.Now().Sub(start) >= s.window }
		earliest := func() Time {
			switch {
			case work > 0:
				return e.Now()
			case s.window > 0:
				return start.Add(s.window)
			}
			return Never
		}
		// woke takes a unit of work after a wait, if there is one.
		woke := func() bool {
			if work == 0 {
				note(name + "-idle")
				return false
			}
			work--
			note(name)
			return true
		}
		if mode == armedCallback {
			var w *Wait
			begin := func() {
				start = e.Now()
				w.Await(s.period, ready, earliest)
			}
			w = e.NewWait(func() {
				if woke() {
					e.After(s.busy, begin)
					return
				}
				begin()
			})
			e.After(0, begin) // where a process would start
			waits = append(waits, w)
			continue
		}
		e.Go(name, func(p *Proc) {
			for {
				start = p.Now()
				eagerAwait(p, horizon, s.period, ready)
				if woke() {
					p.Sleep(s.busy)
				}
			}
		})
	}
	for i, gaps := range s.late {
		producer(fmt.Sprint("late", i), gaps)
	}
	e.Go("halter", func(p *Proc) {
		p.Sleep(end)
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(log, " ")
}

// check fails t unless the armed run of s logs the same as the eager
// reference.
func (s awaitScenario) check(t testing.TB, cov *awaitCoverage) {
	t.Helper()
	want := s.run(t, eagerProcess, nil)
	if got := s.run(t, armedCallback, cov); got != want {
		t.Fatalf("%+v: Await diverged from eager checks:\n eager: %s\n armed: %s", s, want, got)
	}
}

// TestAwaitMatchesEagerChecks: an armed wait runs its continuation at
// the same instant, in the same order among that instant's events, as
// checks scheduled at every grid instant when the wait begins resume a
// process. Both predicate
// shapes run — "work arrived", with nothing armed while there is none,
// and the deadline-bounded anticipation window (7 ms on a 2 ms grid, so
// the last check overshoots) — with productions landing on check
// instants both before and after that instant's check.
func TestAwaitMatchesEagerChecks(t *testing.T) {
	ms := func(v ...Duration) []Duration {
		for i := range v {
			v[i] *= Millisecond
		}
		return v
	}
	var cov awaitCoverage
	for _, window := range []Duration{0, 7 * Millisecond} {
		s := awaitScenario{
			period: 2 * Millisecond, window: window, busy: 500 * Microsecond, daemons: 3,
			// Even gaps land on the grid of a daemon that began
			// waiting at 0 or on an even millisecond.
			early: [][]Duration{ms(4, 6, 1, 12, 2), ms(8, 8, 3)},
			late:  [][]Duration{ms(3, 9, 1, 12, 3, 8), ms(2, 2, 2, 16)},
		}
		s.check(t, &cov)
		idle := strings.Contains(s.run(t, armedCallback, nil), "-idle@")
		if window > 0 && !idle {
			t.Errorf("window %v: no window ran out", window)
		}
		if window == 0 && idle {
			t.Errorf("a daemon without a window woke with no work")
		}
	}
	if cov.unarmed == 0 || cov.beforeCheck == 0 || cov.afterCheck == 0 {
		t.Errorf("scenarios too tame: %+v kicks (unarmed, on a check instant before its check, after it)", cov)
	}
}

// FuzzAwait drives the same comparison over random grids, windows, busy
// times and production gaps.
func FuzzAwait(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint8(2), uint8(3), []byte{16, 24, 4, 48, 8, 32})
	f.Add(uint8(8), uint8(28), uint8(2), uint8(3), []byte{12, 36, 4, 48, 12, 32, 0, 8})
	f.Add(uint8(1), uint8(5), uint8(0), uint8(1), []byte{1, 1, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, period, window, busy, daemons uint8, gaps []byte) {
		if len(gaps) > 32 {
			gaps = gaps[:32]
		}
		const q = 250 * Microsecond // a coarse quantum, so instants coincide
		s := awaitScenario{
			period:  Duration(period%16+1) * q,
			window:  Duration(window%64) * q,
			busy:    Duration(busy%16) * q,
			daemons: int(daemons%4) + 1,
		}
		// The gaps are dealt in turn to two early and two late producers.
		var cur [4][]Duration
		for i, g := range gaps {
			cur[i%4] = append(cur[i%4], Duration(g%64)*q)
		}
		s.early, s.late = cur[:2], cur[2:]
		s.check(t, nil)
	})
}

// TestKickLeavesOthersAlone: a Kick to a wait that is not waiting —
// never begun, or past its continuation — schedules nothing.
func TestKickLeavesOthersAlone(t *testing.T) {
	e := New()
	fresh := e.NewWait(func() { t.Error("a wait never begun ran its continuation") })
	finished := e.NewWait(func() {})
	finished.Await(Millisecond, func() bool { return true }, e.Now)
	e.After(2*Millisecond, func() { // past finished's continuation
		if fresh.Waiting() || finished.Waiting() {
			t.Fatal("a wait reads as waiting")
		}
		before := e.pending()
		fresh.Kick()
		finished.Kick()
		if got := e.pending(); got != before {
			t.Errorf("kicks of waits not waiting scheduled %d events", got-before)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleCheckIsSkipped: a check superseded by a Kick stays queued, and
// when it comes up it does nothing: not while the wait has ended, and not
// after a new wait has begun — even though the predicate holds at that
// instant, the waiter wakes only on its new grid.
func TestStaleCheckIsSkipped(t *testing.T) {
	for _, c := range []struct {
		// gap is the time between the first wake (2 ms) and the second
		// wait, which either spans the stale check at 10 ms or begins
		// after it.
		gap    Duration
		second Time
	}{
		{Millisecond, 12 * Time(Millisecond)},      // grid 6, 9, 12 ms
		{11 * Millisecond, 16 * Time(Millisecond)}, // grid 16 ms
	} {
		e := New()
		var wakes []Time
		ok := false
		ready := func() bool { return ok }
		// ready holds from a kick, or else from 10 ms.
		first := func() Time {
			if ok {
				return e.Now()
			}
			return 10 * Time(Millisecond)
		}
		// Scheduled before either wait begins, so at 10 ms it runs
		// before the stale check.
		e.After(10*Millisecond, func() { ok = true })
		// The first wait is armed at 10 ms; the kick at 1 ms re-arms it
		// for 2 ms.
		var w *Wait
		w = e.NewWait(func() {
			wakes = append(wakes, e.Now())
			if len(wakes) == 2 {
				e.Halt()
				return
			}
			ok = false
			e.After(c.gap, func() { w.Await(3*Millisecond, ready, e.Now) })
		})
		e.After(0, func() { w.Await(2*Millisecond, ready, first) })
		e.Go("kicker", func(p *Proc) {
			p.Sleep(Millisecond)
			ok = true
			w.Kick()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := []Time{2 * Time(Millisecond), c.second}
		if fmt.Sprint(wakes) != fmt.Sprint(want) {
			t.Errorf("gap %v: woke at %v, want %v", c.gap, wakes, want)
		}
	}
}

// TestUnarmedAwaitDeadlocks: a run left with only waiters that have
// nothing armed is a deadlock unless something called Halt.
func TestUnarmedAwaitDeadlocks(t *testing.T) {
	for _, halt := range []bool{false, true} {
		e := New()
		e.Go("waiter", func(p *Proc) {
			p.Call(func(done func()) {
				e.NewWait(done).Await(Millisecond, func() bool { return false }, func() Time { return Never })
			})
			t.Error("an unarmed wait returned")
		})
		if halt {
			e.Go("halter", func(p *Proc) { p.Sleep(Second); e.Halt() })
		}
		want := ErrDeadlock
		if halt {
			want = nil
		}
		if err := e.Run(); err != want {
			t.Errorf("halt=%v: Run: %v, want %v", halt, err, want)
		}
	}
}

// TestAwaitRejectsNonPositivePeriod: a zero period would put every check
// at one instant, so Await refuses it, and a negative one, outright.
func TestAwaitRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []Duration{0, -Millisecond} {
		e := New()
		e.Go("waiter", func(p *Proc) { e.NewWait(func() {}).Await(period, func() bool { return false }, e.Now) })
		var got any
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
		pe, ok := got.(*PanicError)
		if !ok || !strings.Contains(fmt.Sprint(pe.Value), "non-positive period") {
			t.Errorf("period %v: Run panicked with %v, want a non-positive period panic", period, got)
		}
	}
}

// TestAwaitRejectsWaitingWait: a wait has one armed check and one
// continuation, so beginning it again before its continuation has run
// panics.
func TestAwaitRejectsWaitingWait(t *testing.T) {
	e := New()
	w := e.NewWait(func() {})
	w.Await(Millisecond, func() bool { return false }, e.Now)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "already waiting") {
			t.Errorf("a second Await panicked with %v, want an already-waiting panic", r)
		}
	}()
	w.Await(Millisecond, func() bool { return false }, e.Now)
}
