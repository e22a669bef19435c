package sim

import (
	"fmt"
	"strings"
	"testing"
)

// A waitImpl is one implementation of the armed wait: wait parks p until
// ready holds at a check instant of the grid now + k·period, and kick is
// what code that changed ready's inputs calls.
type waitImpl struct {
	wait func(p *Proc, period Duration, ready func() bool, earliest func() Time)
	kick func(e *Engine, p *Proc)
}

// armed is the engine's Await and Kick.
var armed = waitImpl{
	wait: func(p *Proc, period Duration, ready func() bool, earliest func() Time) {
		p.Await(period, ready, earliest)
	},
	kick: func(e *Engine, p *Proc) { e.Kick(p) },
}

// eager is the reference the armed wait must match: when the wait begins
// it schedules, with After, a check at every grid instant up to horizon,
// each of which resumes the process inline at the first one to find
// ready true. Those checks are ordered as the armed wait's rule says —
// after every event scheduled before the wait, before every event
// scheduled after it — and nothing is skipped, so it needs no earliest
// and no kicks.
func eager(horizon Time) waitImpl {
	return waitImpl{
		wait: func(p *Proc, period Duration, ready func() bool, _ func() Time) {
			e, done := p.e, false
			for t := e.now.Add(period); t <= horizon; t = t.Add(period) {
				e.After(t.Sub(e.now), func() {
					if !done && ready() {
						done = true
						p.c.next()
					}
				})
			}
			p.park()
		},
		kick: func(*Engine, *Proc) {},
	}
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

// run plays s, with the eager reference or else the armed wait, and
// returns the log of every wake and production. cov, if not nil, counts
// the armed run's kicks.
func (s awaitScenario) run(t testing.TB, reference bool, cov *awaitCoverage) string {
	var end Duration
	for _, gaps := range append(append([][]Duration{}, s.early...), s.late...) {
		var sum Duration
		for _, g := range gaps {
			sum += g
		}
		end = max(end, sum)
	}
	end += s.window + 4*s.period + s.busy
	impl := armed
	if reference {
		impl = eager(Time(0).Add(end + s.period))
	}

	e := New()
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, e.Now())) }
	work := 0
	var daemons []*Proc
	kickAll := func() {
		for _, d := range daemons {
			if cov != nil {
				if w := &d.c.aw; w.ready != nil {
					switch {
					case w.at == Never:
						cov.unarmed++
					case e.now > w.from && e.now.Sub(w.from)%w.period == 0 && e.cur < w.seq:
						cov.beforeCheck++
					case e.now > w.from && e.now.Sub(w.from)%w.period == 0:
						cov.afterCheck++
					}
				}
			}
			impl.kick(e, d)
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
		daemons = append(daemons, e.Go(name, func(p *Proc) {
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
			for {
				start = p.Now()
				impl.wait(p, s.period, ready, earliest)
				if work == 0 {
					note(name + "-idle")
					continue
				}
				work--
				note(name)
				p.Sleep(s.busy)
			}
		}))
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

// check fails t unless the armed and eager runs of s log the same.
func (s awaitScenario) check(t testing.TB, cov *awaitCoverage) {
	t.Helper()
	want := s.run(t, true, nil)
	if got := s.run(t, false, cov); got != want {
		t.Fatalf("%+v: Await diverged from eager checks:\n eager: %s\n armed: %s", s, want, got)
	}
}

// TestAwaitMatchesEagerChecks: an armed wait resumes its process at the
// same instant, in the same order among that instant's events, as checks
// scheduled at every grid instant when the wait begins. Both predicate
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
		idle := strings.Contains(s.run(t, false, nil), "-idle@")
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

// TestKickLeavesOthersAlone: a Kick to a process that is not parked in
// an Await — running, asleep, blocked, finished, or finished with its
// coroutine reused by an awaiting process — schedules nothing. The
// awaiting process's earliest moves without a kick of its own, so a
// Kick that reached it through the finished one would arm it.
func TestKickLeavesOthersAlone(t *testing.T) {
	e := New()
	from := Never
	done := e.Go("done", func(p *Proc) {})
	sleeper := e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
	blocked := e.Go("blocked", func(p *Proc) { p.Block() })
	e.Go("main", func(p *Proc) {
		p.Yield()
		// done's coroutine went back to the pool: this process gets it.
		reuser := e.Go("reuser", func(p *Proc) {
			p.Await(Millisecond, func() bool { return false }, func() Time { return from })
		})
		p.Yield()
		if done.c != reuser.c {
			t.Fatal("the awaiting process did not reuse the finished one's coroutine")
		}
		from = p.Now().Add(Millisecond)
		before := e.pending()
		for _, q := range []*Proc{done, sleeper, blocked, p} {
			e.Kick(q)
		}
		if got := e.pending(); got != before {
			t.Errorf("kicks of processes not awaiting scheduled %d events", got-before)
		}
		e.Halt()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleCheckIsSkipped: a check superseded by a Kick stays queued, and
// when it comes up after the process has begun another wait it does
// nothing — even though the new wait's predicate holds at that instant,
// the process resumes only on its own grid.
func TestStaleCheckIsSkipped(t *testing.T) {
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
	// Scheduled before either wait begins, so at 10 ms it runs before
	// the stale check.
	e.After(10*Millisecond, func() { ok = true })
	waiter := e.Go("waiter", func(p *Proc) {
		// Armed at 10 ms; the kick at 1 ms re-arms it for 2 ms.
		p.Await(2*Millisecond, ready, first)
		wakes = append(wakes, p.Now())
		ok = false
		p.Sleep(Millisecond) // 3 ms: the new grid is 6, 9, 12 ms
		p.Await(3*Millisecond, ready, e.Now)
		wakes = append(wakes, p.Now())
		e.Halt()
	})
	e.Go("kicker", func(p *Proc) {
		p.Sleep(Millisecond)
		ok = true
		e.Kick(waiter)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2 * Time(Millisecond), 12 * Time(Millisecond)}
	if fmt.Sprint(wakes) != fmt.Sprint(want) {
		t.Errorf("woke at %v, want %v", wakes, want)
	}
}

// TestUnarmedAwaitDeadlocks: a run left with only waiters that have
// nothing armed is a deadlock unless something called Halt.
func TestUnarmedAwaitDeadlocks(t *testing.T) {
	for _, halt := range []bool{false, true} {
		e := New()
		e.Go("waiter", func(p *Proc) {
			p.Await(Millisecond, func() bool { return false }, func() Time { return Never })
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
		e.Go("waiter", func(p *Proc) { p.Await(period, func() bool { return false }, e.Now) })
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
