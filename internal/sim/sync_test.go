package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestBarrierSynchronizes(t *testing.T) {
	e := New()
	const n = 6
	b := NewBarrier(e, n)
	var releaseTimes []Time
	for i := 0; i < n; i++ {
		i := i
		e.Go("rank", func(p *Proc) {
			p.Sleep(Duration(i) * Millisecond)
			b.Wait(p)
			releaseTimes = append(releaseTimes, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(releaseTimes) != n {
		t.Fatalf("%d ranks released, want %d", len(releaseTimes), n)
	}
	for _, rt := range releaseTimes {
		if rt != Time((n-1)*int(Millisecond)) {
			t.Fatalf("release at %v, want %v", rt, Time((n-1)*int(Millisecond)))
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := New()
	const n = 3
	b := NewBarrier(e, n)
	rounds := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		e.Go("rank", func(p *Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(Duration(i+1) * Millisecond)
				b.Wait(p)
				rounds[i]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range rounds {
		if r != 5 {
			t.Fatalf("rank %d completed %d rounds, want 5", i, r)
		}
	}
}

// TestBarrierArriveMatchesWait: continuations arriving at a barrier
// pass it in the event, and the order, in which processes waiting there
// would resume — the last arrival inline, the others from the release in
// arrival order — across generations and with both kinds mixed.
func TestBarrierArriveMatchesWait(t *testing.T) {
	const n, rounds = 5, 4
	// Party i's think time before round r, so that the arrival order
	// changes from round to round.
	think := func(i, r int) Duration { return Duration((i*3+r*2)%n+1) * Millisecond }
	run := func(callback func(i int) bool) string {
		e := New()
		b := NewBarrier(e, n)
		var log []string
		pass := func(i, r int) {
			log = append(log, fmt.Sprintf("%d.%d@%v#%d", i, r, e.Now(), e.Stats().Events))
		}
		for i := 0; i < n; i++ {
			if !callback(i) {
				e.Go("party", func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Sleep(think(i, r))
						b.Wait(p)
						pass(i, r)
					}
				})
				continue
			}
			r := 0
			var arrive, passed func()
			arrive = func() { b.Arrive(passed) }
			passed = func() {
				pass(i, r)
				if r++; r < rounds {
					e.After(think(i, r), arrive)
				}
			}
			e.After(0, func() { e.After(think(i, 0), arrive) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != n*rounds {
			t.Fatalf("%d passes, want %d", len(log), n*rounds)
		}
		return strings.Join(log, " ")
	}
	want := run(func(int) bool { return false })
	for name, callback := range map[string]func(int) bool{
		"all":  func(int) bool { return true },
		"odd":  func(i int) bool { return i%2 == 1 },
		"last": func(i int) bool { return i == n-1 },
	} {
		if got := run(callback); got != want {
			t.Errorf("%s parties on callbacks:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestRingStaysBoundedAndFIFO: a ring that never drains — a server's job
// FIFO with a standing backlog, or the same-instant ring under a run of
// yields —
// keeps FIFO order and reuses its array instead of growing without end.
func TestRingStaysBoundedAndFIFO(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for i := 0; i < 4; i++ {
		r.Push(next)
		next++
	}
	for round := 0; round < 10000; round++ {
		// Push one or two, pop one or two: the backlog wanders between
		// 1 and 8 and never reaches zero.
		for n := round%2 + 1; n > 0 && r.Len() < 8; n-- {
			r.Push(next)
			next++
		}
		for n := (round/3)%2 + 1; n > 0 && r.Len() > 1; n-- {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if c := cap(r.buf); c > 16 {
		t.Fatalf("backing array grew to %d for a backlog of at most 8", c)
	}
}

// TestCallInlineAndDeferred: a process calling an operation that
// completes inline continues without a switch, before anything else
// scheduled for the instant; one whose continuation comes from a later
// event resumes at that event's instant.
func TestCallInlineAndDeferred(t *testing.T) {
	e := New()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, e.Now())) }
	e.Go("caller", func(p *Proc) {
		e.After(0, func() { note("queued") })
		p.Call(func(done func()) { done() })
		note("inline")
		p.Call(func(done func()) { e.After(Millisecond, done) })
		note("deferred")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "inline@0ns queued@0ns deferred@1.000ms"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("order:\n got %s\nwant %s", got, want)
	}
}
