package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicLeavesRun: a panic inside a simulated process comes out of
// Run on the caller's goroutine — where a deferred recover (the parallel
// runner's, a test's) can attribute it to a data point — labelled with
// the process that raised it, and the other processes are shut down.
func TestProcPanicLeavesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	cause := errors.New("disk on fire")
	e := New()
	e.Go("bystander", func(p *Proc) { p.Block() })
	e.Go("unlucky", func(p *Proc) {
		p.Sleep(Millisecond)
		panic(cause)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *PanicError", got, got)
	}
	if pe.Proc != "unlucky" || pe.Value != cause || !errors.Is(pe, cause) {
		t.Errorf("PanicError{Proc: %q, Value: %v}, want unlucky / %v", pe.Proc, pe.Value, cause)
	}
	if !strings.Contains(pe.Error(), `process "unlucky" panicked: disk on fire`) ||
		!strings.Contains(string(pe.Stack), "TestProcPanicLeavesRun") {
		t.Errorf("message does not name the process and the raising frame:\n%s", pe.Error())
	}
	if e.Procs() != 0 {
		t.Errorf("%d processes survived the panic", e.Procs())
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails the test unless the goroutine count returns to
// base. A finished coroutine's goroutine is torn down by the runtime
// just after the switch back, so the count is polled briefly.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for i := 0; i < 200; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines after Run, %d before: the engine leaked coroutines", n, base)
}

// TestRunLeavesNoGoroutines: however Run ends — Halt, a drained queue, a
// deadlock — every coroutine is gone when it returns, whether its process
// never started, finished, sits in a barrier, Block or a Call, or is
// mid-Sleep or in a Call on a wait (with a check armed or with none).
func TestRunLeavesNoGoroutines(t *testing.T) {
	// populate starts one process in every state a shutdown can find.
	populate := func(e *Engine) {
		bar := NewBarrier(e, 2)
		e.Go("call", func(p *Proc) { p.Call(func(func()) {}) })
		e.Go("barrier", func(p *Proc) { bar.Wait(p) })
		e.Go("blocked", func(p *Proc) { p.Block() })
		e.Go("awaiter-unarmed", func(p *Proc) {
			p.Call(func(done func()) {
				e.NewWait(done).Await(Millisecond, func() bool { return false }, func() Time { return Never })
			})
		})
		e.Go("finished", func(p *Proc) {})
		e.Go("parent", func(p *Proc) {
			p.Sleep(Microsecond) // starts a child after "finished" has finished
			e.Go("child", func(p *Proc) { p.Block() })
		})
	}
	for _, end := range []struct {
		name  string
		setup func(e *Engine)
		want  error
	}{
		{"halt", func(e *Engine) {
			e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
			e.Go("awaiter-armed", func(p *Proc) {
				p.Call(func(done func()) {
					e.NewWait(done).Await(Millisecond, func() bool { return false }, e.Now)
				})
			})
			e.Go("halter", func(p *Proc) {
				p.Sleep(10 * Millisecond)
				for i := 0; i < 2; i++ {
					e.Go("never-started", func(p *Proc) { t.Error("a process created at the halting instant ran") })
				}
				e.Halt()
			})
		}, nil},
		{"deadlock", func(e *Engine) {}, ErrDeadlock},
	} {
		t.Run(end.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			populate(e)
			end.setup(e)
			if err := e.Run(); err != end.want {
				t.Fatalf("Run: %v, want %v", err, end.want)
			}
			if e.Procs() != 0 {
				t.Errorf("%d processes alive after Run", e.Procs())
			}
			waitGoroutines(t, base)
		})
	}
	t.Run("drain", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := New()
		for i := 0; i < 8; i++ {
			e.Go("worker", func(p *Proc) {
				p.Sleep(Millisecond)
				e.Go("short", func(p *Proc) { p.Sleep(0) })
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		waitGoroutines(t, base)
	})
}

// TestGoStartsAtCurrentInstantInCreationOrder: a process created from
// inside a running process or an After callback starts at the instant of
// its creation, after everything already scheduled for that instant and
// in creation order, whether or not other processes have finished.
func TestGoStartsAtCurrentInstantInCreationOrder(t *testing.T) {
	e := New()
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%v", who, e.Now())) }
	spawn := func(name string) {
		e.Go(name, func(p *Proc) { note(name) })
	}
	e.Go("early", func(p *Proc) {}) // finishes at 0
	e.Go("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		e.After(0, func() { note("queued-before") })
		spawn("a")
		spawn("b")
		note("parent")
		p.Sleep(0)
		note("parent-after-yield")
	})
	e.After(2*Millisecond, func() {
		note("callback")
		spawn("c")
		spawn("d")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "parent@1.000ms queued-before@1.000ms a@1.000ms b@1.000ms parent-after-yield@1.000ms " +
		"callback@2.000ms c@2.000ms d@2.000ms"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("order:\n got %s\nwant %s", got, want)
	}
}
