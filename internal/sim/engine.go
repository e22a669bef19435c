package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// ErrDeadlock is returned by Run when the event queue drains while live
// processes remain blocked and the engine was not explicitly halted. A
// caller whose callback chain never finished before the queue drained
// reports it too (cluster.Run does).
var ErrDeadlock = errors.New("sim: deadlock: no pending events but work remains blocked")

// Engine is a deterministic discrete-event simulation engine. It owns the
// virtual clock and orchestrates the simulated processes so that exactly
// one runs at a time. An Engine must be created with New and is not safe
// for use by multiple host goroutines; all access happens either from the
// goroutine calling Run or from the single simulated process that
// goroutine has switched into. Distinct Engines share nothing, so
// independent simulations may run concurrently on separate host
// goroutines (the basis of internal/runner's parallel experiment
// harness).
type Engine struct {
	now    Time
	events eventHeap
	// nowq is the same-instant fast path: events scheduled at exactly the
	// current virtual time. Because seq grows monotonically, every entry
	// in nowq was scheduled after every heap entry with the same
	// timestamp, so draining the heap's now-events first and then nowq in
	// FIFO order preserves the global (at, seq) order without paying a
	// heap sift for the common Wake/Sleep(0)/After(0) case. The ring's
	// backing array is reused across drains — the event freelist.
	nowq    Ring[event]
	seq     uint64
	procs   map[int]*Proc
	nextID  int
	halted  bool
	started bool
	// cur is the seq of the event being run, which tells whether the
	// current instant's armed check has had its turn (see arm).
	cur   uint64
	stats Stats
}

// Stats counts an engine's work. The engine keeps it always, in plain
// fields; a caller reads it once Run has returned.
type Stats struct {
	// Events counts the events run, Resumes the switches into a
	// process (its start and every return from a park), and
	// ProcsStarted the processes Go created.
	Events, Resumes, ProcsStarted int64
	// Pending is the number of events still pending when the last
	// event ran, and MaxPending the most pending when any event ran.
	Pending, MaxPending int
}

// event is stored by value in the heap and ring; scheduling an event
// performs no per-event allocation.
type event struct {
	at  Time
	seq uint64
	p   *Proc  // process to resume, or
	fn  func() // callback to run inline (must not block)
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq), stored by
// value: no interface boxing, no per-event heap allocation, and a 4-ary
// layout that halves the sift-down depth versus a binary heap for the
// deep timer populations the cluster builds (one pending timer per
// device/daemon).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The caller must ensure the
// heap is non-empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the fn/p references
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		min := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Ring is a FIFO backed by a reusable slice: the read index walks the
// array and rewinds to zero whenever the ring drains, and a push that
// finds the array full moves the unread tail to the front before it
// would grow, so steady-state operation performs no allocation at all.
// It carries the engine's same-instant events, a data server's queued
// jobs and a block queue's completed submitters. The zero Ring is empty.
type Ring[T any] struct {
	buf  []T
	head int
}

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.head > 0 && len(r.buf) == cap(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf, r.head = r.buf[:n], 0
	}
	r.buf = append(r.buf, v)
}

// Len returns the number of queued values.
func (r *Ring[T]) Len() int { return len(r.buf) - r.head }

// Pop removes and returns the oldest value. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references
	r.head++
	if r.head == len(r.buf) {
		// Drained: rewind onto the same backing array.
		r.buf = r.buf[:0]
		r.head = 0
	}
	return v
}

// Proc is a simulated process. Each Proc runs on a coroutine (iter.Pull)
// that the engine switches into one at a time; while a Proc is running
// it may freely read and mutate engine-owned state (devices, queues, ...)
// without locking. A switch is a direct runtime handoff between the
// engine's goroutine and the process's — no scheduler pass — and the
// engine's goroutine is suspended for exactly as long as the process
// runs, so there is never more than one thread of control per Engine.
type Proc struct {
	e    *Engine
	id   int
	name string
	dead bool
	// next switches into the coroutine until it parks; stop unwinds a
	// parked one, or finishes one that never started without running
	// anything. yield is the coroutine's side of the switch: it parks,
	// and reports false when the engine is shutting it down.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// killed is the panic sentinel used to unwind a parked process when the
// engine shuts down.
type killed struct{}

// PanicError is the value Run panics with when a simulated process
// panicked: the original panic value, labelled with the process that
// raised it and the stack it was raised on.
type PanicError struct {
	Proc  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// Unwrap exposes a panic value that was itself an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[int]*Proc)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Halt requests that Run return after the current event completes.
// Typically called by a workload's completion callback; any remaining
// processes are then terminated by Run.
func (e *Engine) Halt() { e.halted = true }

// Stats returns the engine's work counts so far.
func (e *Engine) Stats() Stats { return e.stats }

// Procs returns the number of live simulated processes.
func (e *Engine) Procs() int { return len(e.procs) }

// pending returns the number of schedulable events.
func (e *Engine) pending() int { return len(e.events) + e.nowq.Len() }

// Go creates a new simulated process named name and schedules it to start
// at the current virtual time. It may be called before Run, from within
// a running process, or from an After callback.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, id: e.nextID, name: name}
	e.nextID++
	e.procs[p.id] = p
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	e.stats.ProcsStarted++
	e.schedule(e.now, p, nil)
	return p
}

// run executes the process body fn on p's coroutine. It swallows the
// killed sentinel of an engine-initiated shutdown; any other panic
// leaves through next (or stop) on the goroutine that called Run,
// labelled with the process.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		p.retire()
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(&PanicError{Proc: p.name, Value: r, Stack: debug.Stack()})
			}
		}
	}()
	fn(p)
}

// retire removes p from the live set.
func (p *Proc) retire() {
	p.dead = true
	delete(p.e.procs, p.id)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// schedule enqueues an event. Exactly one of p and fn must be non-nil.
// Same-instant events take the ring fast path; future events go through
// the heap.
func (e *Engine) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", at, e.now))
	}
	e.seq++
	ev := event{at: at, seq: e.seq, p: p, fn: fn}
	if at == e.now {
		e.nowq.Push(ev)
		return
	}
	e.events.push(ev)
}

// After runs fn at the current time plus d. fn runs inline in the engine
// loop and must not block in virtual time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), nil, fn)
}

// park switches back to the engine until the process is resumed. A false
// yield means the engine is shutting down: unwind the process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Sleep suspends the process for duration d of virtual time. Negative
// durations sleep zero time: Sleep(0) lets the events already scheduled
// for the current instant run before p continues.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now.Add(d), p, nil)
	p.park()
}

// Block parks the process with no scheduled wake-up. Another process (or
// an engine callback) must call Engine.Wake to resume it. Block is the
// foundation for the synchronization primitives in this package.
func (p *Proc) Block() { p.park() }

// Call runs a callback-style operation from p: start begins it, handing
// it the continuation to run when it completes, and p blocks until that
// continuation has run. An operation that completes inline (start runs
// the continuation before it returns) costs p no switch. Call is how a
// process drives the simulated storage stack, which runs on callbacks
// (iosched.Queue.Start, pfs.Store.Start).
func (p *Proc) Call(start func(done func())) {
	waiting, finished := false, false
	start(func() {
		finished = true
		if waiting {
			p.e.Wake(p)
		}
	})
	if !finished {
		waiting = true
		p.Block()
	}
}

// Wake schedules proc to resume at the current virtual time. Waking a
// process that is not blocked via Block results in undefined behaviour;
// the primitives in this package guarantee one wake per block.
func (e *Engine) Wake(p *Proc) {
	if p.dead {
		return
	}
	e.schedule(e.now, p, nil)
}

// next removes and returns the globally next event in (at, seq) order.
// Heap events at the current instant always precede ring events (they
// were scheduled before the clock reached now, hence carry smaller seqs);
// ring events precede any strictly later heap event.
func (e *Engine) next() event {
	if len(e.events) > 0 && (e.nowq.Len() == 0 || e.events[0].at == e.now) {
		return e.events.pop()
	}
	return e.nowq.Pop()
}

// Run processes events until the engine is halted or the event queue
// drains. On return all remaining live processes have been terminated.
// It returns ErrDeadlock if the queue drained with processes still blocked
// and no explicit Halt, and nil otherwise. A panic in a simulated process
// terminates the others and leaves Run as a *PanicError.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	defer e.killAll()
	for !e.halted && e.pending() > 0 {
		ev := e.next()
		e.now, e.cur = ev.at, ev.seq
		e.stats.Events++
		e.stats.Pending = e.pending()
		e.stats.MaxPending = max(e.stats.MaxPending, e.stats.Pending)
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.p.dead {
			continue
		}
		e.stats.Resumes++
		ev.p.next()
	}
	if !e.halted && len(e.procs) > 0 {
		return ErrDeadlock
	}
	return nil
}

// killAll terminates every remaining live process by unwinding its
// coroutine, so that repeated simulations do not leak goroutines.
// Processes are killed in ascending id (creation) order so that any
// shutdown-order-sensitive accounting — post-halt device stats, unwind
// side effects — is reproducible run to run. A process that never
// started has no body to unwind, so the engine retires it itself.
func (e *Engine) killAll() {
	for len(e.procs) > 0 {
		ids := make([]int, 0, len(e.procs))
		for id := range e.procs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			victim, ok := e.procs[id]
			if !ok {
				// Already unwound by a side effect of a prior kill.
				continue
			}
			victim.stop()
			victim.retire()
		}
	}
}
