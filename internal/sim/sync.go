package sim

// This file provides the barrier used by callback chains and simulated
// processes. Because the engine runs exactly one process or callback at
// a time, it needs no host-level locking; it only releases its parties
// deterministically (FIFO order).

// Barrier synchronizes a fixed group of n parties, as the MPI_Barrier of
// the simulated MPI ranks. A party is a process (Wait) or a callback
// chain (Arrive); one barrier may mix both. It is reusable across
// generations.
type Barrier struct {
	e       *Engine
	n       int
	arrived int
	// waiters are the parties that arrived before the last one of this
	// generation, in arrival order: each a process or a continuation.
	waiters []event
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(e *Engine, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{e: e, n: n}
}

// Wait blocks p until n parties have arrived, then releases all of
// them and resets for the next generation.
func (b *Barrier) Wait(p *Proc) {
	if b.arrive(p, nil) {
		return
	}
	p.Block()
}

// Arrive is Wait for a callback chain: then runs once n parties have
// arrived. The last arrival runs its then inline, before Arrive
// returns, as the last process to Wait goes on without parking; an
// earlier one's then runs from the release, like a waiting process's
// resume.
func (b *Barrier) Arrive(then func()) {
	if b.arrive(nil, then) {
		then()
	}
}

// arrive counts one arrival (a process p or a continuation fn) and
// reports whether it was the last of its generation. The last arrival
// schedules every waiter at the current instant, in arrival order, and
// goes on itself; an earlier one is queued.
func (b *Barrier) arrive(p *Proc, fn func()) bool {
	b.arrived++
	if b.arrived < b.n {
		b.waiters = append(b.waiters, event{p: p, fn: fn})
		return false
	}
	b.arrived = 0
	for _, w := range b.waiters {
		if w.p != nil {
			b.e.Wake(w.p)
		} else {
			b.e.After(0, w.fn)
		}
	}
	clear(b.waiters)
	b.waiters = b.waiters[:0]
	return true
}
