package sim

// This file provides the synchronization primitives used by simulated
// processes. Because the engine runs exactly one process at a time, the
// primitives need no host-level locking; they only park and wake simulated
// processes deterministically (FIFO order).

// Barrier synchronizes a fixed group of n processes, as the MPI_Barrier of
// the simulated MPI ranks. It is reusable across generations.
type Barrier struct {
	e       *Engine
	n       int
	arrived int
	waiters []*Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(e *Engine, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{e: e, n: n}
}

// Wait blocks p until n processes have called Wait, then releases all of
// them and resets for the next generation.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		for _, w := range b.waiters {
			b.e.Wake(w)
		}
		b.waiters = nil
		return
	}
	b.waiters = append(b.waiters, p)
	p.Block()
}

// Counter is a completion counter analogous to sync.WaitGroup for
// simulated processes.
type Counter struct {
	e       *Engine
	n       int
	waiters []*Proc
}

// NewCounter returns a counter with initial count n.
func NewCounter(e *Engine, n int) *Counter {
	return &Counter{e: e, n: n}
}

// Add increments the count by k (k may be negative).
func (c *Counter) Add(k int) {
	c.n += k
	if c.n < 0 {
		panic("sim: negative counter")
	}
	if c.n == 0 {
		c.release()
	}
}

// Done decrements the count by one.
func (c *Counter) Done() { c.Add(-1) }

// Count returns the current count.
func (c *Counter) Count() int { return c.n }

// Wait blocks p until the count reaches zero.
func (c *Counter) Wait(p *Proc) {
	if c.n == 0 {
		return
	}
	c.waiters = append(c.waiters, p)
	p.Block()
}

func (c *Counter) release() {
	for _, w := range c.waiters {
		c.e.Wake(w)
	}
	c.waiters = nil
}
