// Positive lockorder cases: a direct two-mutex cycle, an
// interprocedural cycle through a helper, a self-deadlock, and a cycle
// through a deferred unlock in a branch that falls through.
package lockordfix

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var (
	a A
	b B
)

// lockAB acquires A.mu then B.mu.
func lockAB() {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

// lockBA acquires them in the opposite order: a cycle with lockAB.
func lockBA() {
	b.mu.Lock()
	a.mu.Lock() // want "lock-order cycle"
	a.mu.Unlock()
	b.mu.Unlock()
}

var (
	logMu   sync.Mutex
	stateMu sync.Mutex
)

// logThenState holds logMu across a call that acquires stateMu: the
// edge logMu -> stateMu is created at the call site.
func logThenState() {
	logMu.Lock()
	touchState() // want "lock-order cycle"
	logMu.Unlock()
}

func touchState() {
	stateMu.Lock()
	stateMu.Unlock()
}

// stateThenLog closes the interprocedural cycle.
func stateThenLog() {
	stateMu.Lock()
	logMu.Lock() // want "lock-order cycle"
	logMu.Unlock()
	stateMu.Unlock()
}

var selfMu sync.Mutex

// doubleLock re-acquires a held sync.Mutex: guaranteed deadlock.
func doubleLock() {
	selfMu.Lock()
	selfMu.Lock() // want "self-deadlock"
	selfMu.Unlock()
	selfMu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

var (
	c    C
	d    D
	cond bool
)

// branchHold locks C.mu in a branch that falls through: its deferred
// unlock runs at function end, so D.mu is taken while C.mu is held.
func branchHold() {
	if cond {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	d.mu.Lock() // want "lock-order cycle"
	d.mu.Unlock()
}

// lockDC takes them in the opposite order: a cycle with branchHold.
func lockDC() {
	d.mu.Lock()
	c.mu.Lock() // want "lock-order cycle"
	c.mu.Unlock()
	d.mu.Unlock()
}
