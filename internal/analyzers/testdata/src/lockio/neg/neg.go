// Fixture: the disciplined patterns — snapshot under the lock, I/O
// outside it; in-memory work under the lock; goroutines with their own
// scope; and a documented serial-by-design waiver. Must be clean.
package neg

import (
	"bytes"
	"net"
	"os"
	"sync"
)

type srv struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	buf   bytes.Buffer
}

// SnapshotThenClose is the fixed Close pattern: collect under the
// lock, release, then do the blocking work.
func (s *srv) SnapshotThenClose() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//lint:allow detmaprange severing connections; close order is immaterial
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// MemoryOnly keeps only in-memory mutation inside the critical
// section: bytes.Buffer writes never touch the kernel.
func (s *srv) MemoryOnly(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
}

// Spawned I/O runs on its own goroutine with its own (lock-free)
// scope; the lock held at spawn time is not held where the I/O runs.
func (s *srv) Spawned(c net.Conn, p []byte) {
	s.mu.Lock()
	go func() {
		c.Read(p)
	}()
	s.mu.Unlock()
}

// SpawnedClose closes on a goroutine of its own, which does not hold
// the spawner's lock.
func (s *srv) SpawnedClose(c net.Conn) {
	s.mu.Lock()
	go c.Close()
	s.mu.Unlock()
}

// EarlyReturn locks only in a branch that returns: the deferred unlock
// ends that path, so the write after the branch is never under s.mu.
func (s *srv) EarlyReturn(c net.Conn, p []byte, buffered bool) {
	if buffered {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.buf.Write(p)
		return
	}
	c.Write(p)
}

// SerialByDesign documents an intentional hold, v1-wire style.
func (s *srv) SerialByDesign(c net.Conn, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockio strictly serial exchange; the mutex is the wire serialization
	_, err := c.Write(p)
	return err
}

// ReleasedBefore reads only after the lock is dropped.
func (s *srv) ReleasedBefore(c net.Conn, p []byte) {
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n > 0 {
		c.Read(p)
	}
}

// bufferLocked runs with s.mu held by its caller (the naming
// convention) and stays in memory.
func (s *srv) bufferLocked(p []byte) {
	s.buf.Write(p)
}

// dropLocked releases the lock it was entered with around the
// blocking call and re-takes it before returning.
func (s *srv) dropLocked(c net.Conn) {
	s.mu.Unlock()
	c.Close()
	s.mu.Lock()
}

// waivedLocked documents a deliberate hold inside a *Locked helper.
func (s *srv) waivedLocked(c net.Conn, p []byte) {
	//lint:allow lockio the append is the critical section
	c.Write(p)
}

type lockless struct {
	c net.Conn
}

// sendLocked's receiver has no mutex for a caller to hold: the suffix
// alone proves nothing.
func (l *lockless) sendLocked(p []byte) {
	l.c.Write(p)
}

// writeLocked is a plain function: no receiver, no receiver's mutex.
func writeLocked(c net.Conn, p []byte) {
	c.Write(p)
}

// PathOnly uses os functions that never touch the file system.
func (s *srv) PathOnly() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Getenv("HOME") + string(os.PathSeparator)
}
