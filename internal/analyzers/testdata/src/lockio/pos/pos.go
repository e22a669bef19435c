// Fixture: blocking I/O performed under a mutex acquired in the same
// function — the contention pattern lockio exists to catch.
package pos

import (
	"io"
	"net"
	"os"
	"sync"

	"repro/internal/pfsnet"
)

type srv struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ReadUnderLock performs socket I/O between Lock and Unlock.
func (s *srv) ReadUnderLock(c net.Conn, buf []byte) {
	s.mu.Lock()
	c.Read(buf) // want `c\.Read while s\.mu`
	s.mu.Unlock()
}

// DeferHold shows that a deferred unlock keeps the lock held for the
// whole function.
func (s *srv) DeferHold(c net.Conn, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := c.Write(buf) // want `c\.Write while s\.mu`
	return err
}

// CloseUnderLock severs connections while still inside the critical
// section (the pre-fix Close pattern of the pfsnet servers).
func (s *srv) CloseUnderLock() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close() // want `c\.Close while s\.mu`
	}
	s.mu.Unlock()
}

type embedded struct {
	sync.Mutex
}

// EmbeddedLock locks through an embedded mutex; the receiver itself is
// the lock key.
func (e *embedded) EmbeddedLock(w io.Writer, p []byte) {
	e.Lock()
	w.Write(p) // want `w\.Write while e `
	e.Unlock()
}

// StoreUnderLock holds a lock across ObjectStore I/O (the logMu
// lesson).
func StoreUnderLock(mu *sync.Mutex, st pfsnet.ObjectStore, data []byte) error {
	mu.Lock()
	defer mu.Unlock()
	return st.WriteAt(1, 0, data) // want `st\.WriteAt while mu`
}

// FileUnderLock holds a RWMutex write lock across file-system I/O.
func FileUnderLock(mu *sync.RWMutex, f *os.File, p []byte) error {
	mu.Lock()
	defer mu.Unlock()
	_, err := f.ReadAt(p, 0) // want `f\.ReadAt while mu`
	return err
}

// SyncUnderLock fsyncs and renames inside the critical section: the
// checkpoint-install pattern logstore moved off its lock.
func SyncUnderLock(mu *sync.Mutex, f *os.File) error {
	mu.Lock()
	defer mu.Unlock()
	if err := f.Sync(); err != nil { // want `f\.Sync while mu`
		return err
	}
	return os.Rename("a.tmp", "a") // want `os\.Rename while mu`
}

type store struct {
	mu sync.RWMutex
	f  *os.File
}

// appendLocked follows the naming convention — its caller holds s.mu —
// so the write inside it is under the lock although no Lock call is in
// sight.
func (s *store) appendLocked(p []byte) error {
	_, err := s.f.WriteAt(p, 0) // want `s\.f\.WriteAt while s\.mu \(held on entry`
	return err
}

// swapLocked re-acquires after a release: I/O between Unlock and Lock
// is clean, I/O after the Lock is not.
func (s *store) swapLocked(p []byte) {
	s.mu.Unlock()
	s.f.Write(p)
	s.mu.Lock()
	s.f.Close() // want `s\.f\.Close while s\.mu \(locked at line`
}

// pruneLocked unlinks through the os package under the lock.
func (s *store) pruneLocked(path string) error {
	return os.Remove(path) // want `os\.Remove while s\.mu \(held on entry`
}

// writeLocked: an embedded mutex makes the receiver itself the key.
func (e *embedded) writeLocked(w io.Writer, p []byte) {
	w.Write(p) // want `w\.Write while e \(held on entry`
}

type twoLocks struct {
	logMu  sync.Mutex
	connMu sync.Mutex
	st     pfsnet.ObjectStore
}

// flushLocked's receiver has two mutexes; the caller holds one of
// them, and the finding names the candidates once.
func (t *twoLocks) flushLocked(data []byte) error {
	return t.st.WriteAt(1, 0, data) // want `t\.st\.WriteAt while t\.connMu or t\.logMu \(held on entry`
}

// BranchHold locks in a branch that falls through: its deferred unlock
// runs at function end, so the write below is under the lock whenever
// the branch was taken.
func (s *srv) BranchHold(f *os.File, lock bool) {
	if lock {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	f.Write(nil) // want `f\.Write while s\.mu`
}
