package pfsnet

import (
	"fmt"
	"math"
	"sync"
)

// ObjectStore is the data server's backing store for per-file objects.
// The default is in-memory; logstore.LogStore persists objects in a
// crash-consistent log (DESIGN §14). The shared semantic contract —
// sparse zero-fill reads, negative offsets rejected, concurrent readers
// — is pinned by the internal/storetest conformance suite, which every
// implementation must pass.
type ObjectStore interface {
	// WriteAt writes data at off in the object for file, growing it as
	// needed. Negative offsets, and ranges whose end overflows int64,
	// are an error.
	WriteAt(file uint64, off int64, data []byte) error
	// ReadAt fills p from the object at off; missing ranges read as
	// zeros (sparse semantics). Negative offsets are an error.
	ReadAt(file uint64, off int64, p []byte) error
	// Size returns the current object length for file.
	Size(file uint64) (int64, error)
	// Close releases resources.
	Close() error
}

// MemStore is the default in-memory object store. Reads take the lock
// shared, so server connections reading different (or the same) objects
// concurrently do not serialize.
type MemStore struct {
	mu      sync.RWMutex
	objects map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[uint64][]byte)}
}

// WriteAt implements ObjectStore.
func (s *MemStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	if int64(len(data)) > math.MaxInt64-off {
		return fmt.Errorf("pfsnet: write [%d,+%d) overflows int64", off, len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[file]
	if end := off + int64(len(data)); int64(len(o)) < end {
		if end <= int64(cap(o)) {
			o = o[:end]
		} else {
			// Grow geometrically: objects extend one sub-request at a
			// time, and reallocating the whole object per write would
			// make appending N bytes cost O(N²) copying.
			newCap := max(end, 2*int64(cap(o)))
			grown := make([]byte, end, newCap)
			copy(grown, o)
			o = grown
		}
	}
	copy(o[off:], data)
	s.objects[file] = o
	return nil
}

// ReadAt implements ObjectStore.
func (s *MemStore) ReadAt(file uint64, off int64, p []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	clear(p)
	if o := s.objects[file]; off < int64(len(o)) {
		copy(p, o[off:])
	}
	return nil
}

// Size implements ObjectStore.
func (s *MemStore) Size(file uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.objects[file])), nil
}

// Close implements ObjectStore.
func (s *MemStore) Close() error { return nil }
