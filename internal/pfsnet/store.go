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
	// Close releases resources.
	Close() error
}

// memPageBytes is the size of one MemStore page.
const memPageBytes = 64 << 10

// MemStore is the default in-memory object store. An object is a set of
// fixed-size pages keyed by page index, plus its length, so memory
// follows the bytes written, not the offsets they land at: a write far
// past an object's end allocates only the pages it touches. Reads take
// the lock shared, so server connections reading different (or the
// same) objects concurrently do not serialize.
type MemStore struct {
	mu      sync.RWMutex
	objects map[uint64]*memObject
}

// memObject is one object of a MemStore.
type memObject struct {
	size  int64                         // the furthest byte any write reached
	pages map[int64]*[memPageBytes]byte // page index -> page; absent pages read as zeros
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[uint64]*memObject)}
}

// WriteAt implements ObjectStore.
func (s *MemStore) WriteAt(file uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("pfsnet: negative offset %d", off)
	}
	if int64(len(data)) > math.MaxInt64-off {
		return fmt.Errorf("pfsnet: write [%d,+%d) overflows int64", off, len(data))
	}
	if len(data) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[file]
	if o == nil {
		o = &memObject{pages: make(map[int64]*[memPageBytes]byte)}
		s.objects[file] = o
	}
	o.size = max(o.size, off+int64(len(data)))
	for len(data) > 0 {
		idx, at := off/memPageBytes, off%memPageBytes
		pg := o.pages[idx]
		if pg == nil {
			pg = new([memPageBytes]byte)
			o.pages[idx] = pg
		}
		n := copy(pg[at:], data)
		data = data[n:]
		off += int64(n)
	}
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
	o := s.objects[file]
	if o == nil || off >= o.size {
		return nil
	}
	p = p[:min(int64(len(p)), o.size-off)]
	for len(p) > 0 {
		idx, at := off/memPageBytes, off%memPageBytes
		n := min(int64(len(p)), memPageBytes-at)
		if pg := o.pages[idx]; pg != nil {
			copy(p, pg[at:at+n])
		}
		p = p[n:]
		off += n
	}
	return nil
}

// Close implements ObjectStore.
func (s *MemStore) Close() error { return nil }
