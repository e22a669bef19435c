// Package storetest is the shared conformance suite for object-store
// implementations (pfsnet.MemStore, logstore.LogStore). It pins the
// semantic contract the data server relies on — sparse zero-fill reads,
// rejected negative offsets and overflowing writes, concurrent readers —
// so every store misbehaves in no way the others don't.
//
// The suite takes a structural interface rather than
// pfsnet.ObjectStore: pfsnet's own tests import this package, and an
// import back into pfsnet would cycle. Any type with the three methods
// conforms, which is the point.
package storetest

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

// Store is the structural contract under test — identical to
// pfsnet.ObjectStore, restated here to keep this package import-free.
type Store interface {
	WriteAt(file uint64, off int64, data []byte) error
	ReadAt(file uint64, off int64, p []byte) error
	Close() error
}

// Factory builds a fresh, empty store for one subtest. The suite
// closes each store it opens; cleanup of backing state belongs to the
// factory (t.TempDir does it for file-backed stores).
type Factory func(t *testing.T) Store

// Run executes the full conformance suite against stores built by
// factory.
func Run(t *testing.T, factory Factory) {
	t.Run("EmptyObject", func(t *testing.T) { testEmptyObject(t, factory) })
	t.Run("WriteReadRoundtrip", func(t *testing.T) { testRoundtrip(t, factory) })
	t.Run("SparseReads", func(t *testing.T) { testSparse(t, factory) })
	t.Run("ZeroFillPastEOF", func(t *testing.T) { testZeroFill(t, factory) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, factory) })
	t.Run("NegativeOffsets", func(t *testing.T) { testNegativeOffsets(t, factory) })
	t.Run("OverflowingWrite", func(t *testing.T) { testOverflowingWrite(t, factory) })
	t.Run("FarOffset", func(t *testing.T) { testFarOffset(t, factory) })
	t.Run("ObjectIsolation", func(t *testing.T) { testIsolation(t, factory) })
	t.Run("ConcurrentReaders", func(t *testing.T) { testConcurrentReaders(t, factory) })
	t.Run("ConcurrentMixed", func(t *testing.T) { testConcurrentMixed(t, factory) })
}

// pattern returns n deterministic bytes that differ across seeds.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func mustWrite(t *testing.T, s Store, file uint64, off int64, data []byte) {
	t.Helper()
	if err := s.WriteAt(file, off, data); err != nil {
		t.Fatalf("WriteAt(%d, %d, %d bytes): %v", file, off, len(data), err)
	}
}

func mustRead(t *testing.T, s Store, file uint64, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if err := s.ReadAt(file, off, p); err != nil {
		t.Fatalf("ReadAt(%d, %d, %d bytes): %v", file, off, n, err)
	}
	return p
}

func testEmptyObject(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	// Reading an object that never existed is legal and all zeros.
	if got := mustRead(t, s, 42, 0, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("read of unwritten object not zero-filled")
	}
}

func testRoundtrip(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	want := pattern(1000, 1)
	mustWrite(t, s, 1, 0, want)
	if got := mustRead(t, s, 1, 0, len(want)); !bytes.Equal(got, want) {
		t.Fatal("roundtrip bytes diverge")
	}
	// Interior read.
	if got := mustRead(t, s, 1, 100, 50); !bytes.Equal(got, want[100:150]) {
		t.Fatal("interior read diverges")
	}
}

func testSparse(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	data := pattern(10, 2)
	mustWrite(t, s, 1, 1000, data)
	// The hole reads as zeros.
	if got := mustRead(t, s, 1, 0, 1000); !bytes.Equal(got, make([]byte, 1000)) {
		t.Fatal("sparse hole not zero-filled")
	}
	// A read straddling hole and data sees both.
	got := mustRead(t, s, 1, 990, 20)
	if !bytes.Equal(got[:10], make([]byte, 10)) || !bytes.Equal(got[10:], data) {
		t.Fatal("straddling read diverges")
	}
}

func testZeroFill(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	data := pattern(100, 3)
	mustWrite(t, s, 1, 0, data)
	// Read twice the object length into a dirty buffer: the tail must
	// come back zeroed, not stale.
	p := bytes.Repeat([]byte{0xAA}, 200)
	if err := s.ReadAt(1, 0, p); err != nil {
		t.Fatalf("ReadAt past EOF: %v", err)
	}
	if !bytes.Equal(p[:100], data) {
		t.Fatal("prefix diverges")
	}
	if !bytes.Equal(p[100:], make([]byte, 100)) {
		t.Fatal("read past EOF left stale bytes")
	}
	// Entirely past EOF.
	if got := mustRead(t, s, 1, 1<<20, 32); !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("read far past EOF not zero-filled")
	}
}

func testOverwrite(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	mustWrite(t, s, 1, 0, pattern(300, 4))
	over := pattern(100, 5)
	mustWrite(t, s, 1, 100, over)
	got := mustRead(t, s, 1, 0, 300)
	want := pattern(300, 4)
	copy(want[100:], over)
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite diverges")
	}
}

func testNegativeOffsets(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	if err := s.WriteAt(1, -1, []byte{1}); err == nil {
		t.Fatal("WriteAt(-1) accepted")
	}
	if err := s.ReadAt(1, -1, make([]byte, 1)); err == nil {
		t.Fatal("ReadAt(-1) accepted")
	}
}

// testOverflowingWrite writes a range whose end lies past the largest
// int64 offset: the store must refuse it, keep no state from it, and go
// on serving.
func testOverflowingWrite(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	if err := s.WriteAt(1, math.MaxInt64-1, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("WriteAt with an overflowing end accepted")
	}
	if got := mustRead(t, s, 1, math.MaxInt64-1, 1); got[0] != 0 {
		t.Fatalf("rejected write left byte %#x at its offset", got[0])
	}
	want := pattern(64, 8)
	mustWrite(t, s, 1, 0, want)
	if got := mustRead(t, s, 1, 0, len(want)); !bytes.Equal(got, want) {
		t.Fatal("store diverges after a rejected overflowing write")
	}
}

// testFarOffset writes a few bytes at an offset no memory or disk could
// hold densely: the store must take them at the cost of the bytes
// written, read them back, and read the hole below them as zeros.
func testFarOffset(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	const off = int64(1) << 62
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	mustWrite(t, s, 1, off, want)
	if got := mustRead(t, s, 1, off, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("read at 1<<62 = %x, want %x", got, want)
	}
	got := mustRead(t, s, 1, off-8, 8+len(want))
	if !bytes.Equal(got[:8], make([]byte, 8)) || !bytes.Equal(got[8:], want) {
		t.Fatalf("read across the hole below 1<<62 = %x, want 8 zero bytes then %x", got, want)
	}
}

func testIsolation(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	a, b := pattern(128, 6), pattern(128, 7)
	mustWrite(t, s, 1, 0, a)
	mustWrite(t, s, 2, 0, b)
	if got := mustRead(t, s, 1, 0, 128); !bytes.Equal(got, a) {
		t.Fatal("object 1 polluted by object 2")
	}
	if got := mustRead(t, s, 2, 0, 128); !bytes.Equal(got, b) {
		t.Fatal("object 2 polluted by object 1")
	}
}

func testConcurrentReaders(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	const objects = 4
	for i := range uint64(objects) {
		mustWrite(t, s, i, 0, pattern(4096, byte(i)))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			file := uint64(g % objects)
			want := pattern(4096, byte(file))
			p := make([]byte, 512)
			for i := range 50 {
				off := int64((i * 64) % 3584)
				if err := s.ReadAt(file, off, p); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(p, want[off:off+512]) {
					errc <- fmt.Errorf("object %d: concurrent read diverged at %d", file, off)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// testConcurrentMixed runs writers and readers together. Each object
// has one writer cycling through four known patterns, so every byte a
// reader observes must come from one of them — a byte from nowhere is
// corruption. (Whole-buffer atomicity is deliberately NOT asserted:
// the contract lets a store serve a read that overlaps a write in
// progress.)
func testConcurrentMixed(t *testing.T, factory Factory) {
	s := factory(t)
	defer s.Close()
	const objects = 3
	var wg sync.WaitGroup
	errc := make(chan error, objects*2)
	for f := range uint64(objects) {
		mustWrite(t, s, f, 0, pattern(1024, byte(f)))
		wg.Add(2)
		go func() { // writer: rewrites the whole object with rotating seeds
			defer wg.Done()
			for i := range 30 {
				if err := s.WriteAt(f, 0, pattern(1024, byte(f)+byte(i%4))); err != nil {
					errc <- err
					return
				}
			}
		}()
		go func() { // reader: every byte must belong to some pattern
			defer wg.Done()
			p := make([]byte, 1024)
			for range 60 {
				if err := s.ReadAt(f, 0, p); err != nil {
					errc <- err
					return
				}
				for i, got := range p {
					ok := false
					for v := range byte(4) {
						if got == byte(i)*31+byte(f)+v {
							ok = true
							break
						}
					}
					if !ok {
						errc <- fmt.Errorf("object %d: byte %d = %#x matches no written pattern", f, i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
