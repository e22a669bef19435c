// Positive atomicmix cases: every package-level sync/atomic function is
// reported, because each one hands a plain field or variable to atomic
// code that the rest of the package may still touch directly.
package atomfix

import (
	"sync/atomic"
	"unsafe"
)

type counters struct {
	n     int64
	other int64
}

type server struct {
	counters
	plain int64
}

// bump makes counters.n atomically accessed through a promoted field...
func (s *server) bump() {
	atomic.AddInt64(&s.n, 1) // want `atomic\.AddInt64 operates on a plain variable`
}

// ...so a promoted plain read of the same field races with it,
func (s *server) read() int64 {
	return s.n
}

// as does the explicit spelling,
func (s *server) readExplicit() int64 {
	return s.counters.n
}

// and a plain write. The ban reports the atomic call that makes these
// mixes possible; with an atomic.Int64 field none of them compiles.
func (s *server) reset() {
	s.n = 0
}

var pkgCount int64

func bumpPkg() {
	atomic.StoreInt64(&pkgCount, 1) // want `atomic\.StoreInt64`
}

func readPkg() int64 {
	return pkgCount
}

// Loads, swaps and compare-and-swaps are banned alike.
func (s *server) others(p *unsafe.Pointer) bool {
	_ = atomic.LoadInt64(&s.other)                    // want `atomic\.LoadInt64`
	_ = atomic.SwapPointer(p, nil)                    // want `atomic\.SwapPointer`
	return atomic.CompareAndSwapInt64(&s.plain, 0, 1) // want `atomic\.CompareAndSwapInt64`
}

// A function value escapes the call-site view: still reported.
var add = atomic.AddUint32 // want `atomic\.AddUint32`
