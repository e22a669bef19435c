// Negative atomicmix cases: the typed wrappers and their methods, a
// local function that shares a sync/atomic name, and a documented
// waiver.
package atomfix

import "sync/atomic"

type stats struct {
	n     atomic.Int64
	ready atomic.Bool
	last  atomic.Pointer[string]
	any   atomic.Value
}

// Wrapper methods are the sanctioned access path: no plain field to mix
// on.
func (s *stats) bump() int64 {
	s.ready.Store(true)
	s.any.Store(1)
	if s.n.CompareAndSwap(0, 1) {
		return 1
	}
	return s.n.Add(1) + s.n.Load()
}

// A method value of a wrapper is not a package-level function.
func (s *stats) loader() func() *string { return s.last.Load }

// AddInt64 is this package's own function, not sync/atomic's.
func AddInt64(p *int64, d int64) int64 { *p += d; return *p }

func local() int64 {
	var n int64
	return AddInt64(&n, 1)
}

// A documented waiver silences a deliberate use.
func waived(p *uint32) uint32 {
	//lint:allow atomicmix fixture: the waiver mechanism applies to this analyzer too
	return atomic.AddUint32(p, 1)
}
