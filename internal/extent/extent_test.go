package extent

import (
	"math/rand"
	"testing"
)

// naive is the reference the list is checked against: one cell per
// logical byte, holding which log byte (unit, position) backs it.
type naive []cell

type cell struct {
	seg uint64 // 0 = unmapped
	pos int64
}

// set overwrites [off, off+n) and returns how many mapped bytes that
// superseded, per unit.
func (m naive) set(off, n int64, seg uint64, pos int64) map[uint64]int64 {
	gone := map[uint64]int64{}
	for i := int64(0); i < n; i++ {
		if old := m[off+i]; old.seg != 0 {
			gone[old.seg]++
		}
		m[off+i] = cell{}
		if seg != 0 {
			m[off+i] = cell{seg, pos + i}
		}
	}
	return gone
}

// check asserts the structural invariants and that the list maps
// exactly the bytes the reference does.
func check(t *testing.T, step int, l List, ref naive) {
	t.Helper()
	var prevEnd int64
	got := make(naive, len(ref))
	for i, e := range l {
		if e.N <= 0 {
			t.Fatalf("step %d: extent %d is empty: %+v", step, i, e)
		}
		if e.Off < prevEnd {
			t.Fatalf("step %d: extent %d at %d overlaps or precedes the previous end %d", step, i, e.Off, prevEnd)
		}
		prevEnd = e.Off + e.N
		for k := int64(0); k < e.N; k++ {
			got[e.Off+k] = cell{e.Seg, e.Pos + k}
		}
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("step %d: byte %d maps to %+v, reference says %+v", step, i, got[i], ref[i])
		}
	}
}

// TestListMatchesNaiveByteArray drives random Insert/Punch/Each against
// the byte-per-offset reference: after every step the list is sorted,
// non-overlapping and maps the same bytes, the dead callback reported
// exactly the bytes superseded (per unit), and Each returns the trimmed
// intersection.
func TestListMatchesNaiveByteArray(t *testing.T) {
	const space = 512
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l List
		ref := make(naive, space)
		var logPos int64
		for step := 0; step < 2000; step++ {
			off := rng.Int63n(space)
			n := rng.Int63n(min(space-off, 48) + 1) // 0 included: must map nothing
			dead := map[uint64]int64{}
			onDead := func(seg uint64, n int64) {
				if n <= 0 {
					t.Fatalf("seed %d step %d: dead(%d, %d)", seed, step, seg, n)
				}
				dead[seg] += n
			}
			var want map[uint64]int64
			switch op := rng.Intn(10); {
			case op < 6:
				seg := uint64(1 + rng.Intn(4))
				l.Insert(Extent{Off: off, N: n, Seg: seg, Pos: logPos, Gen: uint64(step)}, onDead)
				want = ref.set(off, n, seg, logPos)
				logPos += n
			case op < 9:
				l.Punch(off, n, onDead)
				want = ref.set(off, n, 0, 0)
			default:
				next := off
				l.Each(off, n, func(e Extent, dst int64) {
					if e.N <= 0 || e.Off < next || e.Off+e.N > off+n || dst != e.Off-off {
						t.Fatalf("seed %d step %d: Each(%d,%d) yielded %+v dst %d after %d", seed, step, off, n, e, dst, next)
					}
					for k := int64(0); k < e.N; k++ {
						if ref[e.Off+k] != (cell{e.Seg, e.Pos + k}) {
							t.Fatalf("seed %d step %d: Each byte %d = %d:%d, reference %+v", seed, step, e.Off+k, e.Seg, e.Pos+k, ref[e.Off+k])
						}
					}
					// Bytes Each skipped must be unmapped.
					for ; next < e.Off; next++ {
						if ref[next].seg != 0 {
							t.Fatalf("seed %d step %d: Each skipped mapped byte %d", seed, step, next)
						}
					}
					next = e.Off + e.N
				})
				for ; next < off+n; next++ {
					if ref[next].seg != 0 {
						t.Fatalf("seed %d step %d: Each skipped mapped byte %d", seed, step, next)
					}
				}
			}
			for seg, n := range want {
				if dead[seg] != n {
					t.Fatalf("seed %d step %d: dead[%d] = %d, superseded %d", seed, step, seg, dead[seg], n)
				}
			}
			for seg, n := range dead {
				if want[seg] != n {
					t.Fatalf("seed %d step %d: dead[%d] = %d, superseded %d", seed, step, seg, n, want[seg])
				}
			}
			check(t, step, l, ref)
			// PointingAt: an extent as a scan found it is still there in
			// full; the same range asked about other log bytes is not.
			if len(l) > 0 {
				e := l[rng.Intn(len(l))]
				if got := l.PointingAt(e.Off, e.N, e.Seg, e.Pos, nil); len(got) != 1 || got[0] != e {
					t.Fatalf("seed %d step %d: PointingAt(%+v) = %+v", seed, step, e, got)
				}
				if got := l.PointingAt(e.Off, e.N, e.Seg, e.Pos+1, nil); len(got) != 0 {
					t.Fatalf("seed %d step %d: PointingAt(%+v, pos+1) = %+v", seed, step, e, got)
				}
			}
		}
	}
}

// TestSplitKeepsBothSides pins the split case by example: an insert in
// the middle of an extent leaves its head and its tail mapped to the
// bytes they always pointed at.
func TestSplitKeepsBothSides(t *testing.T) {
	var l List
	none := func(uint64, int64) { t.Fatal("dead on an empty range") }
	l.Insert(Extent{Off: 100, N: 100, Seg: 1, Pos: 1000}, none)
	var gone int64
	l.Insert(Extent{Off: 140, N: 20, Seg: 2, Pos: 0}, func(seg uint64, n int64) {
		if seg != 1 {
			t.Fatalf("dead seg %d", seg)
		}
		gone += n
	})
	want := List{
		{Off: 100, N: 40, Seg: 1, Pos: 1000},
		{Off: 140, N: 20, Seg: 2, Pos: 0},
		{Off: 160, N: 40, Seg: 1, Pos: 1060},
	}
	if gone != 20 || len(l) != len(want) {
		t.Fatalf("gone %d, list %+v", gone, l)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("extent %d = %+v, want %+v", i, l[i], want[i])
		}
	}
	l.Punch(0, 1000, func(uint64, int64) {})
	if len(l) != 0 {
		t.Fatalf("punch left %+v", l)
	}
}
