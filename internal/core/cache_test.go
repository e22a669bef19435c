package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/extent"
	"repro/internal/sim"
)

func TestLogAllocSequentialAppend(t *testing.T) {
	a := newLogAlloc(1000, true, sim.NewRNG(1))
	at1, ok1 := a.alloc(100)
	at2, ok2 := a.alloc(50)
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	if at1 != 0 || at2 != 100 {
		t.Fatalf("allocations at %d,%d; want 0,100 (log append)", at1, at2)
	}
	if a.Used() != 150 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestLogAllocCapacity(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	if _, ok := a.alloc(101); ok {
		t.Fatal("over-capacity allocation succeeded")
	}
	if _, ok := a.alloc(100); !ok {
		t.Fatal("exact-capacity allocation failed")
	}
	if _, ok := a.alloc(1); ok {
		t.Fatal("allocation from a full log succeeded")
	}
}

func TestLogAllocRecycleAfterRelease(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	at1, _ := a.alloc(60)
	a.alloc(40)
	a.release(at1, 60)
	at3, ok := a.alloc(50)
	if !ok {
		t.Fatal("recycled allocation failed")
	}
	if at3 != at1 {
		t.Fatalf("recycled at %d, want %d (first fit)", at3, at1)
	}
}

func TestLogAllocCoalescing(t *testing.T) {
	a := newLogAlloc(100, true, sim.NewRNG(1))
	a.alloc(100)
	// Release three adjacent pieces out of order; they must coalesce so
	// a large allocation fits.
	a.release(30, 10)
	a.release(50, 10)
	a.release(40, 10)
	if at, ok := a.alloc(30); !ok || at != 30 {
		t.Fatalf("coalesced alloc = (%d,%v), want (30,true)", at, ok)
	}
}

func TestLogAllocScatteredMode(t *testing.T) {
	a := newLogAlloc(1_000_000, false, sim.NewRNG(7))
	positions := map[int64]bool{}
	for i := 0; i < 50; i++ {
		at, ok := a.alloc(10)
		if !ok {
			t.Fatal("alloc failed")
		}
		positions[at] = true
	}
	if len(positions) < 45 {
		t.Fatalf("scattered mode produced only %d distinct positions", len(positions))
	}
	if a.Used() != 500 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestLRUOrder(t *testing.T) {
	var l lruList
	a := &entry{lbn: 1}
	b := &entry{lbn: 2}
	c := &entry{lbn: 3}
	l.pushMRU(a)
	l.pushMRU(b)
	l.pushMRU(c)
	if l.head != a || l.tail != c || l.count != 3 {
		t.Fatal("initial order wrong")
	}
	l.touch(a) // a becomes MRU
	if l.head != b || l.tail != a {
		t.Fatal("touch did not move to MRU")
	}
	l.remove(b)
	if l.head != c || l.count != 2 {
		t.Fatal("remove head failed")
	}
	l.remove(a)
	l.remove(c)
	if l.head != nil || l.tail != nil || l.count != 0 {
		t.Fatal("list not empty after removing all")
	}
}

// mkTable builds a table of clean entries, the i-th at SSD sector
// i*10000.
// testTable returns an empty table over a roomy allocator.
func testTable() *table { return newTable(newLogAlloc(1<<20, true, sim.NewRNG(1))) }

func mkTable(exts ...[2]int64) *table {
	t := testTable()
	for i, x := range exts {
		t.insert(&entry{lbn: x[0], sectors: x[1], spanAt: int64(i * 10000)})
	}
	return t
}

func TestCoveredExact(t *testing.T) {
	m := mkTable([2]int64{100, 50})
	segs, ok := m.covered(100, 50, nil)
	if !ok || len(segs) != 1 || segs[0].Pos != 0 || segs[0].N != 50 {
		t.Fatalf("covered = %v, %v", segs, ok)
	}
}

func TestCoveredSubRange(t *testing.T) {
	m := mkTable([2]int64{100, 50})
	segs, ok := m.covered(110, 20, nil)
	if !ok || segs[0].Pos != 10 || segs[0].N != 20 {
		t.Fatalf("sub-range coverage = %v, %v", segs, ok)
	}
}

func TestCoveredAcrossEntries(t *testing.T) {
	m := mkTable([2]int64{100, 50}, [2]int64{150, 50})
	segs, ok := m.covered(120, 60, nil)
	if !ok || len(segs) != 2 {
		t.Fatalf("cross-entry coverage = %v, %v", segs, ok)
	}
	if segs[0].N != 30 || segs[1].N != 30 {
		t.Fatalf("segment lengths = %d,%d", segs[0].N, segs[1].N)
	}
	if segs[1].Pos != 10000 {
		t.Fatalf("second segment at SSD sector %d", segs[1].Pos)
	}
}

func TestNotCoveredWithGap(t *testing.T) {
	m := mkTable([2]int64{100, 50}, [2]int64{160, 50})
	if _, ok := m.covered(120, 60, nil); ok {
		t.Fatal("gap reported as covered")
	}
	if _, ok := m.covered(0, 10, nil); ok {
		t.Fatal("empty region reported as covered")
	}
	if _, ok := m.covered(140, 30, nil); ok {
		t.Fatal("trailing gap reported as covered")
	}
}

func TestPunchWholeEntry(t *testing.T) {
	a := newLogAlloc(1000, true, sim.NewRNG(1))
	m := newTable(a)
	at, _ := a.alloc(50)
	e := &entry{lbn: 100, sectors: 50, spanAt: at, spanN: 50}
	m.insert(e)
	m.punch(100, 50)
	if len(m.list) != 0 || len(m.entries) != 0 || m.lru[e.class].count != 0 {
		t.Fatalf("after whole punch: %d extents, %d entries, lru %d", len(m.list), len(m.entries), m.lru[e.class].count)
	}
	if e.live != 0 || m.usage[e.class] != 0 || a.Used() != 0 {
		t.Fatalf("live %d usage %d allocated %d, want all 0", e.live, m.usage[e.class], a.Used())
	}
}

func TestPunchTail(t *testing.T) {
	m := mkTable([2]int64{100, 50})
	e := m.entries[1]
	m.punch(130, 100)
	if len(m.entries) != 1 || len(m.list) != 1 {
		t.Fatal("tail punch should trim, not remove")
	}
	if x := m.list[0]; x.Off != 100 || x.N != 30 || x.Pos != 0 || x.Seg != e.id {
		t.Fatalf("extent after tail punch = %v", x)
	}
	if e.live != 30 || m.usage[e.class] != 30 {
		t.Fatalf("live %d usage %d, want 30 (20 punched)", e.live, m.usage[e.class])
	}
}

func TestPunchHead(t *testing.T) {
	m := mkTable([2]int64{100, 50})
	m.punch(50, 70)
	if len(m.list) != 1 {
		t.Fatalf("head punch left %d extents", len(m.list))
	}
	if x := m.list[0]; x.Off != 120 || x.N != 30 || x.Pos != 20 {
		t.Fatalf("extent after head punch = lbn=%d n=%d ssd=%d", x.Off, x.N, x.Pos)
	}
	if e := m.entries[1]; e.live != 30 {
		t.Fatalf("live = %d, want 30", e.live)
	}
}

func TestPunchSplit(t *testing.T) {
	m := mkTable([2]int64{100, 50})
	e := m.entries[1]
	m.punch(110, 10)
	if len(m.list) != 2 || len(m.entries) != 1 {
		t.Fatalf("split produced %d extents, %d entries", len(m.list), len(m.entries))
	}
	left, right := m.list[0], m.list[1]
	if left.Off != 100 || left.N != 10 || left.Pos != 0 || left.Seg != e.id {
		t.Fatalf("left = %v", left)
	}
	if right.Off != 120 || right.N != 30 || right.Pos != 20 || right.Seg != e.id {
		t.Fatalf("right = %v", right)
	}
	if e.live != 40 || m.usage[e.class] != 40 {
		t.Fatalf("live %d usage %d, want 40 (10 punched)", e.live, m.usage[e.class])
	}
	// Coverage across the split must now fail.
	if _, ok := m.covered(100, 50, nil); ok {
		t.Fatal("punched range still covered")
	}
	// But the remnants must still be covered.
	if _, ok := m.covered(100, 10, nil); !ok {
		t.Fatal("left remnant lost")
	}
	if _, ok := m.covered(120, 30, nil); !ok {
		t.Fatal("right remnant lost")
	}
}

func TestPunchSpanningMultipleEntries(t *testing.T) {
	m := mkTable([2]int64{100, 50}, [2]int64{150, 50}, [2]int64{200, 50})
	first, middle, last := m.entries[1], m.entries[2], m.entries[3]
	m.punch(130, 90)
	// Middle entry removed entirely; first loses tail, last loses head.
	if _, ok := m.entries[middle.id]; ok || middle.live != 0 || len(m.entries) != 2 {
		t.Fatalf("middle entry still cached: live %d, %d entries", middle.live, len(m.entries))
	}
	if len(m.list) != 2 {
		t.Fatalf("table has %d extents", len(m.list))
	}
	if x := m.list[0]; x.Off != 100 || x.N != 30 || x.Seg != first.id {
		t.Fatalf("first remnant = %v", x)
	}
	if x := m.list[1]; x.Off != 220 || x.N != 30 || x.Pos != 20020 || x.Seg != last.id {
		t.Fatalf("last remnant = %v", x)
	}
	if m.usage[first.class] != 60 {
		t.Fatalf("usage = %d, want 60", m.usage[first.class])
	}
}

// TestTrimAndSplitKeepEntry pins the table's side of an overwrite: a
// trim or a split leaves the entry cached, counted by its live sectors,
// with every remnant still mapped to the SSD sectors it always was; the
// entry leaves the table, the LRU list and the usage with its last
// sector, and only then hands its span back.
func TestTrimAndSplitKeepEntry(t *testing.T) {
	a := newLogAlloc(1000, true, sim.NewRNG(1))
	m := newTable(a)
	at, _ := a.alloc(51) // 50 data sectors and the table record
	e := &entry{lbn: 100, sectors: 50, dirty: true, class: ClassFragment, spanAt: at, spanN: 51}
	m.insert(e)
	check := func(step string, live int64) {
		t.Helper()
		if e.live != live || m.usage[ClassFragment] != live || m.dirtySectors != live {
			t.Fatalf("%s: live %d usage %d dirty %d, want %d", step, e.live, m.usage[ClassFragment], m.dirtySectors, live)
		}
		if m.lru[ClassFragment].count != 1 || len(m.entries) != 1 || a.Used() != 51 {
			t.Fatalf("%s: entry left early: lru %d entries %d allocated %d", step, m.lru[ClassFragment].count, len(m.entries), a.Used())
		}
	}
	m.punch(140, 100) // tail
	check("trim tail", 40)
	m.punch(50, 60) // head
	check("trim head", 30)
	m.punch(120, 5) // middle
	check("split", 25)
	want := []extent.Extent{{Off: 110, N: 10, Seg: e.id, Pos: 10}, {Off: 125, N: 15, Seg: e.id, Pos: 25}}
	if got := m.livePieces(e, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("remnants = %v, want %v", got, want)
	}
	if _, ok := m.covered(110, 30, nil); ok {
		t.Fatal("punched range still covered")
	}
	if _, ok := m.covered(125, 15, nil); !ok {
		t.Fatal("right remnant lost")
	}
	m.punch(110, 10)
	check("drop left remnant", 15)
	m.punch(0, 1000)
	if e.live != 0 || m.usage[ClassFragment] != 0 || m.dirtySectors != 0 || m.lru[ClassFragment].count != 0 ||
		len(m.entries) != 0 || a.Used() != 0 {
		t.Fatalf("last sector gone, entry stayed: live %d usage %d dirty %d lru %d entries %d allocated %d",
			e.live, m.usage[ClassFragment], m.dirtySectors, m.lru[ClassFragment].count, len(m.entries), a.Used())
	}
	// Dropping, cleaning or punching an entry with nothing live is a
	// no-op.
	if m.evict(e) {
		t.Fatal("a gone entry was dropped again")
	}
	m.markClean(e)
	m.punch(0, 1000)
	if m.dirtySectors != 0 || a.Used() != 0 {
		t.Fatalf("a gone entry moved the totals: dirty %d allocated %d", m.dirtySectors, a.Used())
	}
}

func TestDirtyOverlaps(t *testing.T) {
	m := testTable()
	m.insert(&entry{lbn: 100, sectors: 50, dirty: true})
	m.insert(&entry{lbn: 200, sectors: 50, dirty: false})
	segs := m.dirtyOverlaps(120, 150, nil)
	if len(segs) != 1 || segs[0].N != 30 {
		t.Fatalf("dirtyOverlaps = %v", segs)
	}
}

// TestCoverageMatchesReference property-checks covered() against a naive
// per-sector reference model.
func TestCoverageMatchesReference(t *testing.T) {
	type op struct {
		Lbn, Sectors uint8
	}
	if err := quick.Check(func(inserts []op, qLbn, qSectors uint8) bool {
		m := testTable()
		ref := map[int64]bool{}
		for _, o := range inserts {
			lbn, n := int64(o.Lbn), int64(o.Sectors%32)+1
			m.insert(&entry{lbn: lbn, sectors: n})
			for s := lbn; s < lbn+n; s++ {
				ref[s] = true
			}
		}
		qn := int64(qSectors%32) + 1
		_, got := m.covered(int64(qLbn), qn, nil)
		want := true
		for s := int64(qLbn); s < int64(qLbn)+qn; s++ {
			if !ref[s] {
				want = false
				break
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
