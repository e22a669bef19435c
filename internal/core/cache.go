package core

import (
	"math"
	"sort"

	"repro/internal/extent"
	"repro/internal/sim"
)

// entry is one admission into the SSD cache: a disk extent written (or
// staged) to the SSD log in one piece. Later overwrites trim or split
// its mapping; it stays cached while any of its sectors is still mapped.
type entry struct {
	id      uint64 // Seg of its extents in the table
	lbn     int64  // admitted disk range [lbn, lbn+sectors)
	sectors int64
	live    int64 // sectors of the range still mapped to it
	dirty   bool
	class   Class
	ret     float64 // recorded return value at admission
	// spanAt/spanN record the allocator span the entry owns: its data
	// at spanAt, plus any persisted table record.
	spanAt, spanN int64
	// LRU links (nil-terminated, per class).
	prev, next *entry
}

// lruList is an intrusive doubly-linked LRU list; head is least recently
// used, tail most recently used.
type lruList struct {
	head, tail *entry
	count      int
}

func (l *lruList) pushMRU(e *entry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	}
	l.tail = e
	if l.head == nil {
		l.head = e
	}
	l.count++
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.count--
}

func (l *lruList) touch(e *entry) {
	l.remove(e)
	l.pushMRU(e)
}

// span is a contiguous SSD sector range.
type span struct {
	at, n int64
}

// logAlloc manages the SSD cache region like a log-based file: space is
// handed out by appending at the head, so consecutive cache writes are
// physically sequential on the SSD; freed extents are recycled first-fit
// once the head reaches capacity.
type logAlloc struct {
	capSectors int64
	head       int64
	free       []span // sorted by position, coalesced
	used       int64
	// sequential false scatters allocations (ablation A4): positions
	// are drawn from rng anywhere in the region.
	sequential bool
	rng        *sim.RNG
}

func newLogAlloc(capSectors int64, sequential bool, rng *sim.RNG) *logAlloc {
	return &logAlloc{capSectors: capSectors, sequential: sequential, rng: rng}
}

// alloc reserves n sectors, returning the position, or false if no
// contiguous run of n sectors is available.
func (a *logAlloc) alloc(n int64) (int64, bool) {
	if n <= 0 || a.used+n > a.capSectors {
		return 0, false
	}
	if !a.sequential {
		// Scattered placement: timing model only (overlap harmless).
		a.used += n
		return a.rng.Range(0, a.capSectors), true
	}
	if a.head+n <= a.capSectors {
		at := a.head
		a.head += n
		a.used += n
		return at, true
	}
	for i, f := range a.free {
		if f.n >= n {
			at := f.at
			if f.n == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{at: f.at + n, n: f.n - n}
			}
			a.used += n
			return at, true
		}
	}
	return 0, false
}

// release returns a span to the allocator, coalescing with neighbours.
func (a *logAlloc) release(at, n int64) {
	if n <= 0 {
		return
	}
	a.used -= n
	if !a.sequential {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].at >= at })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{at: at, n: n}
	// Coalesce with the next span, then the previous one.
	if i+1 < len(a.free) && a.free[i].at+a.free[i].n == a.free[i+1].at {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].at+a.free[i-1].n == a.free[i].at {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Used returns allocated sectors.
func (a *logAlloc) Used() int64 { return a.used }

// table is the iBridge mapping table: one extent.List from disk sectors
// to SSD sectors (Off and N in sectors, Seg the owning entry's id, Pos
// its SSD sector), the entries it names, their per-class LRU lists, and
// the running totals partition and dirty pressure read. The list's dead
// callback keeps the totals current and lets an entry go with its last
// mapped sector, so an insert supersedes whatever it overlaps and a trim
// or split needs no case analysis here.
type table struct {
	list    extent.List
	entries map[uint64]*entry
	lastID  uint64
	lru     [2]lruList
	usage   [2]int64 // mapped sectors per class
	// Running sums of recorded return values over cached entries, for
	// the dynamic partition (averages per class).
	retSum [2]float64
	retCnt [2]int64
	// dirtySectors is the sum of mapped sectors over dirty entries.
	dirtySectors int64
	// dirtyFrom is a lower bound on the disk sector of every dirty
	// extent: the place firstDirty resumes from. A dirty insert lowers
	// it; firstDirty raises it to what it found.
	dirtyFrom int64
	// alloc takes back an entry's span when the entry goes.
	alloc  *logAlloc
	onDead extent.Dead     // t.unmapped, bound once
	pieces []extent.Extent // evict's buffer
}

func newTable(alloc *logAlloc) *table {
	t := &table{entries: make(map[uint64]*entry), alloc: alloc}
	t.onDead = t.unmapped
	return t
}

// insert maps e's whole range to its span, superseding whatever the
// table mapped there, and links e as its class's most recently used.
func (t *table) insert(e *entry) {
	t.lastID++
	e.id, e.live = t.lastID, e.sectors
	t.list.Insert(extent.Extent{Off: e.lbn, N: e.sectors, Seg: e.id, Pos: e.spanAt}, t.onDead)
	t.entries[e.id] = e
	t.lru[e.class].pushMRU(e)
	t.usage[e.class] += e.sectors
	t.retSum[e.class] += e.ret
	t.retCnt[e.class]++
	if e.dirty {
		t.dirtySectors += e.sectors
		t.dirtyFrom = min(t.dirtyFrom, e.lbn)
	}
}

// unmapped is the list's dead callback: n sectors of entry id are no
// longer mapped. The entry leaves the table with its last sector.
func (t *table) unmapped(id uint64, n int64) {
	e := t.entries[id]
	e.live -= n
	t.usage[e.class] -= n
	if e.dirty {
		t.dirtySectors -= n
	}
	if e.live > 0 {
		return
	}
	delete(t.entries, id)
	t.lru[e.class].remove(e)
	t.retSum[e.class] -= e.ret
	t.retCnt[e.class]--
	t.alloc.release(e.spanAt, e.spanN)
}

// punch unmaps [lbn, lbn+sectors).
func (t *table) punch(lbn, sectors int64) { t.list.Punch(lbn, sectors, t.onDead) }

// livePieces appends to buf the extents still mapped to e, in disk
// order.
func (t *table) livePieces(e *entry, buf []extent.Extent) []extent.Extent {
	return t.list.PointingAt(e.lbn, e.sectors, e.id, e.spanAt, buf)
}

// evict unmaps what is left of e and reports whether anything was.
func (t *table) evict(e *entry) bool {
	if e.live == 0 {
		return false
	}
	t.pieces = t.livePieces(e, t.pieces[:0])
	for _, x := range t.pieces {
		t.list.Punch(x.Off, x.N, t.onDead)
	}
	return true
}

// markClean clears e's dirty flag; its live sectors leave the dirty
// total.
func (t *table) markClean(e *entry) {
	if e.dirty {
		e.dirty = false
		t.dirtySectors -= e.live
	}
}

// firstDirty returns the entry owning the dirty extent with the lowest
// disk sector, or nil. It resumes from dirtyFrom, so a writeback pass
// walks the table once however many victims it takes.
func (t *table) firstDirty() *entry {
	l := t.list
	i := sort.Search(len(l), func(i int) bool { return l[i].Off >= t.dirtyFrom })
	for ; i < len(l); i++ {
		if e := t.entries[l[i].Seg]; e.dirty {
			t.dirtyFrom = l[i].Off
			return e
		}
	}
	t.dirtyFrom = math.MaxInt64
	return nil
}

// covered reports whether [lbn, lbn+sectors) is fully mapped, and if so
// returns the extents to read from the SSD, in disk order, appended to
// segs.
func (t *table) covered(lbn, sectors int64, segs []extent.Extent) ([]extent.Extent, bool) {
	next := lbn
	t.list.Each(lbn, sectors, func(x extent.Extent, _ int64) {
		if x.Off == next { // past a gap, next stays short of the end
			segs = append(segs, x)
			next += x.N
		}
	})
	if next != lbn+sectors {
		return segs[:0], false
	}
	return segs, true
}

// dirtyOverlaps appends to segs the extents of dirty entries
// intersecting [lbn, lbn+sectors) (a partially cached read must still
// fetch dirty pieces from the SSD for correctness).
func (t *table) dirtyOverlaps(lbn, sectors int64, segs []extent.Extent) []extent.Extent {
	t.list.Each(lbn, sectors, func(x extent.Extent, _ int64) {
		if t.entries[x.Seg].dirty {
			segs = append(segs, x)
		}
	})
	return segs
}
