// Package extent is the repository's one extent map: a sorted,
// non-overlapping list that maps logical ranges of one object to the log
// positions holding their current contents, in a unit the caller picks.
// The crash-consistent object store (internal/logstore) indexes its
// on-disk segments with it and the live data server (internal/pfsnet)
// its in-memory fragment chunks, both in bytes; the simulator's SSD
// cache (internal/core) keeps its mapping table in it, in sectors, with
// Seg naming the admission that owns an extent. All three get the same
// trim/split rules and the same accounting through the dead callback.
package extent

import (
	"slices"
	"sort"
)

// Extent maps one live logical range of an object to the log positions
// holding its current contents. Off, N and Pos share the caller's unit.
type Extent struct {
	Off int64  // logical object offset
	N   int64  // length
	Seg uint64 // log unit (segment, chunk or cache entry) holding the data
	Pos int64  // log position of the first data unit (inside Seg for the stores)
	Gen uint64 // generation of the record that wrote it (0 where unused)
}

// List is the extent index of one object: extents in ascending Off
// order, none empty, no two overlapping.
type List []Extent

// Dead receives each run of previously live bytes a mutation superseded,
// keyed by the log unit holding them (they become that unit's garbage).
type Dead func(seg uint64, n int64)

// Insert splices e into the list, trimming or splitting any older
// extents it overlaps, and reports each superseded run to dead. An
// empty extent maps nothing and is ignored.
func (l *List) Insert(e Extent, dead Dead) {
	if e.N > 0 {
		l.splice(e.Off, e.N, &e, dead)
	}
}

// Punch unmaps [off, off+n): extents inside the range are dropped,
// extents straddling an edge are trimmed or split, and every unmapped
// run is reported to dead.
func (l *List) Punch(off, n int64, dead Dead) {
	if n > 0 {
		l.splice(off, n, nil, dead)
	}
}

// splice replaces whatever the list maps in [off, off+n) with e (or
// with nothing when e is nil).
func (l *List) splice(off, n int64, e *Extent, dead Dead) {
	ext, end := *l, off+n
	// First extent whose end lies past the range's start.
	i := sort.Search(len(ext), func(i int) bool { return ext[i].Off+ext[i].N > off })
	j := i
	var repl [3]Extent
	k := 0
	var right Extent
	hasRight := false
	for ; j < len(ext) && ext[j].Off < end; j++ {
		old := ext[j]
		if old.Off < off {
			// Only the first overlapped extent can stick out on the left.
			repl[k] = old
			repl[k].N = off - old.Off
			k++
		}
		if old.Off+old.N > end {
			// Only the last overlapped extent can stick out on the right.
			cut := end - old.Off
			right = old
			right.Off += cut
			right.Pos += cut
			right.N -= cut
			hasRight = true
		}
		dead(old.Seg, min(old.Off+old.N, end)-max(old.Off, off))
	}
	if e != nil {
		repl[k] = *e
		k++
	}
	if hasRight {
		repl[k] = right
		k++
	}
	if i == j && k == 0 {
		return // a punch that hit nothing
	}
	*l = slices.Replace(ext, i, j, repl[:k]...)
}

// Each calls fn for every extent intersecting [off, off+n), trimmed to
// the intersection, in ascending logical order. dst is the byte offset
// of the trimmed extent relative to off. fn must not mutate the list.
func (l List) Each(off, n int64, fn func(e Extent, dst int64)) {
	if n <= 0 {
		return
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Off+l[i].N > off })
	for ; i < len(l) && l[i].Off < off+n; i++ {
		e := l[i]
		lo := max(e.Off, off)
		hi := min(e.Off+e.N, off+n)
		fn(Extent{Off: lo, N: hi - lo, Seg: e.Seg, Pos: e.Pos + (lo - e.Off), Gen: e.Gen}, lo-off)
	}
}

// PointingAt appends to buf the parts of [off, off+n) that the list
// still maps to the log bytes a scan once found there — unit seg,
// starting at pos — and returns it. Write-back and cleaning both pick
// extents under a lock, move their bytes without it, and then act only
// on what nothing superseded meanwhile; the result is collected (not
// called back) because acting on it rewrites the list.
func (l List) PointingAt(off, n int64, seg uint64, pos int64, buf []Extent) []Extent {
	l.Each(off, n, func(e Extent, dst int64) {
		if e.Seg == seg && e.Pos == pos+dst {
			buf = append(buf, e)
		}
	})
	return buf
}
