package logstore

import (
	"slices"
	"sort"
)

// extent maps one live logical byte range of an object to the log
// bytes holding its current contents.
type extent struct {
	off int64  // logical object offset
	n   int64  // length in bytes
	seg uint64 // segment holding the data
	pos int64  // absolute offset of the first data byte in seg
	gen uint64 // generation of the record that wrote it
}

// object is the in-memory index of one stored object: its logical size
// (monotone, sparse-write semantics) and the sorted, non-overlapping
// extent list over the log.
type object struct {
	size int64
	ext  []extent
}

// insert splices e into the extent list, trimming or splitting any
// older extents it overlaps, and reports each run of previously live
// bytes the new extent superseded to dead, keyed by the segment holding
// them (they become that segment's garbage).
func (o *object) insert(e extent, dead func(seg uint64, n int64)) {
	if end := e.off + e.n; end > o.size {
		o.size = end
	}
	// First extent whose end lies past e's start.
	i := sort.Search(len(o.ext), func(i int) bool { return o.ext[i].off+o.ext[i].n > e.off })
	j := i
	var left, right extent
	var hasLeft, hasRight bool
	for ; j < len(o.ext) && o.ext[j].off < e.off+e.n; j++ {
		old := o.ext[j]
		if old.off < e.off {
			// Only the first overlapped extent can stick out on the left.
			left = old
			left.n = e.off - old.off
			hasLeft = true
		}
		if old.off+old.n > e.off+e.n {
			// Only the last overlapped extent can stick out on the right.
			cut := e.off + e.n - old.off
			right = old
			right.off += cut
			right.pos += cut
			right.n -= cut
			hasRight = true
		}
		lo := max(old.off, e.off)
		hi := min(old.off+old.n, e.off+e.n)
		dead(old.seg, hi-lo)
	}
	repl := make([]extent, 0, 3)
	if hasLeft {
		repl = append(repl, left)
	}
	repl = append(repl, e)
	if hasRight {
		repl = append(repl, right)
	}
	o.ext = slices.Replace(o.ext, i, j, repl...)
}

// each calls fn for every live extent intersecting [off, off+n),
// trimmed to the intersection, in ascending logical order. dst is the
// byte offset of the trimmed extent relative to off.
func (o *object) each(off, n int64, fn func(e extent, dst int64)) {
	i := sort.Search(len(o.ext), func(i int) bool { return o.ext[i].off+o.ext[i].n > off })
	for ; i < len(o.ext) && o.ext[i].off < off+n; i++ {
		e := o.ext[i]
		lo := max(e.off, off)
		hi := min(e.off+e.n, off+n)
		fn(extent{off: lo, n: hi - lo, seg: e.seg, pos: e.pos + (lo - e.off), gen: e.gen}, lo-off)
	}
}
