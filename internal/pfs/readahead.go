package pfs

import "repro/internal/device"

// ReadaheadStore wraps a Store with kernel-style sequential readahead:
// when the reads against a server-local file object advance monotonically
// (allowing small holes), each read is extended to an aligned window, so
// the disk sees large sequential requests even when the application's
// pieces are small or hole-y. Detection is per file object, matching the
// server reality the model stands in for: PVFS2's Trove reads each
// bstream through one shared descriptor, so the kernel's readahead sees
// the *interleaved* stream of all clients — which for striped sequential
// workloads is near-sequential even though each individual rank hops
// between servers. This is the OS layer whose behaviour the paper's
// Figure 5 reflects (128/256-sector dispatches with iBridge): once the
// fragments are served elsewhere, readahead rounds the remaining piece
// stream back into full windows.
//
// Readahead is a read-side mechanism; writes pass through unchanged.
type ReadaheadStore struct {
	inner Store
	// Window is the readahead window in bytes (128 KB, the Linux
	// default for the paper's era).
	Window int64
	// MaxStreams bounds the per-origin stream-tracking table.
	MaxStreams int

	streams map[int]*raStream
	order   []int
	stats   ReadaheadStats
	// free holds completed reads, for the next read to reuse.
	free []*raRead
}

// ReadaheadStats counts the wrapper's behaviour.
type ReadaheadStats struct {
	Reads          int64
	Extended       int64 // reads grown to a window
	ExtraBytes     int64 // bytes read beyond what was asked
	SequentialHits int64 // reads detected as stream continuations
	CacheHits      int64 // reads fully covered by prior readahead
}

type raStream struct {
	nextLBN        int64 // expected next read position
	streak         int   // consecutive sequential detections
	covFrom, covTo int64 // region already read ahead ("page cache")
}

// raRead is one read the wrapper has started in its inner store: what
// the stream learns when it completes, and, for a read extended to a
// window, the extended request, which the inner store holds until then.
// Reads are recycled through the wrapper's free list, so a warm read
// allocates nothing.
type raRead struct {
	s        *ReadaheadStore
	st       *raStream
	extended IORequest
	// covFrom and covTo are the window an extended read covers (both 0
	// for a plain read); next is the stream's next expected position.
	covFrom, covTo, next int64
	done                 func()
	// finished is finish bound once: the inner store's continuation.
	finished func()
}

// finish records a completed read in its stream, returns the read to
// the free list and runs the caller's continuation.
func (rd *raRead) finish() {
	st, done := rd.st, rd.done
	if rd.covTo > 0 {
		st.covFrom, st.covTo = rd.covFrom, rd.covTo
	}
	st.nextLBN = rd.next
	rd.st, rd.done, rd.extended.Siblings = nil, nil, nil
	rd.s.free = append(rd.s.free, rd)
	done()
}

// read starts r, or its extension to [covFrom, covTo) when covTo > 0,
// in the inner store.
func (s *ReadaheadStore) read(st *raStream, r *IORequest, covFrom, covTo int64, done func()) {
	var rd *raRead
	if n := len(s.free); n > 0 {
		rd, s.free = s.free[n-1], s.free[:n-1]
	} else {
		rd = &raRead{s: s}
		rd.finished = rd.finish
	}
	rd.st, rd.covFrom, rd.covTo, rd.next, rd.done = st, covFrom, covTo, r.LBN+r.Sectors, done
	if covTo == 0 {
		s.inner.Start(r, rd.finished)
		return
	}
	rd.extended = *r
	rd.extended.LBN = covFrom
	rd.extended.Sectors = covTo - covFrom
	rd.extended.Bytes = rd.extended.Sectors * device.SectorSize
	s.stats.Extended++
	s.stats.ExtraBytes += (rd.extended.Sectors - r.Sectors) * device.SectorSize
	s.inner.Start(&rd.extended, rd.finished)
}

// NewReadaheadStore wraps inner with a 128 KB readahead window.
func NewReadaheadStore(inner Store) *ReadaheadStore {
	return &ReadaheadStore{
		inner:      inner,
		Window:     128 * 1024,
		MaxStreams: 256,
		streams:    make(map[int]*raStream),
	}
}

// Stats returns the wrapper's counters.
func (s *ReadaheadStore) Stats() *ReadaheadStats { return &s.stats }

// Start implements Store. A read fully covered by an earlier window
// completes inline.
func (s *ReadaheadStore) Start(r *IORequest, done func()) {
	if r.Op != device.Read {
		s.inner.Start(r, done)
		return
	}
	s.stats.Reads++
	st := s.stream(r.FileID)
	winSectors := s.Window / device.SectorSize
	// Fully covered by a prior readahead: a page-cache hit, no device
	// I/O at all — the whole point of reading ahead.
	if r.LBN >= st.covFrom && r.LBN+r.Sectors <= st.covTo {
		s.stats.CacheHits++
		s.stats.SequentialHits++
		st.streak++
		if end := r.LBN + r.Sectors; end > st.nextLBN {
			st.nextLBN = end
		}
		done()
		return
	}
	// Sequential-ish: the read starts at or slightly past the expected
	// position (holes up to half a window are read through, the same
	// forgiveness Linux's readahead heuristic applies).
	seq := st.nextLBN != 0 && r.LBN >= st.nextLBN && r.LBN-st.nextLBN <= winSectors/2
	if seq {
		st.streak++
		s.stats.SequentialHits++
	} else {
		st.streak = 0
	}
	if seq && st.streak >= 2 {
		// Extend to a window-aligned read covering the request plus
		// one lookahead window.
		s.read(st, r, st.nextLBN, (r.LBN+r.Sectors+winSectors)/winSectors*winSectors, done)
		return
	}
	s.read(st, r, 0, 0, done)
}

// Flush implements Store.
func (s *ReadaheadStore) Flush(done func()) { s.inner.Flush(done) }

// stream returns (creating if needed) the tracking state for a file
// object, evicting the oldest stream at the table cap.
func (s *ReadaheadStore) stream(file int) *raStream {
	if st, ok := s.streams[file]; ok {
		return st
	}
	if len(s.streams) >= s.MaxStreams && len(s.order) > 0 {
		delete(s.streams, s.order[0])
		s.order = s.order[1:]
	}
	st := &raStream{}
	s.streams[file] = st
	s.order = append(s.order, file)
	return st
}

var _ Store = (*ReadaheadStore)(nil)
