package logstore

import (
	"os"
	"sort"
	"time"

	"repro/internal/extent"
)

const (
	// cleanBatchBytes bounds the live bytes the cleaner re-appends per
	// hold of mu (one extent at least): the longest a foreground call
	// waits behind the cleaner is one such batch, not a cycle.
	cleanBatchBytes = 256 << 10
	// cleanCycleSegments bounds the victims one background cycle takes,
	// so the space a cycle holds back stays a few segments. A cycle stops
	// once the garbage ratio is back under its bound, which in steady
	// state is after one victim: each cycle's fsync and checkpoint then
	// serve a single segment. It bounds the free list of retired files
	// awaiting reuse the same way.
	cleanCycleSegments = 8
)

// sortedKeys returns m's keys ascending, so map iterations that feed
// file I/O or on-disk bytes are deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// maintainer is the background maintenance goroutine. It owns no state:
// WriteAt signals it (non-blocking) when a checkpoint or a cleaning
// cycle falls due and Close shuts it down via quit.
func (s *LogStore) maintainer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.kickC:
			// A failed cycle leaves the log as it was and stays due: the
			// next write signals again.
			_ = s.maintain(true)
		}
	}
}

// ckptDueLocked reports whether a periodic checkpoint is due (mu held).
func (s *LogStore) ckptDueLocked() bool {
	return s.cfg.CheckpointBytes > 0 && s.sinceCkpt >= s.cfg.CheckpointBytes && s.deadLocked() == nil
}

// needCleanLocked reports whether the sealed segments' dead-byte ratio
// warrants a cleaning cycle (mu held). The active segment stays out of
// the ratio: its garbage cannot be reclaimed until it seals.
func (s *LogStore) needCleanLocked() bool {
	if s.deadLocked() != nil || s.dataBytes < s.cfg.CompactMinBytes {
		return false
	}
	data := s.dataBytes - s.active.data
	dead := data - (s.liveBytes - s.active.live)
	return float64(dead) > s.cfg.GarbageRatio*float64(data)
}

// maintain runs the maintenance that is due, holding the maintenance
// token: cleaning cycles while the garbage ratio is over its bound
// (clean set; each installs a checkpoint), else the periodic
// checkpoint.
func (s *LogStore) maintain(clean bool) error {
	s.maint <- struct{}{}
	defer func() { <-s.maint }()
	for {
		select {
		case <-s.quit:
			return nil
		default:
		}
		s.mu.RLock()
		cleanDue, ckptDue := clean && s.needCleanLocked(), s.ckptDueLocked()
		s.mu.RUnlock()
		if cleanDue {
			n, err := s.cleanCycle(false)
			if err != nil {
				return err
			}
			if n > 0 {
				continue
			}
		}
		if ckptDue {
			return s.checkpoint(nil)
		}
		return nil
	}
}

// Compact runs the cleaner to completion regardless of the garbage
// ratio: the active segment is sealed if it holds garbage, and every
// sealed segment that does has its live bytes re-appended and is
// retired, in one cycle. No-op on a crashed or closed store; a
// simulated kill that fires on one of its copies returns ErrCrashed.
func (s *LogStore) Compact() error {
	s.maint <- struct{}{}
	defer func() { <-s.maint }()
	s.mu.RLock()
	skip := s.deadLocked() != nil
	seal := !skip && s.active.data > s.active.live
	s.mu.RUnlock()
	if skip {
		return nil
	}
	if seal {
		if err := s.prepareSpare(); err != nil {
			return err
		}
		s.mu.Lock()
		if s.spare != nil && s.deadLocked() == nil {
			s.rollLocked()
		}
		s.mu.Unlock()
	}
	_, err := s.cleanCycle(true)
	return err
}

// cleanCycle is one pass of the cleaner: pick victims, copy their live
// bytes forward, fsync the segments that took the copies, install a
// checkpoint that no longer lists the victims, and only then retire
// them. It returns the number of segments retired. Each step leaves a
// log whose surviving segments replay to the current state (DESIGN
// §14), so the cycle may die between any two of them. The caller holds
// the maintenance token.
func (s *LogStore) cleanCycle(force bool) (int, error) {
	start := time.Now()
	victims, first := s.pickVictims(force)
	if len(victims) == 0 {
		return 0, nil
	}
	work := s.liveExtents(victims)
	var copied int64
	for _, v := range victims {
		n, err := s.evacuate(v, work[v.seq])
		if err != nil {
			return 0, err
		}
		copied += n
	}
	if copied > 0 {
		if err := s.syncLog(first); err != nil {
			return 0, err
		}
	}
	if err := s.checkpoint(victims); err != nil {
		return 0, err
	}
	s.retire(victims)
	s.mu.Lock()
	s.st.compactionRuns.Inc()
	s.st.cleanedSegments += int64(len(victims))
	s.mu.Unlock()
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span(tr.NewID(), tr.NewID(), 0, "logstore.compact", s.cfg.Scope, start, time.Since(start))
	}
	return len(victims), nil
}

// pickVictims chooses the sealed segments this cycle cleans: those
// holding garbage, fewest live bytes first (cheapest to copy; zero
// live costs nothing). A forced cycle takes them all; a background one
// takes them until the garbage ratio would be back under its bound.
// first is the active segment's sequence: the cycle's copies land in
// it or in a later one.
func (s *LogStore) pickVictims(force bool) (victims []*segment, first uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.deadLocked() != nil {
		return nil, 0
	}
	first = s.active.seq
	var cands []*segment
	for _, seq := range sortedKeys(s.segs) {
		if seg := s.segs[seq]; seg != s.active && seg.data > seg.live {
			cands = append(cands, seg)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].live < cands[j].live })
	if force {
		return cands, first
	}
	data := s.dataBytes - s.active.data
	dead := data - (s.liveBytes - s.active.live)
	for _, c := range cands {
		if len(victims) == cleanCycleSegments || float64(dead) <= s.cfg.GarbageRatio*float64(data) {
			break
		}
		victims = append(victims, c)
		dead -= c.data - c.live
		data -= c.data - c.live
	}
	return victims, first
}

// liveExtent is one extent of the mapping table that points into a
// victim, as of the scan that found it.
type liveExtent struct {
	file uint64
	e    extent.Extent
}

// liveExtents scans the mapping table once for the extents that point
// into the victims, keyed by segment, in (object, offset) order.
func (s *LogStore) liveExtents(victims []*segment) map[uint64][]liveExtent {
	work := make(map[uint64][]liveExtent, len(victims))
	for _, v := range victims {
		work[v.seq] = nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, id := range sortedKeys(s.objects) {
		for _, e := range s.objects[id].ext {
			if _, ok := work[e.Seg]; ok {
				work[e.Seg] = append(work[e.Seg], liveExtent{id, e})
			}
		}
	}
	return work
}

// evacuate re-appends every byte of work — the extents that pointed
// into v when the cycle scanned the table — that the table still maps
// to v, and returns how many that was. v is sealed, so its bytes are
// read outside mu; each batch is then appended under mu through the
// ordinary append path, which re-validates that the range still points
// at v (a user write may have superseded it since the scan; nothing can
// newly point into a sealed segment). Its batch buffer is the store's
// cleanBuf, which the maintenance token's holder owns.
func (s *LogStore) evacuate(v *segment, work []liveExtent) (copied int64, err error) {
	buf := s.cleanBuf
	defer func() { s.cleanBuf = buf }()
	for len(work) > 0 {
		n, size := 0, int64(0)
		for n < len(work) && (n == 0 || size+work[n].e.N <= cleanBatchBytes) {
			size += work[n].e.N
			n++
		}
		batch := work[:n]
		work = work[n:]
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		at := int64(0)
		for _, w := range batch {
			if _, err := v.f.ReadAt(buf[at:at+w.e.N], w.e.Pos); err != nil {
				return copied, err
			}
			at += w.e.N
		}
		for {
			s.mu.Lock()
			n, needSeg, err := s.copyLocked(v, batch, buf)
			s.mu.Unlock()
			copied += n
			if err != nil {
				return copied, err
			}
			if !needSeg {
				break
			}
			// The copies already appended no longer point at v, so
			// re-running the batch after the roll skips them.
			if err := s.prepareSpare(); err != nil {
				return copied, err
			}
		}
	}
	return copied, nil
}

// copyLocked appends the parts of batch (whose bytes are in buf, back
// to back) that the mapping table still maps to v, and returns the
// bytes it appended.
func (s *LogStore) copyLocked(v *segment, batch []liveExtent, buf []byte) (copied int64, needSeg bool, err error) {
	if err := s.deadLocked(); err != nil {
		return 0, false, err
	}
	var still []extent.Extent
	for _, w := range batch {
		still = s.objects[w.file].ext.PointingAt(w.e.Off, w.e.N, v.seq, w.e.Pos, still[:0])
		for _, e := range still {
			at := e.Off - w.e.Off
			if needSeg, err := s.appendLocked(w.file, e.Off, buf[at:at+e.N], false); needSeg || err != nil {
				return copied, needSeg, err
			}
			copied += e.N
		}
		buf = buf[w.e.N:]
	}
	return copied, false, nil
}

// rollLocked seals the active segment and makes the spare the active
// one (mu held; the spare exists).
func (s *LogStore) rollLocked() {
	s.active, s.spare = s.spare, nil
	s.segs[s.active.seq] = s.active
	s.frameBytes += s.active.size
	s.st.rolls++
}

// syncLog fsyncs every segment from sequence first on that was appended
// to since its last fsync. The caller holds the maintenance token, so
// no handle closes under it.
func (s *LogStore) syncLog(first uint64) error {
	type dirty struct {
		seg  *segment
		size int64
	}
	var ds []dirty
	s.mu.RLock()
	for _, seq := range sortedKeys(s.segs) {
		if seg := s.segs[seq]; seq >= first && seg.synced < seg.size {
			ds = append(ds, dirty{seg, seg.size})
		}
	}
	s.mu.RUnlock()
	for _, d := range ds {
		if err := d.seg.f.Sync(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for _, d := range ds {
		d.seg.synced = d.size
	}
	s.mu.Unlock()
	return nil
}

// retire takes segments a durable checkpoint no longer lists
// (checkpoint dropped them from segs) out of the log, each once the
// reads still pinning it have drained: renamed to its free path onto the
// free list, handle open, for prepareSpare to reuse — or, with the list
// full, closed and unlinked. A crash before the rename leaves an
// unreferenced segment older than the checkpoint's, and one after it a
// free file; Open deletes both. Only the holder of the maintenance token
// retires, so the list cannot outgrow its bound between the check and
// the append.
func (s *LogStore) retire(victims []*segment) {
	for _, v := range victims {
		v.pins.Wait()
		s.mu.RLock()
		keep := len(s.free) < cleanCycleSegments
		s.mu.RUnlock()
		if keep && os.Rename(segPath(s.dir, v.seq), freePath(s.dir, v.seq)) == nil {
			s.mu.Lock()
			s.free = append(s.free, v)
			s.mu.Unlock()
			continue
		}
		v.f.Close()
		os.Remove(segPath(s.dir, v.seq))
	}
}
