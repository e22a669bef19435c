package core

import (
	"repro/internal/device"
	"repro/internal/extent"
	"repro/internal/iosched"
	"repro/internal/pfs"
)

// op is one thread of a bridge's work in flight: a request's serve path,
// a flush, or a maintenance pass. No process runs it. It is a chain of
// continuations, one step per device request it waits for (the devices'
// queues take a continuation, iosched.Queue.Start), and its fields are
// what the steps share. The steps are bound once per op, and request and
// flush ops are recycled through the bridge's free list, so a chain
// allocates nothing; the maintenance pass has an op of its own.
//
// Every step does its work and then either issues one device request or
// runs one continuation, as its last action: nothing runs after a
// continuation returns.
type op struct {
	b *Bridge
	// r is the request being served, and done the caller's
	// continuation (of a request or a flush).
	r    *pfs.IORequest
	done func()
	// then is the step that follows the device request in flight.
	then func()

	// The serve path's admission decision: whether r is a candidate,
	// its return and the Eq. (3) boost in it.
	candidate  bool
	ret, boost float64
	// segs are the SSD extents a read fetches (a hit's, or a miss's
	// dirty overlaps) and i the next; at is the SSD position of an
	// admission's or a staging's log write.
	segs []extent.Extent
	i    int
	at   int64

	// makeRoom: the class and sectors it makes room for, the class's
	// partition size, the dirty victim being written back, whether the
	// sectors fit, and its continuation.
	class       Class
	need, limit int64
	victim      *entry
	ok          bool
	roomDone    func()

	// writeback: the entry, its live pieces and the next, and its
	// continuation.
	wbEntry *entry
	pieces  []extent.Extent
	j       int
	wbDone  func()

	// writebackPass: its budget, the entries written back so far, and
	// its continuation.
	batch, n int
	passDone func()

	// stageOne: the item and its continuation. inline is set while the
	// maintenance loop is in stageOne, to tell an inline end.
	it        stageItem
	stageDone func()
	inline    bool

	// The steps, bound once.
	submittedFn, hitReadFn, overlapNextFn, diskReadFn, roomForWriteFn,
	ssdWrittenFn, diskWrittenFn, evictedFn, pieceReadFn, pieceWrittenFn,
	passStepFn, flushedFn, roomForStageFn, stagedFn, stagedItemFn,
	maintainFn, rearmFn func()
}

// newOp returns an op off the free list, or a new one with its steps
// bound.
func (b *Bridge) newOp() *op {
	if n := len(b.free); n > 0 {
		o := b.free[n-1]
		b.free = b.free[:n-1]
		return o
	}
	o := &op{b: b}
	o.submittedFn, o.hitReadFn, o.overlapNextFn, o.diskReadFn = o.submitted, o.hitRead, o.overlapNext, o.diskRead
	o.roomForWriteFn, o.ssdWrittenFn, o.diskWrittenFn = o.roomForWrite, o.ssdWritten, o.diskWritten
	o.evictedFn, o.pieceReadFn, o.pieceWrittenFn, o.passStepFn = o.evicted, o.pieceRead, o.pieceWritten, o.passStep
	o.flushedFn, o.roomForStageFn, o.stagedFn, o.stagedItemFn = o.flushed, o.roomForStage, o.staged, o.stagedItem
	o.maintainFn, o.rearmFn = o.maintain, o.rearm
	return o
}

// end returns o to the free list and runs its caller's continuation.
func (o *op) end() {
	b, done := o.b, o.done
	o.r, o.done = nil, nil
	b.free = append(b.free, o)
	done()
}

// submit issues r on q; when it has been served, submitted kicks the
// maintenance wait and runs then.
func (o *op) submit(q *iosched.Queue, r device.Request, then func()) {
	o.then = then
	q.Start(r, o.submittedFn)
}

// submitted follows every device request: the queue and the disk's idle
// time have moved, so the maintenance wait is kicked. The bridge is its
// devices' only submitter, so these kicks see every completion.
func (o *op) submitted() {
	o.b.maint.Kick()
	o.then()
}

// Start implements pfs.Store.
func (b *Bridge) Start(r *pfs.IORequest, done func()) {
	o := b.newOp()
	o.r, o.done = r, done
	if r.Op == device.Read {
		o.read()
	} else {
		o.write()
	}
}

// served ends a request. Its kick covers the stage queue and dirty
// total, which a request grows after its last device request.
func (o *op) served() {
	o.b.maint.Kick()
	o.end()
}

// read serves a read: fully covered reads from the SSD, the rest from
// the disk, with any dirty cached pieces read from the SSD first.
func (o *op) read() {
	b, r := o.b, o.r
	var ok bool
	if o.segs, ok = b.table.covered(r.LBN, r.Sectors, o.segs[:0]); ok && !b.ssdFailed {
		o.i = 0
		o.hitNext()
		return
	}
	b.stats.Misses++
	// Any dirty cached pieces must come from the SSD even on a miss.
	o.segs, o.i = b.table.dirtyOverlaps(r.LBN, r.Sectors, o.segs[:0]), 0
	o.overlapNext()
}

// hitNext reads a hit's next extent from the SSD, or ends the hit.
func (o *op) hitNext() {
	b, r := o.b, o.r
	if o.i < len(o.segs) {
		x := o.segs[o.i]
		o.submit(b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N}, o.hitReadFn)
		return
	}
	b.stats.Hits++
	b.stats.SSDReadBytes += r.Bytes
	b.trk.servedAtSSD()
	if b.tr != nil {
		b.instant("ssd-hit", r.ID)
	}
	o.served()
}

// hitRead follows a hit's SSD read: the extent's entry, unless it went
// during the read, becomes its class's most recently used.
func (o *op) hitRead() {
	x := o.segs[o.i]
	o.i++
	if e := o.b.table.entries[x.Seg]; e != nil {
		o.b.table.lru[e.class].touch(e)
	}
	o.hitNext()
}

// overlapNext reads a miss's next dirty overlap from the SSD, and after
// the last one reads the request from the disk.
func (o *op) overlapNext() {
	b, r := o.b, o.r
	if o.i < len(o.segs) {
		x := o.segs[o.i]
		o.i++
		o.submit(b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N}, o.overlapNextFn)
		return
	}
	o.candidate = (r.Fragment || r.Random) && !b.ssdFailed
	o.ret, o.boost = 0, 0
	if o.candidate {
		o.ret, o.boost = b.evalReturn(r)
	}
	o.submit(b.diskQ, r.Request(), o.diskReadFn)
}

// diskRead follows a miss's disk read. The data is now in memory; if
// redirecting it would have paid off, it is queued to be staged into the
// SSD during the next idle period so future runs hit (Section II-B's
// read path).
func (o *op) diskRead() {
	b, r := o.b, o.r
	b.trk.servedAtDisk(r.Request())
	b.stats.DiskReadBytes += r.Bytes
	if b.tr != nil {
		b.instant("disk-read", r.ID)
	}
	if o.candidate && o.ret > 0 && len(b.stage) < b.stageQueueMax {
		b.stage = append(b.stage, stageItem{lbn: r.LBN, sectors: r.Sectors, ret: o.ret, class: classify(r)})
		b.countOffload(o.ret, o.boost)
		if b.tr != nil {
			b.instant("stage-queued", r.ID)
		}
	}
	o.served()
}

// write serves a write: a candidate with a positive return is admitted
// into the SSD cache if room can be made, and everything else goes to
// the disk.
func (o *op) write() {
	b, r := o.b, o.r
	if (r.Fragment || r.Random) && !b.ssdFailed {
		if o.ret, o.boost = b.evalReturn(r); o.ret > 0 {
			// The log record carries one extra sector, the mapping
			// table's dirty-entry update (Section II-B persists it
			// with each SSD write).
			o.makeRoom(classify(r), r.Sectors+1, o.roomForWriteFn)
			return
		}
	}
	o.diskWrite()
}

// roomForWrite follows an admission's makeRoom: it appends the write to
// the SSD log, or rejects the admission if space cannot be made.
func (o *op) roomForWrite() {
	b, r := o.b, o.r
	if !o.ok {
		o.rejected()
		return
	}
	// Overwritten cached data is superseded.
	b.invalidate(r.LBN, r.Sectors)
	var ok bool
	if o.at, ok = b.alloc.alloc(o.need); !ok {
		o.rejected()
		return
	}
	o.submit(b.ssdQ, device.Request{Op: device.Write, LBN: o.at, Sectors: o.need}, o.ssdWrittenFn)
}

// ssdWritten follows an admission's SSD write: the write is mapped.
func (o *op) ssdWritten() {
	b, r := o.b, o.r
	// The mapping covers the data sectors only; the table record is
	// allocator overhead owned by the entry's span. Admissions of the
	// range that landed during the write are older than this one: the
	// insert supersedes them.
	b.admit(&entry{lbn: r.LBN, sectors: r.Sectors, dirty: true, class: o.class, ret: o.ret, spanAt: o.at, spanN: o.need})
	b.trk.servedAtSSD()
	b.stats.SSDWriteBytes += r.Bytes
	b.countOffload(o.ret, o.boost)
	if b.tr != nil {
		name := "ssd-offload"
		if o.boost > 0 {
			name = "ssd-offload-boosted"
		}
		b.instant(name, r.ID)
	}
	o.served()
}

// rejected sends a candidate the cache could not take to the disk.
func (o *op) rejected() {
	b := o.b
	b.stats.Rejections++
	if b.tr != nil {
		b.instant("ssd-reject", o.r.ID)
	}
	o.diskWrite()
}

// diskWrite writes the request to the disk.
func (o *op) diskWrite() {
	b, r := o.b, o.r
	// Disk path: anything cached for this range is now stale.
	b.invalidate(r.LBN, r.Sectors)
	o.submit(b.diskQ, r.Request(), o.diskWrittenFn)
}

// diskWritten follows a write's disk write.
func (o *op) diskWritten() {
	b, r := o.b, o.r
	b.trk.servedAtDisk(r.Request())
	b.stats.DiskWriteBytes += r.Bytes
	if b.tr != nil {
		b.instant("disk-write", r.ID)
	}
	o.served()
}

// makeRoom evicts LRU entries of class c until need sectors fit within
// the class partition, writing dirty victims back first, and then runs
// then, with o.ok reporting whether they fit.
func (o *op) makeRoom(c Class, need int64, then func()) {
	o.class, o.need, o.roomDone = c, need, then
	o.limit = o.b.allocFor(c)
	if need > o.limit {
		o.ok = false
		then()
		return
	}
	o.evictNext()
}

// evictNext evicts until the sectors fit, or starts the writeback of a
// dirty victim.
func (o *op) evictNext() {
	b := o.b
	for b.table.usage[o.class]+o.need > o.limit {
		victim := b.table.lru[o.class].head
		if victim == nil {
			o.ok = false
			o.roomDone()
			return
		}
		if victim.dirty {
			o.victim = victim
			o.writeback(victim, o.evictedFn)
			return
		}
		b.evict(victim)
	}
	o.ok = true
	o.roomDone()
}

// evicted follows a dirty victim's writeback. A write during the
// writeback may have superseded the victim.
func (o *op) evicted() {
	v := o.victim
	o.victim = nil
	o.b.evict(v)
	o.evictNext()
}

// writeback copies the live pieces of one dirty entry from the SSD back
// to the disk (SSD read + disk write each), marks it clean and runs then.
// Writeback traffic does not update the tracker: the paper's T averages
// over requests *arriving* at the server, not the internal cache
// maintenance.
func (o *op) writeback(e *entry, then func()) {
	// The op's buffer, not the table's: evictions made while the
	// pieces are written back reuse that.
	o.wbEntry, o.wbDone = e, then
	o.pieces, o.j = o.b.table.livePieces(e, o.pieces[:0]), 0
	o.writebackNext()
}

// writebackNext reads the next piece from the SSD, or, after the last,
// marks the entry clean.
func (o *op) writebackNext() {
	b := o.b
	if o.j < len(o.pieces) {
		x := o.pieces[o.j]
		o.submit(b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N}, o.pieceReadFn)
		return
	}
	b.table.markClean(o.wbEntry)
	if b.m != nil {
		b.m.Writebacks.Inc()
	}
	o.wbEntry = nil
	o.wbDone()
}

// pieceRead writes a piece read from the SSD to the disk.
func (o *op) pieceRead() {
	x := o.pieces[o.j]
	o.submit(o.b.diskQ, device.Request{Op: device.Write, LBN: x.Off, Sectors: x.N}, o.pieceWrittenFn)
}

// pieceWritten follows a piece's disk write.
func (o *op) pieceWritten() {
	o.b.stats.WritebackBytes += o.pieces[o.j].N * device.SectorSize
	o.j++
	o.writebackNext()
}

// writebackPass writes back up to batch dirty extents in ascending LBN
// order, forming sequential disk runs, and runs then with o.n the number
// written back. It yields as soon as foreground requests arrive so cache
// maintenance never blocks application I/O.
func (o *op) writebackPass(batch int, then func()) {
	o.batch, o.n, o.passDone = batch, 0, then
	o.passNext()
}

// passNext writes back the first dirty entry, or ends the pass.
func (o *op) passNext() {
	if o.n < o.batch {
		if victim := o.b.table.firstDirty(); victim != nil {
			o.writeback(victim, o.passStepFn)
			return
		}
	}
	o.passDone()
}

// passStep follows one writeback of a pass.
func (o *op) passStep() {
	b := o.b
	o.n++
	if b.diskQ.Pending() > 0 || b.ssdQ.Pending() > 0 {
		o.passDone() // foreground traffic arrived: yield
		return
	}
	o.passNext()
}

// Flush implements pfs.Store: write back all dirty cached data. The
// paper includes this in measured execution time.
func (b *Bridge) Flush(done func()) {
	o := b.newOp()
	o.done = done
	o.writebackPass(1<<30, o.flushedFn)
}

// flushed follows a flush's pass: another pass, until one finds nothing
// dirty.
func (o *op) flushed() {
	if o.n > 0 {
		o.writebackPass(1<<30, o.flushedFn)
		return
	}
	o.end()
}

// FailSSD simulates an SSD-device failure at the current simulated time
// and runs done once the bridge has degraded: dirty data is written back
// once (a controlled firmware degrade, not torn metadata), every mapping
// is dropped, staged work is discarded, and from then on the bridge
// serves everything from the disk. Eq. (2)'s observation that the SSD
// leaves the disk's T unchanged is what makes this a clean fallback: the
// cluster loses the acceleration, never the bytes.
func (b *Bridge) FailSSD(done func()) {
	if b.ssdFailed {
		done()
		return
	}
	b.Flush(func() {
		for len(b.table.list) > 0 {
			b.table.evict(b.table.entries[b.table.list[0].Seg])
		}
		b.stage = b.stage[:0]
		b.ssdFailed = true
		b.stats.SSDFailures++
		if b.tr != nil {
			b.instant("ssd-failed", 0)
		}
		done()
	})
}

// rearm waits for maintenance work: checks on an IdleCheck grid, but
// only from the instant work can first be due (maintenanceFrom); the
// bridge kicks the wait when that instant moves, and its continuation,
// maintain, runs only at a check that finds work.
func (o *op) rearm() {
	b := o.b
	b.maint.Await(b.cfg.IdleCheck, b.dueFn, b.fromFn)
}

// maintain is the maintenance pass: during idle device periods it first
// stages queued read data into the SSD, then, under dirty pressure,
// writes dirty data back to the disk in LBN order (long sequential runs);
// then it waits for work again.
func (o *op) maintain() {
	b := o.b
	for len(b.stage) > 0 && b.idle(b.e.Now()) {
		it := b.stage[0]
		b.stage = b.stage[1:]
		o.inline = true
		o.stageOne(it, o.stagedItemFn)
		if o.inline {
			o.inline = false
			return // stageOne waits on a device; stagedItem goes on
		}
	}
	if !b.idle(b.e.Now()) {
		o.rearm()
		return
	}
	// Write back only under dirty pressure; otherwise dirty data waits
	// for eviction pressure or the final flush.
	if float64(b.DirtySectors()) >= b.cfg.WritebackMinDirty*float64(b.capSectors()) {
		o.writebackPass(writebackBatch, o.rearmFn)
		return
	}
	o.rearm()
}

// stagedItem is stageOne's continuation in the maintenance pass: inline,
// maintain's loop goes on; from a later event, it enters the loop again.
func (o *op) stagedItem() {
	if o.inline {
		o.inline = false
		return
	}
	o.maintain()
}

// stageOne admits one read-staged extent into the cache as clean data
// and runs then.
func (o *op) stageOne(it stageItem, then func()) {
	b := o.b
	o.it, o.stageDone = it, then
	var ok bool
	if o.segs, ok = b.table.covered(it.lbn, it.sectors, o.segs[:0]); ok {
		then() // already cached meanwhile
		return
	}
	o.makeRoom(it.class, it.sectors+1, o.roomForStageFn) // with the table record, as for a write
}

// roomForStage follows a staging's makeRoom: it appends the data to the
// SSD log, or drops the item if space cannot be made.
func (o *op) roomForStage() {
	b, it := o.b, o.it
	if !o.ok {
		o.stageDone()
		return
	}
	b.invalidate(it.lbn, it.sectors)
	var ok bool
	if o.at, ok = b.alloc.alloc(o.need); !ok {
		o.stageDone()
		return
	}
	o.submit(b.ssdQ, device.Request{Op: device.Write, LBN: o.at, Sectors: o.need}, o.stagedFn)
}

// staged follows a staging's SSD write: the data is mapped clean.
func (o *op) staged() {
	b, it := o.b, o.it
	if o.segs = b.table.dirtyOverlaps(it.lbn, it.sectors, o.segs[:0]); len(o.segs) > 0 {
		// A write admitted during the staging write is newer than the
		// staged data; the insert must not supersede it.
		b.alloc.release(o.at, o.need)
		o.stageDone()
		return
	}
	b.admit(&entry{lbn: it.lbn, sectors: it.sectors, class: it.class, ret: it.ret, spanAt: o.at, spanN: o.need})
	b.stats.StagedBytes += it.sectors * device.SectorSize
	if b.m != nil {
		b.m.Stages.Inc()
	}
	if b.tr != nil {
		b.instant("staged", 0)
	}
	o.stageDone()
}

var _ pfs.Store = (*Bridge)(nil)
