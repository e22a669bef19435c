package core

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/extent"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Bridge is one data server's iBridge storage stack: a hard disk behind a
// merging elevator, an SSD behind a Noop queue, the return-value model,
// and the SSD cache. It implements pfs.Store.
type Bridge struct {
	e      *sim.Engine
	cfg    Config
	server int

	diskQ *iosched.Queue
	disk  *hdd.Disk
	ssdQ  *iosched.Queue

	// daemon is the maintenance process (maintain), kicked whenever
	// the bridge changes what its wait reads.
	daemon *sim.Proc

	trk  *tracker
	exch *Exchange

	table *table
	alloc *logAlloc

	stage []stageItem

	// idleAfter and stageQueueMax are the constants of the same names;
	// tests isolating one mechanism lower them.
	idleAfter     sim.Duration
	stageQueueMax int

	// ssdFailed latches after an injected SSD-device failure: the cache
	// is drained and dropped once, and every later request takes the
	// disk path — graceful degradation, never data loss.
	ssdFailed bool

	stats Stats

	// Observability sinks; all nil when disabled, so the hot path pays
	// one branch per decision point.
	m     *obs.BridgeMetrics
	tr    *obs.XTracer
	scope string
}

// SetObs installs the observability sinks (either may be nil). run
// labels the cluster instance: the bridge's trace lane is
// "run<N>/bridge<i>". Call before the simulation runs.
func (b *Bridge) SetObs(m *obs.BridgeMetrics, tr *obs.XTracer, run int32) {
	b.m = m
	b.tr = tr
	b.scope = fmt.Sprintf("run%d/bridge%d", run, b.server)
}

// instant records a decision at the current virtual time under parent
// request id (0: not request-scoped). Callers guard on b.tr != nil.
func (b *Bridge) instant(p *sim.Proc, name string, id int64) {
	b.tr.Instant(uint64(id), 0, name, b.scope, time.Unix(0, int64(p.Now())))
}

type stageItem struct {
	lbn     int64
	sectors int64
	ret     float64
	class   Class
}

// capSectors converts the configured capacity to sectors.
func (b *Bridge) capSectors() int64 { return b.cfg.SSDCapacity / device.SectorSize }

// NewBridge assembles an iBridge stack for one data server. serverID must
// be the pfs server index; exch may be nil for a standalone bridge (no
// magnification data). diskQ must wrap disk; ssdQ must wrap the SSD.
func NewBridge(e *sim.Engine, cfg Config, serverID int, disk *hdd.Disk, diskQ, ssdQ *iosched.Queue, exch *Exchange, rng *sim.RNG) *Bridge {
	if !(cfg.EWMANew > 0 && cfg.EWMANew <= 1) {
		panic(fmt.Sprintf("core: EWMA new-sample weight %v outside (0, 1]", cfg.EWMANew))
	}
	b := &Bridge{
		e:             e,
		cfg:           cfg,
		server:        serverID,
		diskQ:         diskQ,
		disk:          disk,
		ssdQ:          ssdQ,
		trk:           newTracker(disk.Spec(), cfg.EWMANew),
		exch:          exch,
		alloc:         newLogAlloc(cfg.SSDCapacity/device.SectorSize, cfg.LogStructured, rng),
		idleAfter:     idleAfter,
		stageQueueMax: stageQueueMax,
	}
	b.table = newTable(b.alloc)
	if exch != nil {
		exch.Register(b)
	}
	b.daemon = e.Go(fmt.Sprintf("ibridge-maint:srv%d", serverID), b.maintain)
	return b
}

// T returns the bridge's current decayed average disk service time.
func (b *Bridge) T() float64 { return b.trk.T() }

// Stats returns the bridge's statistics.
func (b *Bridge) Stats() *Stats { return &b.stats }

// Usage returns the cache occupancy in bytes per class.
func (b *Bridge) Usage() (random, fragment int64) {
	return b.table.usage[ClassRandom] * device.SectorSize, b.table.usage[ClassFragment] * device.SectorSize
}

// allocFor returns the partition size in sectors for the given class:
// proportional to the classes' average recorded returns when dynamic
// (with a 10% floor each), or the static split.
func (b *Bridge) allocFor(c Class) int64 {
	total := b.capSectors()
	fragShare := b.cfg.StaticFragShare
	if b.cfg.DynamicPartition {
		avg := [2]float64{}
		for i := range avg {
			if n := b.table.retCnt[i]; n > 0 {
				avg[i] = b.table.retSum[i] / float64(n)
			}
		}
		switch {
		case avg[0]+avg[1] <= 0:
			fragShare = 0.5
		default:
			fragShare = avg[ClassFragment] / (avg[ClassRandom] + avg[ClassFragment])
		}
		if fragShare < 0.1 {
			fragShare = 0.1
		}
		if fragShare > 0.9 {
			fragShare = 0.9
		}
	}
	if c == ClassFragment {
		return int64(float64(total) * fragShare)
	}
	return int64(float64(total) * (1 - fragShare))
}

// classify returns the cache class of a redirectable request.
func classify(r *pfs.IORequest) Class {
	if r.Fragment {
		return ClassFragment
	}
	return ClassRandom
}

// evalReturn computes T_ret (or T_ret_frag for fragments) in seconds for
// request r arriving now, alongside the Eq. (3) magnification component
// of it (0 when this server is not the parent's bottleneck).
func (b *Bridge) evalReturn(r *pfs.IORequest) (ret, boost float64) {
	req := r.Request()
	ret = b.trk.hypothetical(req) - b.trk.T()
	if r.Fragment && b.cfg.Magnification && b.exch != nil {
		boost = magnification(b.trk.T(), b.server, r.Siblings, b.exch.View())
		ret += boost
	}
	return ret, boost
}

// countOffload records one committed positive-return redirect, split by
// whether the Eq. (3) boost contributed.
func (b *Bridge) countOffload(ret, boost float64) {
	if boost > 0 {
		b.stats.BoostedOffloads++
	} else {
		b.stats.PlainOffloads++
	}
	if b.m != nil {
		if boost > 0 {
			b.m.BoostedOffloads.Inc()
		} else {
			b.m.PlainOffloads.Inc()
		}
		b.m.Return.Observe(ret * 1e3)
	}
}

// Serve implements pfs.Store. The closing Kick covers the stage queue
// and dirty total, which a request grows after its last Submit.
func (b *Bridge) Serve(p *sim.Proc, r *pfs.IORequest) {
	if r.Op == device.Read {
		b.serveRead(p, r)
	} else {
		b.serveWrite(p, r)
	}
	b.e.Kick(b.daemon)
}

// submit issues r on q, blocking p until it is served, and then kicks
// the daemon: the queue and the disk's idle time have moved. The bridge
// is its devices' only submitter, so these kicks see every completion.
func (b *Bridge) submit(p *sim.Proc, q *iosched.Queue, r device.Request) {
	q.Submit(p, r)
	b.e.Kick(b.daemon)
}

func (b *Bridge) serveRead(p *sim.Proc, r *pfs.IORequest) {
	// Cache lookup: fully covered reads are served from the SSD.
	if segs, ok := b.table.covered(r.LBN, r.Sectors); ok && !b.ssdFailed {
		for _, x := range segs {
			b.submit(p, b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N})
			if e := b.table.entries[x.Seg]; e != nil { // not gone during the read
				b.table.lru[e.class].touch(e)
			}
		}
		b.stats.Hits++
		b.stats.SSDReadBytes += r.Bytes
		b.trk.servedAtSSD()
		if b.m != nil {
			b.m.Hits.Inc()
		}
		if b.tr != nil {
			b.instant(p, "ssd-hit", r.ID)
		}
		return
	}
	b.stats.Misses++
	if b.m != nil {
		b.m.Misses.Inc()
	}
	// Any dirty cached pieces must come from the SSD even on a miss.
	for _, x := range b.table.dirtyOverlaps(r.LBN, r.Sectors) {
		b.submit(p, b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N})
	}
	candidate := (r.Fragment || r.Random) && !b.ssdFailed
	var ret, boost float64
	if candidate {
		ret, boost = b.evalReturn(r)
	}
	req := r.Request()
	b.submit(p, b.diskQ, req)
	b.trk.servedAtDisk(req)
	b.stats.DiskReadBytes += r.Bytes
	if b.tr != nil {
		b.instant(p, "disk-read", r.ID)
	}
	// The data is now in memory; if redirecting it would have paid off,
	// stage it into the SSD during the next idle period so future runs
	// hit (Section II-B's read path).
	if candidate && ret > 0 && len(b.stage) < b.stageQueueMax {
		b.stage = append(b.stage, stageItem{lbn: r.LBN, sectors: r.Sectors, ret: ret, class: classify(r)})
		b.countOffload(ret, boost)
		if b.tr != nil {
			b.instant(p, "stage-queued", r.ID)
		}
	}
}

func (b *Bridge) serveWrite(p *sim.Proc, r *pfs.IORequest) {
	candidate := (r.Fragment || r.Random) && !b.ssdFailed
	if candidate {
		if ret, boost := b.evalReturn(r); ret > 0 {
			if b.writeToSSD(p, r, ret, classify(r)) {
				b.trk.servedAtSSD()
				b.stats.SSDWriteBytes += r.Bytes
				b.countOffload(ret, boost)
				if b.tr != nil {
					name := "ssd-offload"
					if boost > 0 {
						name = "ssd-offload-boosted"
					}
					b.instant(p, name, r.ID)
				}
				return
			}
			b.stats.Rejections++
			if b.m != nil {
				b.m.Rejections.Inc()
			}
			if b.tr != nil {
				b.instant(p, "ssd-reject", r.ID)
			}
		}
	}
	// Disk path: anything cached for this range is now stale.
	b.invalidate(r.LBN, r.Sectors)
	req := r.Request()
	b.submit(p, b.diskQ, req)
	b.trk.servedAtDisk(req)
	b.stats.DiskWriteBytes += r.Bytes
	if b.tr != nil {
		b.instant(p, "disk-write", r.ID)
	}
}

// writeToSSD admits a write into the cache: evicts within the class
// partition, appends to the SSD log, and records the mapping. The log
// record carries one extra sector, the mapping table's dirty-entry
// update (Section II-B persists it with each SSD write). Returns false
// if space cannot be made.
func (b *Bridge) writeToSSD(p *sim.Proc, r *pfs.IORequest, ret float64, c Class) bool {
	need := r.Sectors + 1
	if !b.makeRoom(p, c, need) {
		return false
	}
	// Overwritten cached data is superseded.
	b.invalidate(r.LBN, r.Sectors)
	at, ok := b.alloc.alloc(need)
	if !ok {
		return false
	}
	b.submit(p, b.ssdQ, device.Request{Op: device.Write, LBN: at, Sectors: need})
	// The mapping covers the data sectors only; the table record is
	// allocator overhead owned by the entry's span.
	// Admissions of the range that landed during the write are older
	// than this one: the insert supersedes them.
	b.admit(&entry{lbn: r.LBN, sectors: r.Sectors, dirty: true, class: c, ret: ret, spanAt: at, spanN: need})
	return true
}

// admit links a fully initialized entry into the table and accounting.
func (b *Bridge) admit(e *entry) {
	b.table.insert(e)
	b.stats.Admissions[e.class]++
	u := (b.table.usage[0] + b.table.usage[1]) * device.SectorSize
	if u > b.stats.PeakUsage {
		b.stats.PeakUsage = u
	}
	if b.m != nil {
		b.m.Occupancy.Set(u)
	}
}

// makeRoom evicts LRU entries of class c until need sectors fit within
// the class partition. Dirty victims are written back first.
func (b *Bridge) makeRoom(p *sim.Proc, c Class, need int64) bool {
	limit := b.allocFor(c)
	if need > limit {
		return false
	}
	for b.table.usage[c]+need > limit {
		victim := b.table.lru[c].head
		if victim == nil {
			return false
		}
		if victim.dirty {
			b.writebackEntry(p, victim)
		}
		// A write during the writeback may have superseded the victim.
		if b.table.evict(victim) {
			b.stats.Evictions++
			if b.m != nil {
				b.m.Evictions.Inc()
			}
		}
	}
	return true
}

// invalidate punches [lbn, lbn+sectors) out of the cache, dropping
// superseded data without writeback. Trimmed entries keep their whole
// allocator span until their last sector goes; the usage counters govern
// partition pressure.
func (b *Bridge) invalidate(lbn, sectors int64) {
	b.table.punch(lbn, sectors)
}

// writebackEntry copies the live pieces of one dirty entry from the SSD
// back to the disk (SSD read + disk write each) and marks it clean.
// Writeback traffic does not update the tracker: the paper's T averages
// over requests *arriving* at the server, not the internal cache
// maintenance.
func (b *Bridge) writebackEntry(p *sim.Proc, e *entry) {
	// Not the table's buffer: evictions made while the Submits below
	// block reuse it.
	var buf [2]extent.Extent
	for _, x := range b.table.livePieces(e, buf[:0]) {
		b.submit(p, b.ssdQ, device.Request{Op: device.Read, LBN: x.Pos, Sectors: x.N})
		b.submit(p, b.diskQ, device.Request{Op: device.Write, LBN: x.Off, Sectors: x.N})
		b.stats.WritebackBytes += x.N * device.SectorSize
	}
	b.table.markClean(e)
	if b.m != nil {
		b.m.Writebacks.Inc()
	}
}

// idle reports whether both devices have been quiet long enough for
// background work.
func (b *Bridge) idle(now sim.Time) bool {
	quiet := now.Add(-b.idleAfter)
	return b.diskQ.Pending() == 0 && b.ssdQ.Pending() == 0 &&
		b.disk.IdleSince() <= quiet
}

// maintenanceDue reports whether a maintenance check at the current
// instant has anything to do: the SSD is alive, both devices are idle,
// and read data is queued for staging or dirty pressure calls for
// writeback. It reads state only, so the engine evaluates it without
// waking the daemon.
func (b *Bridge) maintenanceDue() bool {
	if b.ssdFailed || !b.idle(b.e.Now()) {
		return false
	}
	return b.maintenanceWork()
}

// maintenanceWork reports whether read data is queued for staging or
// dirty pressure calls for writeback.
func (b *Bridge) maintenanceWork() bool {
	return len(b.stage) > 0 ||
		float64(b.DirtySectors()) >= b.cfg.WritebackMinDirty*float64(b.capSectors())
}

// maintenanceFrom is the earliest instant maintenanceDue can hold if
// only time passes: idleAfter past the disk's last completion (past now
// while it is busy), or Never without work, with a request queued for
// the disk, or after an SSD failure. A queued disk request must be
// dispatched, occupying the disk, before the queue empties, and its
// completion is followed by a kick. A queued SSD request is not waited
// for: the SSD queue also empties when its dispatch callback starts the
// request, a moment no kick follows.
func (b *Bridge) maintenanceFrom() sim.Time {
	if b.ssdFailed || b.diskQ.Pending() > 0 || !b.maintenanceWork() {
		return sim.Never
	}
	return b.disk.IdleSince().Add(b.idleAfter)
}

// maintain is the background daemon: during idle device periods it first
// stages queued read data into the SSD, then writes dirty data back to
// the disk in LBN order (long sequential runs). It checks for work on an
// IdleCheck grid, but only from the instant work can first be due
// (maintenanceFrom); the bridge kicks it when that instant moves, and it
// is resumed only at a check that finds work.
func (b *Bridge) maintain(p *sim.Proc) {
	due, from := b.maintenanceDue, b.maintenanceFrom
	for {
		p.Await(b.cfg.IdleCheck, due, from)
		// Stage queued read data while the devices stay quiet.
		for len(b.stage) > 0 && b.idle(p.Now()) {
			it := b.stage[0]
			b.stage = b.stage[1:]
			b.stageOne(p, it)
		}
		if !b.idle(p.Now()) {
			continue
		}
		// Write back only under dirty pressure; otherwise dirty data
		// waits for eviction pressure or the final flush.
		if float64(b.DirtySectors()) >= b.cfg.WritebackMinDirty*float64(b.capSectors()) {
			b.writebackPass(p, writebackBatch)
		}
	}
}

// stageOne admits one read-staged extent into the cache as clean data.
func (b *Bridge) stageOne(p *sim.Proc, it stageItem) {
	if _, ok := b.table.covered(it.lbn, it.sectors); ok {
		return // already cached meanwhile
	}
	need := it.sectors + 1 // with the table record, as in writeToSSD
	if !b.makeRoom(p, it.class, need) {
		return
	}
	b.invalidate(it.lbn, it.sectors)
	at, ok := b.alloc.alloc(need)
	if !ok {
		return
	}
	b.submit(p, b.ssdQ, device.Request{Op: device.Write, LBN: at, Sectors: need})
	if len(b.table.dirtyOverlaps(it.lbn, it.sectors)) > 0 {
		// A write admitted during the staging write is newer than the
		// staged data; the insert must not supersede it.
		b.alloc.release(at, need)
		return
	}
	b.admit(&entry{lbn: it.lbn, sectors: it.sectors, class: it.class, ret: it.ret, spanAt: at, spanN: need})
	b.stats.StagedBytes += it.sectors * device.SectorSize
	if b.m != nil {
		b.m.Stages.Inc()
	}
	if b.tr != nil {
		b.instant(p, "staged", 0)
	}
}

// writebackPass writes back up to batch dirty extents in ascending LBN
// order, forming sequential disk runs. It yields as soon as foreground
// requests arrive so cache maintenance never blocks application I/O.
// Returns the number written back.
func (b *Bridge) writebackPass(p *sim.Proc, batch int) int {
	n := 0
	for n < batch {
		victim := b.table.firstDirty()
		if victim == nil {
			return n
		}
		b.writebackEntry(p, victim)
		n++
		if b.diskQ.Pending() > 0 || b.ssdQ.Pending() > 0 {
			return n // foreground traffic arrived: yield
		}
	}
	return n
}

// Flush implements pfs.Store: write back all dirty cached data. The
// paper includes this in measured execution time.
func (b *Bridge) Flush(p *sim.Proc) {
	for {
		if b.writebackPass(p, 1<<30) == 0 {
			return
		}
	}
}

// FailSSD simulates an SSD-device failure at the current simulated time:
// dirty data is written back once (a controlled firmware degrade, not
// torn metadata), every mapping is dropped, staged work is discarded,
// and from then on the bridge serves everything from the disk. Eq. (2)'s
// observation that the SSD leaves the disk's T unchanged is what makes
// this a clean fallback: the cluster loses the acceleration, never the
// bytes.
func (b *Bridge) FailSSD(p *sim.Proc) {
	if b.ssdFailed {
		return
	}
	b.Flush(p)
	for len(b.table.list) > 0 {
		b.table.evict(b.table.entries[b.table.list[0].Seg])
	}
	b.stage = b.stage[:0]
	b.ssdFailed = true
	b.stats.SSDFailures++
	if b.tr != nil {
		b.instant(p, "ssd-failed", 0)
	}
}

// SSDFailed reports whether this bridge's SSD device has failed.
func (b *Bridge) SSDFailed() bool { return b.ssdFailed }

// DirtySectors returns the number of dirty cached sectors: the running
// total the mapping table keeps, equal at every instant to the sum over
// its dirty entries (Snapshot recomputes that sum the long way).
func (b *Bridge) DirtySectors() int64 { return b.table.dirtySectors }

// TableState is the mapping table as Snapshot reports it.
type TableState struct {
	// Extents is the mapping table in LBN order.
	Extents []TableExtent
	// DirtySectors counts sectors whose only copy is in the SSD.
	DirtySectors int64
}

// TableExtent is one mapping-table extent.
type TableExtent struct {
	LBN     int64
	Sectors int64
	SSDLBN  int64
	Dirty   bool
	Class   Class
}

// Snapshot returns the mapping table extent by extent. Its DirtySectors
// is summed over the extents: the reference the running total is
// tested against.
func (b *Bridge) Snapshot() TableState {
	var out TableState
	for _, x := range b.table.list {
		e := b.table.entries[x.Seg]
		out.Extents = append(out.Extents, TableExtent{
			LBN: x.Off, Sectors: x.N, SSDLBN: x.Pos, Dirty: e.dirty, Class: e.class,
		})
		if e.dirty {
			out.DirtySectors += x.N
		}
	}
	return out
}

var _ pfs.Store = (*Bridge)(nil)
