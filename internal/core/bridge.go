package core

import (
	"fmt"
	"time"

	"repro/internal/device"
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

	// maint is the maintenance wait, kicked whenever the bridge changes
	// what it reads; its continuation runs a maintenance pass on mop.
	// dueFn and fromFn are maintenanceDue and maintenanceFrom bound
	// once, its predicate and earliest instant.
	maint  *sim.Wait
	mop    *op
	dueFn  func() bool
	fromFn func() sim.Time
	// free holds ops whose chain has ended, for the next to reuse.
	free []*op

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
func (b *Bridge) instant(name string, id int64) {
	b.tr.Instant(uint64(id), 0, name, b.scope, time.Unix(0, int64(b.e.Now())))
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
	// The wait begins at construction, at time zero, so its checks
	// take their (at, seq) place before any event of the workload.
	b.dueFn, b.fromFn = b.maintenanceDue, b.maintenanceFrom
	b.mop = b.newOp()
	b.maint = e.NewWait(b.mop.maintainFn)
	b.mop.rearm()
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
		b.m.Return.Observe(ret * 1e3)
	}
}

// evict drops what is left of e from the cache, counting an eviction if
// anything was.
func (b *Bridge) evict(e *entry) {
	if b.table.evict(e) {
		b.stats.Evictions++
	}
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

// invalidate punches [lbn, lbn+sectors) out of the cache, dropping
// superseded data without writeback. Trimmed entries keep their whole
// allocator span until their last sector goes; the usage counters govern
// partition pressure.
func (b *Bridge) invalidate(lbn, sectors int64) {
	b.table.punch(lbn, sectors)
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
// writeback. It reads state only, so the engine evaluates it inline at
// the wait's armed check.
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
