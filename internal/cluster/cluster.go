// Package cluster assembles a full simulated storage cluster — data
// servers with their devices and storage stacks, the metadata exchange,
// and the parallel file system — for one experiment run, and collects the
// metrics the paper's tables and figures report.
package cluster

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/blktrace"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stripe"
)

// Mode selects the storage stack at every data server.
type Mode int

// The three system configurations the paper compares.
const (
	// Stock is the baseline: all I/O to the hard disk (Figures 2–4
	// "stock system", Figure 10 "Disk-only").
	Stock Mode = iota
	// IBridge is the paper's scheme: disk plus SSD cache for fragments
	// and regular random requests.
	IBridge
	// SSDOnly stores everything on the SSD at its file location
	// (Figure 10's "SSD-only").
	SSDOnly
)

func (m Mode) String() string {
	switch m {
	case Stock:
		return "stock"
	case IBridge:
		return "ibridge"
	default:
		return "ssd-only"
	}
}

// Config describes one cluster instance.
type Config struct {
	// Servers is the number of data servers (8 on the paper's testbed).
	Servers int
	// StripeUnit is the striping unit in bytes (64 KB default); New
	// rejects a unit ≤ 0.
	StripeUnit int64
	Mode       Mode
	// IBridge configures the bridges when Mode == IBridge.
	IBridge core.Config
	// FragmentThreshold and RandomThreshold are the client-side
	// thresholds (20 KB defaults); used only in IBridge mode.
	FragmentThreshold int64
	RandomThreshold   int64
	// Readahead wraps every server's store with kernel-style
	// sequential readahead (128 KB windows). Off by default: the
	// calibrated experiments model the paper's flushed-cache
	// methodology; the ext-readahead experiment turns it on.
	Readahead bool
	// Trace attaches blktrace collectors to the disk queues.
	Trace bool
	Seed  uint64
	// Obs is the observability sink shared by all cluster instances of
	// one run (metrics registry, request-flow tracer, T_i telemetry).
	// nil disables instrumentation entirely — the zero-cost path.
	Obs *obs.Set
	// SSDFails schedules simulated SSD-device failures: server index →
	// virtual time at which that server's bridge fails its SSD and
	// degrades to the disk path. IBridge mode only; New rejects an
	// index outside [0, Servers) or a time ≤ 0.
	SSDFails map[int]sim.Duration
}

// DefaultConfig mirrors the paper's evaluation platform: 8 data servers,
// 64 KB striping unit and iBridge defaults. The devices (Table II) and
// the network are fixed: see New.
func DefaultConfig() Config {
	return Config{
		Servers:           8,
		StripeUnit:        stripe.DefaultUnit,
		Mode:              Stock,
		IBridge:           core.DefaultConfig(),
		FragmentThreshold: 20 * 1024,
		RandomThreshold:   20 * 1024,
		Seed:              1,
	}
}

const (
	// handlers bounds concurrent I/O jobs per server: PVFS2's Trove
	// layer performs synchronous file I/O with a small number of
	// concurrent operations per server, so the block queue never sees
	// the whole client population at once.
	handlers = 4
	// reportPeriod is how often each server reports its T value to the
	// metadata server for broadcast (1 s in the paper).
	reportPeriod = sim.Second
)

// Cluster is one assembled simulation instance. A Cluster runs exactly
// one workload (engines are single-use); construct a fresh Cluster per
// data point.
type Cluster struct {
	Engine     *sim.Engine
	FS         *pfs.FileSystem
	Disks      []*hdd.Disk
	SSDs       []*ssd.SSD
	Bridges    []*core.Bridge
	Collectors []*blktrace.Collector
	Exchange   *core.Exchange
	// diskQs and ssdQs are the block queues of the disks and the SSDs,
	// whose Stats fold adds to the registry.
	diskQs, ssdQs []*iosched.Queue
	cfg           Config
}

// New builds a cluster per cfg, on the Table II devices
// (hdd.DefaultSpec, ssd.DefaultSpec) and pfs.DefaultNet.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: %d servers", cfg.Servers)
	}
	if cfg.StripeUnit <= 0 {
		return nil, fmt.Errorf("cluster: stripe unit %d must be positive", cfg.StripeUnit)
	}
	for _, i := range slices.Sorted(maps.Keys(cfg.SSDFails)) {
		switch at := cfg.SSDFails[i]; {
		case cfg.Mode != IBridge:
			return nil, fmt.Errorf("cluster: SSD failure on srv%d in %s mode; only %s bridges fail their SSD", i, cfg.Mode, IBridge)
		case i < 0 || i >= cfg.Servers:
			return nil, fmt.Errorf("cluster: SSD failure on srv%d, outside %d servers", i, cfg.Servers)
		case at <= 0:
			return nil, fmt.Errorf("cluster: SSD failure on srv%d at %v; want a time > 0", i, at)
		}
	}
	e := sim.New()
	c := &Cluster{Engine: e, cfg: cfg}
	// Resolve the observability bundles once; every accessor is nil-safe
	// and returns a nil concrete pointer when disabled, so components see
	// either a live sink or the zero-cost nil. The explicit != nil guards
	// before Set*Probe calls keep a typed nil from becoming a non-nil
	// interface value.
	run := cfg.Obs.NextRun()
	tr := cfg.Obs.Tracer()
	hddM := cfg.Obs.DeviceMetrics("hdd")
	ssdM := cfg.Obs.DeviceMetrics("ssd")
	diskQM := cfg.Obs.QueueMetrics("iosched.hdd")
	ssdQM := cfg.Obs.QueueMetrics("iosched.ssd")
	bridgeM := cfg.Obs.BridgeMetrics()
	// Per-component generators are derived independently of cluster
	// mode so that e.g. disk i draws the same rotational latencies in
	// stock and iBridge runs — A/B comparisons differ only in
	// mechanism, not in noise.
	componentRNG := func(kind uint64, i int) *sim.RNG {
		return sim.NewRNG(cfg.Seed*0x9E3779B97F4A7C15 + kind*0x1000193 + uint64(i))
	}
	stores := make([]pfs.Store, cfg.Servers)
	if cfg.Mode == IBridge {
		c.Exchange = core.NewExchange(e, reportPeriod)
	}
	for i := 0; i < cfg.Servers; i++ {
		var tracer iosched.Tracer
		if cfg.Trace {
			col := blktrace.New(fmt.Sprintf("srv%d", i))
			c.Collectors = append(c.Collectors, col)
			tracer = col
		}
		disk := hdd.New(e, hdd.DefaultSpec(), componentRNG(1, i))
		if hddM != nil {
			disk.SetProbe(hddM)
		}
		c.Disks = append(c.Disks, disk)
		diskQ := iosched.New(e, disk, iosched.DiskDefaults(), tracer)
		diskQ.SetMetrics(diskQM)
		c.diskQs = append(c.diskQs, diskQ)
		var sd *ssd.SSD
		if cfg.Mode != Stock {
			sd = ssd.New(ssd.DefaultSpec())
			if ssdM != nil {
				sd.SetProbe(ssdM)
			}
			c.SSDs = append(c.SSDs, sd)
		}
		switch cfg.Mode {
		case Stock:
			stores[i] = pfs.NewQueueStore(diskQ)
		case SSDOnly:
			sq := iosched.New(e, sd, iosched.SSDDefaults(), tracer)
			sq.SetMetrics(ssdQM)
			c.ssdQs = append(c.ssdQs, sq)
			stores[i] = pfs.NewQueueStore(sq)
		case IBridge:
			ssdQ := iosched.New(e, sd, iosched.SSDDefaults(), nil)
			ssdQ.SetMetrics(ssdQM)
			c.ssdQs = append(c.ssdQs, ssdQ)
			b := core.NewBridge(e, cfg.IBridge, i, disk, diskQ, ssdQ, c.Exchange, componentRNG(2, i))
			b.SetObs(bridgeM, tr, run)
			c.Bridges = append(c.Bridges, b)
			stores[i] = b
			if at, ok := cfg.SSDFails[i]; ok {
				e.After(at, func() {
					b.FailSSD(func() {
						if tr != nil {
							// Mirror the injection into the sim trace at
							// the instant the bridge has degraded, so the
							// Chrome timeline shows the failure amid the
							// request spans it degrades.
							tr.Instant(0, 0, "fault.ssdfail", fmt.Sprintf("run%d/srv%d", run, i), time.Unix(0, int64(e.Now())))
						}
					})
				})
			}
		}
	}
	if cfg.Readahead {
		for i := range stores {
			stores[i] = pfs.NewReadaheadStore(stores[i])
		}
	}
	if c.Exchange != nil {
		// The T_i telemetry hook rides the metadata-server broadcast
		// tick: each broadcast snapshots the T vector plus the bridges'
		// cumulative decision counters. Installed before Start so the
		// first tick is observed.
		if ts := cfg.Obs.TiSampler(fmt.Sprintf("run%d-%s", run, cfg.Mode)); ts != nil {
			bridges := c.Bridges
			c.Exchange.SetSampler(func(now sim.Time, view []float64) {
				var snap obs.TiSnapshot
				for _, b := range bridges {
					st := b.Stats()
					snap.BoostedOffloads += st.BoostedOffloads
					snap.PlainOffloads += st.PlainOffloads
					snap.Hits += st.Hits
					snap.Misses += st.Misses
					snap.Evictions += st.Evictions
				}
				ts.Sample(now, view, snap)
			})
		}
		c.Exchange.Start()
	}
	fs, err := pfs.NewFileSystem(e, pfs.Config{
		Layout:   stripe.Layout{Unit: cfg.StripeUnit, Servers: cfg.Servers},
		Net:      pfs.DefaultNet(),
		Handlers: handlers,
	}, stores)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		fs.SetObs(cfg.Obs.PFSMetrics(), tr, run)
	}
	c.FS = fs
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Client returns a client appropriate for the cluster mode: with
// iBridge's fragment flagging when the bridges are present.
func (c *Cluster) Client() *pfs.Client {
	if c.cfg.Mode == IBridge {
		return pfs.NewIBridgeClient(c.FS, c.cfg.FragmentThreshold, c.cfg.RandomThreshold)
	}
	return pfs.NewClient(c.FS)
}

// Workload is the body of one experiment: it runs inside a driver
// process, spawning rank processes as needed, and returns when all
// application I/O has completed.
type Workload func(c *Cluster, p *sim.Proc)

// Result carries the metrics of one run.
type Result struct {
	// Elapsed is application time: start to last rank completion.
	Elapsed sim.Duration
	// FlushTime is the additional time to write dirty cached data back
	// after the program terminated (the paper includes it: "to make
	// our comparison fair and conservative").
	FlushTime sim.Duration
	// Bytes is application bytes moved (both directions).
	Bytes int64
	// Requests and AvgServiceTime are client-observed (Table III).
	Requests       int64
	AvgServiceTime sim.Duration
	// SSDFraction is the fraction of server bytes served at the SSD.
	SSDFraction float64
	// Bridge aggregates iBridge statistics across servers (its
	// PeakUsage is the cluster-wide peak cache occupancy).
	Bridge core.Stats
	// Blocks is the merged block-level dispatch distribution (nil
	// unless Config.Trace).
	Blocks *blktrace.Collector
}

// ThroughputMBps returns application throughput over Elapsed+FlushTime in
// MB/s (decimal, as the paper reports).
func (r Result) ThroughputMBps() float64 {
	total := r.Elapsed + r.FlushTime
	if total <= 0 {
		return 0
	}
	return float64(r.Bytes) / total.Seconds() / 1e6
}

// Run executes w on the cluster and gathers metrics. It may be called
// once per Cluster.
func (c *Cluster) Run(w Workload) (Result, error) {
	var res Result
	c.Engine.Go("driver", func(p *sim.Proc) {
		w(c, p)
		res.Elapsed = sim.Duration(p.Now())
		c.FS.Flush(p)
		res.FlushTime = sim.Duration(p.Now()) - res.Elapsed
		c.Engine.Halt()
	})
	err := c.Engine.Run()
	c.fold()
	if err != nil {
		return res, err
	}
	st := c.FS.Stats()
	res.Bytes = st.TotalBytes()
	res.Requests = st.Requests
	res.AvgServiceTime = st.AvgServiceTime()
	for _, b := range c.Bridges {
		res.Bridge.Add(b.Stats())
	}
	if len(c.Bridges) > 0 {
		res.SSDFraction = res.Bridge.SSDFraction()
	}
	if len(c.Collectors) > 0 {
		merged := blktrace.New("cluster")
		for _, col := range c.Collectors {
			merged.Merge(col)
		}
		res.Blocks = merged
	}
	return res, nil
}

// fold adds the run's counts, which the engine and the components keep
// in their Stats, to the metrics registry (a no-op with metrics off).
// Every name is added, zero or not, so a stock run lists the bridge and
// SSD-queue rows too.
func (c *Cluster) fold() {
	r := c.cfg.Obs.Registry()
	if r == nil {
		return
	}
	add := func(name string, n int64) { r.Counter(name).Add(n) }
	es := c.Engine.Stats()
	add("engine.events", es.Events)
	add("engine.resumes", es.Resumes)
	add("engine.procs_started", es.ProcsStarted)
	// The maximum first, so that the value left is the last event's.
	pending := r.Gauge("engine.pending")
	pending.Set(int64(es.MaxPending))
	pending.Set(int64(es.Pending))
	for _, class := range []struct {
		name   string
		queues []*iosched.Queue
	}{{"iosched.hdd", c.diskQs}, {"iosched.ssd", c.ssdQs}} {
		var qs iosched.Stats
		for _, q := range class.queues {
			st := q.Stats()
			qs.Submitted += st.Submitted
			qs.Dispatches += st.Dispatches
			qs.BackMerges += st.BackMerges
			qs.FrontMerges += st.FrontMerges
		}
		add(class.name+".submitted", qs.Submitted)
		add(class.name+".dispatches", qs.Dispatches)
		add(class.name+".back_merges", qs.BackMerges)
		add(class.name+".front_merges", qs.FrontMerges)
	}
	var bs core.Stats
	for _, b := range c.Bridges {
		bs.Add(b.Stats())
	}
	add("bridge.hits", bs.Hits)
	add("bridge.misses", bs.Misses)
	add("bridge.evictions", bs.Evictions)
	add("bridge.rejections", bs.Rejections)
	add("bridge.offloads_boosted", bs.BoostedOffloads)
	add("bridge.offloads_plain", bs.PlainOffloads)
	fs := c.FS.Stats()
	add("pfs.requests", fs.Requests)
	add("pfs.sub_requests", fs.SubCount)
	add("pfs.fragments", fs.Fragments)
}

// DiskStats aggregates device statistics across all disks.
func (c *Cluster) DiskStats() device.Stats {
	var agg device.Stats
	for _, d := range c.Disks {
		s := d.Stats()
		for op := range agg.Ops {
			agg.Ops[op] += s.Ops[op]
			agg.Bytes[op] += s.Bytes[op]
			agg.SeqOps[op] += s.SeqOps[op]
		}
		agg.BusyTime += s.BusyTime
		agg.SeekTime += s.SeekTime
		agg.Seeks += s.Seeks
	}
	return agg
}
