package cluster_test

import (
	"testing"

	. "repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runMPIIO builds a cluster and runs one mpi-io-test configuration.
func runMPIIO(t *testing.T, mode Mode, reqSize, shift int64, write bool, procs int) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.IBridge.SSDCapacity = 2 << 30
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs:       procs,
		RequestSize: reqSize,
		Shift:       shift,
		FileBytes:   256 * workload.MB,
		Write:       write,
		Jitter:      workload.DefaultJitter,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestAlignedBeatsUnalignedStock(t *testing.T) {
	aligned := runMPIIO(t, Stock, 64*workload.KB, 0, false, 16)
	unaligned := runMPIIO(t, Stock, 65*workload.KB, 0, false, 16)
	ta, tu := aligned.ThroughputMBps(), unaligned.ThroughputMBps()
	t.Logf("aligned %.1f MB/s, unaligned %.1f MB/s", ta, tu)
	if tu > 0.8*ta {
		t.Fatalf("unaligned %.1f MB/s not clearly below aligned %.1f MB/s", tu, ta)
	}
}

func TestColdIBridgeReadsMatchStock(t *testing.T) {
	// Without a prior run to populate the SSD, read misses go to the
	// disk exactly as in the stock system (Section II-B: "iBridge
	// cannot help with I/O efficiency of read requests if the
	// requested data have not yet been cached").
	stock := runMPIIO(t, Stock, 65*workload.KB, 0, false, 64)
	ib := runMPIIO(t, IBridge, 65*workload.KB, 0, false, 64)
	ts, ti := stock.ThroughputMBps(), ib.ThroughputMBps()
	if ti < 0.9*ts || ti > 1.1*ts {
		t.Fatalf("cold iBridge reads %.1f MB/s deviate from stock %.1f MB/s", ti, ts)
	}
}

// runWarmRead measures the second pass of a warmed read run.
func runWarmRead(t *testing.T, mode Mode, reqSize, shift int64) *workload.Report {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.IBridge.SSDCapacity = 2 << 30
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := &workload.Report{}
	if _, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs:       64,
		RequestSize: reqSize,
		Shift:       shift,
		FileBytes:   128 * workload.MB,
		Jitter:      workload.DefaultJitter,
		Warm:        true,
		Report:      rep,
	})); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestWarmIBridgeReadsBeatStock(t *testing.T) {
	// The +10KB-offset pattern: every parent has a 10KB fragment that
	// a prior run staged into the SSD.
	stock := runWarmRead(t, Stock, 64*workload.KB, 10*workload.KB)
	ib := runWarmRead(t, IBridge, 64*workload.KB, 10*workload.KB)
	ts, ti := stock.ThroughputMBps(), ib.ThroughputMBps()
	t.Logf("warm +10KB reads: stock %.1f MB/s, ibridge %.1f MB/s", ts, ti)
	if ti <= 1.15*ts {
		t.Fatalf("warm iBridge reads %.1f MB/s not clearly above stock %.1f MB/s", ti, ts)
	}
}

func TestIBridgeClosesGapForWrites(t *testing.T) {
	// The +10KB-offset pattern: every parent carries a 10KB fragment,
	// the configuration where iBridge's write-side benefit is largest.
	stock := runMPIIO(t, Stock, 64*workload.KB, 10*workload.KB, true, 64)
	ib := runMPIIO(t, IBridge, 64*workload.KB, 10*workload.KB, true, 64)
	ts, ti := stock.ThroughputMBps(), ib.ThroughputMBps()
	t.Logf("stock %.1f MB/s, ibridge %.1f MB/s (ssd frac %.2f)", ts, ti, ib.SSDFraction)
	if ti <= 1.2*ts {
		t.Fatalf("iBridge writes %.1f MB/s not clearly above stock %.1f MB/s", ti, ts)
	}
	// The 65KB case must still not regress.
	stock65 := runMPIIO(t, Stock, 65*workload.KB, 0, true, 64)
	ib65 := runMPIIO(t, IBridge, 65*workload.KB, 0, true, 64)
	if ib65.ThroughputMBps() < stock65.ThroughputMBps() {
		t.Fatalf("iBridge 65KB writes regressed: %.1f vs %.1f MB/s",
			ib65.ThroughputMBps(), stock65.ThroughputMBps())
	}
}

func TestIBridgeNeutralOnAligned(t *testing.T) {
	stock := runMPIIO(t, Stock, 64*workload.KB, 0, false, 64)
	ib := runMPIIO(t, IBridge, 64*workload.KB, 0, false, 64)
	ts, ti := stock.ThroughputMBps(), ib.ThroughputMBps()
	t.Logf("stock %.1f MB/s, ibridge %.1f MB/s", ts, ti)
	if ib.SSDFraction > 0.01 {
		t.Fatalf("iBridge redirected %.1f%% of aligned traffic", ib.SSDFraction*100)
	}
	if ti < 0.9*ts || ti > 1.1*ts {
		t.Fatalf("iBridge changed aligned throughput: %.1f vs %.1f MB/s", ti, ts)
	}
}

func TestDeterministicResults(t *testing.T) {
	a := runMPIIO(t, IBridge, 65*workload.KB, 0, true, 16)
	b := runMPIIO(t, IBridge, 65*workload.KB, 0, true, 16)
	if a.Elapsed != b.Elapsed || a.Bytes != b.Bytes {
		t.Fatalf("runs differ: %v/%d vs %v/%d", a.Elapsed, a.Bytes, b.Elapsed, b.Bytes)
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: 16, RequestSize: 64 * workload.KB, FileBytes: 64 * workload.MB,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Blocks == nil || res.Blocks.Requests() == 0 {
		t.Fatal("no block trace collected")
	}
}

func TestOffsetShiftHurtsStock(t *testing.T) {
	base := runMPIIO(t, Stock, 64*workload.KB, 0, false, 64)
	shifted := runMPIIO(t, Stock, 64*workload.KB, 10*workload.KB, false, 64)
	tb, ts := base.ThroughputMBps(), shifted.ThroughputMBps()
	t.Logf("no shift %.1f MB/s, 10KB shift %.1f MB/s", tb, ts)
	if ts > 0.85*tb {
		t.Fatalf("10KB shift %.1f MB/s not clearly below aligned %.1f MB/s", ts, tb)
	}
}

func TestSSDOnlyMode(t *testing.T) {
	res := runMPIIO(t, SSDOnly, 65*workload.KB, 0, true, 16)
	if res.ThroughputMBps() <= 0 {
		t.Fatal("SSD-only produced no throughput")
	}
}

func TestFlushTimeCountedForIBridgeWrites(t *testing.T) {
	res := runMPIIO(t, IBridge, 65*workload.KB, 0, true, 16)
	// Dirty fragments must be written back; flush may be quick if idle
	// writeback already drained them, but the field must be sane.
	if res.FlushTime < 0 {
		t.Fatalf("negative flush time %v", res.FlushTime)
	}
	if res.Bridge.WritebackBytes == 0 {
		t.Fatal("no writeback happened at all")
	}
}

func TestResultMetricsSane(t *testing.T) {
	res := runMPIIO(t, IBridge, 65*workload.KB, 0, true, 16)
	if res.Bytes != 256*workload.MB/(65*workload.KB)/16*16*65*workload.KB {
		// iters = FileBytes/(procs*size), each proc iters requests.
		t.Logf("bytes = %d", res.Bytes)
	}
	if res.Requests == 0 || res.AvgServiceTime <= 0 {
		t.Fatalf("requests %d, avg service %v", res.Requests, res.AvgServiceTime)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"zero stripe unit", func(c *Config) { c.StripeUnit = 0 }},
		{"negative stripe unit", func(c *Config) { c.StripeUnit = -5 }},
	} {
		cfg := DefaultConfig()
		tc.bad(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: cluster accepted", tc.name)
		}
	}
}

// TestSSDFailsSchedule: an SSDFails entry fails exactly the named
// server's SSD at its virtual time, and the run still completes.
func TestSSDFailsSchedule(t *testing.T) {
	run := func(fails map[int]sim.Duration) (*Cluster, Result) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Servers = 2
		cfg.Mode = IBridge
		cfg.SSDFails = fails
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
			Procs:       8,
			RequestSize: 33 * workload.KB,
			FileBytes:   16 * workload.MB,
			Write:       true,
			Jitter:      workload.DefaultJitter,
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return c, res
	}
	_, healthy := run(nil)
	if healthy.Bridge.SSDFailures != 0 {
		t.Fatalf("healthy run: %d SSD failures", healthy.Bridge.SSDFailures)
	}
	c, res := run(map[int]sim.Duration{1: healthy.Elapsed / 2})
	if c.Bridges[0].SSDFailed() || !c.Bridges[1].SSDFailed() {
		t.Fatalf("SSDFailed = %v, %v; want false, true", c.Bridges[0].SSDFailed(), c.Bridges[1].SSDFailed())
	}
	if res.Bridge.SSDFailures != 1 {
		t.Fatalf("SSDFailures = %d, want 1", res.Bridge.SSDFailures)
	}
}

// TestSSDFailsRejected: an SSD failure the cluster cannot apply is a
// configuration error, not a no-op.
func TestSSDFailsRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		fails map[int]sim.Duration
	}{
		{"index past the servers", IBridge, map[int]sim.Duration{2: sim.Millisecond}},
		{"negative index", IBridge, map[int]sim.Duration{-1: sim.Millisecond}},
		{"zero time", IBridge, map[int]sim.Duration{0: 0}},
		{"negative time", IBridge, map[int]sim.Duration{1: -sim.Millisecond}},
		{"stock mode", Stock, map[int]sim.Duration{0: sim.Millisecond}},
		{"ssd-only mode", SSDOnly, map[int]sim.Duration{0: sim.Millisecond}},
	} {
		cfg := DefaultConfig()
		cfg.Servers = 2
		cfg.Mode = tc.mode
		cfg.SSDFails = tc.fails
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: %v accepted in %s mode", tc.name, tc.fails, tc.mode)
		}
	}
}

func TestBTIOWorkloadRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = IBridge
	cfg.IBridge.SSDCapacity = 1 << 30
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var btres workload.BTIOResult
	_, err = c.Run(workload.BTIO(workload.BTIOConfig{
		Procs:          9,
		DataBytes:      32 * workload.MB,
		Steps:          4,
		ComputePerStep: 10 * sim.Millisecond,
	}, &btres))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if btres.IOTime <= 0 || btres.TotalTime <= btres.IOTime {
		t.Fatalf("BTIO timing: io %v, total %v", btres.IOTime, btres.TotalTime)
	}
}
