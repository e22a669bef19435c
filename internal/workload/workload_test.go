package workload_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newCluster(t *testing.T, mode cluster.Mode) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.IBridge.SSDCapacity = 256 << 20
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c
}

func TestMPIIOTestCoversFile(t *testing.T) {
	c := newCluster(t, cluster.Stock)
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: 16, RequestSize: 64 * workload.KB, FileBytes: 16 * workload.MB,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Bytes != 16*workload.MB {
		t.Fatalf("accessed %d bytes, want %d", res.Bytes, 16*workload.MB)
	}
	// iters * procs requests issued.
	wantReqs := int64(16 * workload.MB / (64 * workload.KB))
	if res.Requests != wantReqs {
		t.Fatalf("requests = %d, want %d", res.Requests, wantReqs)
	}
}

// TestMPIIOTestBarrierSlowsButCompletes: both strided benchmarks,
// mpi-io-test and ior-mpi-io, honour Barrier.
func TestMPIIOTestBarrierSlowsButCompletes(t *testing.T) {
	for _, b := range []struct {
		name  string
		build func(workload.MPIIOTestConfig) cluster.Workload
	}{{"mpi-io-test", workload.MPIIOTest}, {"ior-mpi-io", workload.IOR}} {
		run := func(barrier bool) cluster.Result {
			c := newCluster(t, cluster.Stock)
			res, err := c.Run(b.build(workload.MPIIOTestConfig{
				Procs: 16, RequestSize: 64 * workload.KB, FileBytes: 8 * workload.MB,
				Barrier: barrier, Jitter: workload.DefaultJitter,
			}))
			if err != nil {
				t.Fatalf("%s: Run: %v", b.name, err)
			}
			return res
		}
		free := run(false)
		synced := run(true)
		if synced.Elapsed < free.Elapsed {
			t.Errorf("%s: barrier run faster (%v) than free run (%v)", b.name, synced.Elapsed, free.Elapsed)
		}
	}
}

func TestMPIIOTestWarmReportWindow(t *testing.T) {
	c := newCluster(t, cluster.IBridge)
	rep := &workload.Report{}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: 16, RequestSize: 65 * workload.KB, FileBytes: 8 * workload.MB,
		Warm: true, Report: rep,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Start <= 0 || rep.End <= rep.Start {
		t.Fatalf("report window [%v,%v] not inside run", rep.Start, rep.End)
	}
	if rep.Elapsed() >= res.Elapsed {
		t.Fatalf("measured window %v not smaller than whole run %v", rep.Elapsed(), res.Elapsed)
	}
	// Two passes: total client bytes are double the per-pass bytes.
	if res.Bytes != 2*rep.Bytes {
		t.Fatalf("total bytes %d, measured-pass bytes %d", res.Bytes, rep.Bytes)
	}
}

func TestIORAccessesDisjointChunks(t *testing.T) {
	c := newCluster(t, cluster.Stock)
	res, err := c.Run(workload.IOR(workload.MPIIOTestConfig{
		Procs: 8, RequestSize: 64 * workload.KB, FileBytes: 8 * workload.MB,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Bytes != 8*workload.MB {
		t.Fatalf("accessed %d bytes", res.Bytes)
	}
}

// TestIORAppliesShift: ior-mpi-io displaces its requests by Shift as
// mpi-io-test does, so 64 KB requests at +10 KB leave a fragment each
// while aligned ones leave none.
func TestIORAppliesShift(t *testing.T) {
	fragments := func(shift int64) int64 {
		c := newCluster(t, cluster.IBridge)
		res, err := c.Run(workload.IOR(workload.MPIIOTestConfig{
			Procs: 8, RequestSize: 64 * workload.KB, Shift: shift, FileBytes: 8 * workload.MB, Write: true,
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Bytes != 8*workload.MB {
			t.Fatalf("shift %d: accessed %d bytes", shift, res.Bytes)
		}
		return c.FS.Stats().Fragments
	}
	if n := fragments(0); n != 0 {
		t.Errorf("aligned ior-mpi-io made %d fragments", n)
	}
	if n := fragments(10 * workload.KB); n != 8*workload.MB/(64*workload.KB) {
		t.Errorf("+10 KB ior-mpi-io made %d fragments, want one per request", n)
	}
}

func TestBTIORecordSize(t *testing.T) {
	cases := map[int]int64{9: 2160, 16: 1620, 64: 810, 100: 648}
	for procs, want := range cases {
		if got := workload.RecordSize(procs); got != want {
			t.Errorf("RecordSize(%d) = %d, want %d", procs, got, want)
		}
	}
}

func TestBTIOTimingSplit(t *testing.T) {
	c := newCluster(t, cluster.Stock)
	var bt workload.BTIOResult
	_, err := c.Run(workload.BTIO(workload.BTIOConfig{
		Procs: 9, DataBytes: 8 * workload.MB, Steps: 3,
		ComputePerStep: 100 * sim.Millisecond,
	}, &bt))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bt.IOTime <= 0 {
		t.Fatal("no I/O time recorded")
	}
	compute := 3 * 100 * sim.Millisecond
	if bt.TotalTime < bt.IOTime+compute {
		t.Fatalf("total %v < io %v + compute %v", bt.TotalTime, bt.IOTime, compute)
	}
}

func TestBTIOAllWritesAbsorbedByIBridge(t *testing.T) {
	c := newCluster(t, cluster.IBridge)
	var bt workload.BTIOResult
	res, err := c.Run(workload.BTIO(workload.BTIOConfig{
		Procs: 16, DataBytes: 8 * workload.MB, Steps: 3,
		ComputePerStep: 50 * sim.Millisecond,
	}, &bt))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SSDFraction < 0.95 {
		t.Fatalf("SSD fraction = %.2f; the paper notes all BTIO writes are served by the SSDs", res.SSDFraction)
	}
}

func TestReplayIssuesAllRecords(t *testing.T) {
	tr := trace.Generate(trace.Workloads(200, 64*workload.MB, 7)[0])
	c := newCluster(t, cluster.Stock)
	res, err := c.Run(workload.Replay(tr, 64*workload.MB))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 200 {
		t.Fatalf("replayed %d requests, want 200", res.Requests)
	}
}

func TestCombineRunsBothToCompletion(t *testing.T) {
	c := newCluster(t, cluster.Stock)
	repA := &workload.Report{}
	repB := &workload.Report{}
	a := workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: 4, RequestSize: 64 * workload.KB, FileBytes: 4 * workload.MB, Report: repA,
	})
	b := workload.IOR(workload.MPIIOTestConfig{
		Procs: 4, RequestSize: 64 * workload.KB, FileBytes: 4 * workload.MB, Report: repB,
	})
	if _, err := c.Run(workload.Combine(a, b)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if repA.Bytes != 4*workload.MB || repB.Bytes != 4*workload.MB {
		t.Fatalf("bytes: %d, %d", repA.Bytes, repB.Bytes)
	}
}

func TestFig3FragmentCostsThroughput(t *testing.T) {
	run := func(fragment bool) float64 {
		c := newCluster(t, cluster.Stock)
		res, err := c.Run(workload.Fig3(workload.Fig3Config{
			Procs: 16, K: 2, Fragment: fragment, Iters: 6,
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.ThroughputMBps()
	}
	noFrag, frag := run(false), run(true)
	if frag >= noFrag {
		t.Fatalf("fragments did not cost throughput: %.1f vs %.1f MB/s", frag, noFrag)
	}
}

func TestReportThroughput(t *testing.T) {
	rep := &workload.Report{Start: 0, End: sim.Time(sim.Second), Bytes: 100e6}
	if got := rep.ThroughputMBps(); got != 100 {
		t.Fatalf("ThroughputMBps = %v", got)
	}
	empty := &workload.Report{}
	if empty.ThroughputMBps() != 0 {
		t.Fatal("empty report throughput not 0")
	}
}
