package workload_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/mpiio"
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

// btioRanks runs BTIO's rank programs, each with a mark at its end, and
// reports each rank's completion instant (its last mark) and rank 0's
// I/O time.
func btioRanks(cfg workload.BTIOConfig, finished []sim.Time, ioTime *sim.Duration) cluster.Workload {
	return func(c *cluster.Cluster, done func()) {
		f, err := c.FS.Create("btio", cfg.DataBytes+64*workload.KB)
		if err != nil {
			panic(err)
		}
		progs := workload.BTIOPrograms(cfg)
		for i := range progs {
			progs[i] = append(progs[i], mpiio.Step{Kind: mpiio.Mark})
		}
		var marks []sim.Time
		zero := workload.RankZeroMarks(c.Engine, &marks)
		mpiio.NewWorld(c.Engine, c.Client(), f, cfg.Procs).Run(progs, func(rank int) {
			zero(rank)
			finished[rank] = c.Engine.Now()
		}, func() {
			*ioTime = workload.MarkedTime(marks[:len(marks)-1])
			done()
		})
	}
}

// btioReference is BTIO's rank body as it ran before its ranks became
// programs: a process per rank, on a client tagged with the rank's
// origin, issuing each record by Proc.Call. It is done from an event of
// its own after the last rank returns, as a World is.
func btioReference(cfg workload.BTIOConfig, finished []sim.Time, ioTime *sim.Duration) cluster.Workload {
	return func(c *cluster.Cluster, done func()) {
		f, err := c.FS.Create("btio", cfg.DataBytes+64*workload.KB)
		if err != nil {
			panic(err)
		}
		rec := workload.RecordSize(cfg.Procs)
		perStep := cfg.DataBytes / int64(cfg.Steps)
		recsPerRank := max(perStep/int64(cfg.Procs)/rec, 1)
		barrier := sim.NewBarrier(c.Engine, cfg.Procs)
		left := cfg.Procs
		for id := 0; id < cfg.Procs; id++ {
			client := c.Client().WithOrigin(int32(id + 1))
			c.Engine.Go("btio", func(rp *sim.Proc) {
				for step := 0; step < cfg.Steps; step++ {
					rp.Sleep(cfg.ComputePerStep)
					barrier.Wait(rp)
					ioStart := rp.Now()
					base := int64(step) * perStep
					for j := int64(0); j < recsPerRank; j++ {
						off := base + (j*int64(cfg.Procs)+int64(id))*rec
						rp.Call(func(done func()) { client.Start(f, device.Write, off, rec, done) })
					}
					barrier.Wait(rp)
					if id == 0 {
						*ioTime += rp.Now().Sub(ioStart)
					}
				}
				finished[id] = rp.Now()
				if left--; left == 0 {
					c.Engine.After(0, done)
				}
			})
		}
	}
}

// TestBTIOProgramMatchesProcessRanks holds BTIO's rank programs to the
// process body they replaced, at smoke scale on both systems and on the
// golden digests' BTIO configuration (medium scale, an SSD an eighth of
// the data): every rank finishes at the same instant, rank 0's I/O time,
// the client's statistics and the disks' agree.
func TestBTIOProgramMatchesProcessRanks(t *testing.T) {
	type run struct {
		finished []sim.Time
		ioTime   sim.Duration
		res      cluster.Result
		disks    device.Stats
	}
	cases := []struct {
		name string
		mode cluster.Mode
		ssd  int64
		cfg  workload.BTIOConfig
	}{
		{"smoke/stock", cluster.Stock, 0, workload.BTIOConfig{Procs: 16, DataBytes: 24 * workload.MB, Steps: 4, ComputePerStep: 9 * sim.Second / 4}},
		{"smoke/ibridge", cluster.IBridge, 512 * workload.MB, workload.BTIOConfig{Procs: 16, DataBytes: 24 * workload.MB, Steps: 4, ComputePerStep: 9 * sim.Second / 4}},
		{"golden", cluster.IBridge, 128 * workload.MB / 8, workload.BTIOConfig{Procs: 64, DataBytes: 128 * workload.MB, Steps: 8, ComputePerStep: 48 * sim.Second / 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(build func(workload.BTIOConfig, []sim.Time, *sim.Duration) cluster.Workload) run {
				cfg := cluster.DefaultConfig()
				cfg.Mode = tc.mode
				cfg.IBridge.SSDCapacity = tc.ssd
				c, err := cluster.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := run{finished: make([]sim.Time, tc.cfg.Procs)}
				if r.res, err = c.Run(build(tc.cfg, r.finished, &r.ioTime)); err != nil {
					t.Fatal(err)
				}
				r.disks = c.DiskStats()
				return r
			}
			want, got := exec(btioReference), exec(btioRanks)
			if !slices.Equal(got.finished, want.finished) {
				t.Errorf("ranks finished at %v, reference %v", got.finished, want.finished)
			}
			if got.ioTime != want.ioTime || got.disks != want.disks {
				t.Errorf("I/O time %v, disks %+v; reference %v, %+v", got.ioTime, got.disks, want.ioTime, want.disks)
			}
			if got.res.Elapsed != want.res.Elapsed || got.res.FlushTime != want.res.FlushTime ||
				got.res.Requests != want.res.Requests || got.res.AvgServiceTime != want.res.AvgServiceTime ||
				got.res.Bridge != want.res.Bridge {
				t.Errorf("result %+v, reference %+v", got.res, want.res)
			}
		})
	}
}
