package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig12", fig12)
	register("fig13", fig13)
}

// fig12 reproduces Figure 12: heterogeneous workloads. mpi-io-test
// (65 KB writes — fragments) runs concurrently with BTIO (tiny writes —
// regular random requests). The SSD partitioning is either static (1:1 or
// 1:2 random:fragment) or iBridge's dynamic return-proportional split.
// The config × seed grid (every seed of every partition scheme is an
// independent cluster) fans out through the runner; times are averaged
// per config afterwards.
func fig12(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "fig12",
		Title:   "heterogeneous mpi-io-test + BTIO throughput (MB/s)",
		Columns: []string{"config", "mpi-io-test", "BTIO", "aggregate"},
	}
	type partition struct {
		name      string
		mode      cluster.Mode
		dynamic   bool
		fragShare float64
	}
	configs := []partition{
		{"stock (no SSD)", cluster.Stock, false, 0},
		{"static 1:1", cluster.IBridge, false, 0.5},
		{"static 1:2", cluster.IBridge, false, 2.0 / 3.0},
		{"dynamic", cluster.IBridge, true, 0},
	}
	// The paper sizes the SSD (8 GB against 10+6.8 GB of data) below
	// the combined candidate working set so that partitioning matters:
	// roughly half of (mpi-io-test fragments ≈ 10% of its data) plus
	// BTIO's dirty set, split across the servers.
	ssdPerServer := (s.MPIIOBytes/10 + s.BTIOBytes) / 8 / 2
	// Average *times* over seeds (rate averages let one fast outlier run
	// dominate): the partition effect (paper: 5–13%) is of the same order
	// as run-to-run variation.
	const seeds = 5
	type point struct {
		mpiTime, btioTime float64
	}
	pts, err := runner.Map(len(configs)*seeds, func(i int) (point, error) {
		pc := configs[i/seeds]
		seed := uint64(i%seeds) + 1
		cfg := baseConfig(s, pc.mode)
		cfg.IBridge.SSDCapacity = ssdPerServer
		cfg.IBridge.DynamicPartition = pc.dynamic
		if !pc.dynamic {
			cfg.IBridge.StaticFragShare = pc.fragShare
		}
		cfg.Seed = seed
		c, err := cluster.New(cfg)
		if err != nil {
			return point{}, err
		}
		mpiRep := &workload.Report{}
		var bt workload.BTIOResult
		mpi := workload.MPIIOTest(workload.MPIIOTestConfig{
			Procs: 64, RequestSize: 65 * kb, Write: true,
			FileBytes: s.MPIIOBytes, Jitter: workload.DefaultJitter,
			Seed: seed, Report: mpiRep,
		})
		btio := workload.BTIO(workload.BTIOConfig{
			Procs: 64, DataBytes: s.BTIOBytes, Steps: s.BTIOSteps,
			ComputePerStep: s.BTIOCompute / sim64(s.BTIOSteps),
		}, &bt)
		if _, err := c.Run(workload.Combine(mpi, btio)); err != nil {
			return point{}, err
		}
		return point{mpiTime: mpiRep.Elapsed().Seconds(), btioTime: bt.IOTime.Seconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, pc := range configs {
		var mpiTime, btioTime float64
		for _, p := range pts[ci*seeds : (ci+1)*seeds] {
			mpiTime += p.mpiTime
			btioTime += p.btioTime
		}
		mpiT := float64(s.MPIIOBytes/(65*kb)/64*64*65*kb) / (mpiTime / seeds) / 1e6
		// BTIO's I/O throughput over its I/O phases (compute time is
		// not I/O throughput).
		btioT := float64(s.BTIOBytes) / (btioTime / seeds) / 1e6
		t.AddRow(pc.name, mbps(mpiT), mbps(btioT), mbps(mpiT+btioT))
	}
	t.Note("paper: dynamic partitioning beats static 1:1 by 13%% and 1:2 by 5%% in aggregate; iBridge aggregate is 53%% above stock")
	t.Note("expected shape: stock < static 1:1 <= static 1:2 <= dynamic in aggregate throughput")
	return t, nil
}

// fig13 reproduces Figure 13: the request-size threshold sweep for
// mpi-io-test with 65 KB writes. Throughput is normalized to the aligned
// 64 KB run; SSD usage is normalized to the total data accessed. The
// aligned reference is data point 0 of the grid; the threshold sweep
// follows.
func fig13(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "fig13",
		Title:   "threshold sweep: 65KB mpi-io-test (64 procs, writes)",
		Columns: []string{"threshold", "throughput MB/s", "normalized", "SSD usage / data"},
	}
	thresholds := []int64{10 * kb, 20 * kb, 30 * kb, 40 * kb}
	type point struct {
		mbps  float64
		usage float64
	}
	pts, err := runner.Map(1+len(thresholds), func(i int) (point, error) {
		if i == 0 {
			// Aligned reference.
			_, rep, err := mpiioRun(s, baseConfig(s, cluster.Stock), workload.MPIIOTest, workload.MPIIOTestConfig{
				Procs: 64, RequestSize: 64 * kb, Write: true,
			})
			if err != nil {
				return point{}, err
			}
			return point{mbps: rep.ThroughputMBps()}, nil
		}
		th := thresholds[i-1]
		cfg := baseConfig(s, cluster.IBridge)
		cfg.FragmentThreshold = th
		cfg.RandomThreshold = th
		res, rep, err := mpiioRun(s, cfg, workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: 65 * kb, Write: true,
		})
		if err != nil {
			return point{}, err
		}
		return point{mbps: rep.ThroughputMBps(), usage: float64(res.Bridge.PeakUsage) / float64(res.Bytes)}, nil
	})
	if err != nil {
		return nil, err
	}
	aligned := pts[0].mbps
	for i, th := range thresholds {
		p := pts[i+1]
		t.AddRow(
			fmt.Sprintf("%dKB", th/kb),
			mbps(p.mbps),
			fmt.Sprintf("%.2f", p.mbps/aligned),
			fmt.Sprintf("%.1f%%", p.usage*100),
		)
	}
	t.Note("aligned 64KB reference: %.1f MB/s (paper: 164 MB/s)", aligned)
	t.Note("paper: 40KB threshold gives +56%% throughput over 10KB but SSD usage grows 3%%→42%%; 20KB chosen as the balance")
	t.Note("expected shape: throughput and SSD usage both increase monotonically with the threshold")
	return t, nil
}

// sim64 converts a product to sim.Duration divisor-friendly form.
func sim64(n int) sim.Duration { return sim.Duration(n) }
