package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpiio"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig4", fig4)
	register("fig5", fig5)
	register("fig6", fig6)
	register("fig7", fig7)
}

// fig4Case is one bar group of Figure 4: a request size or offset.
type fig4Case struct {
	name        string
	size, shift int64
}

func fig4Cases() []fig4Case {
	return []fig4Case{
		{"33KB", 33 * kb, 0},
		{"65KB", 65 * kb, 0},
		{"129KB", 129 * kb, 0},
		{"+0KB", 64 * kb, 0},
		{"+1KB", 64 * kb, 1 * kb},
		{"+10KB", 64 * kb, 10 * kb},
	}
}

// fig4 reproduces Figures 4(a) and 4(b): mpi-io-test throughput with
// stock vs iBridge for unaligned sizes and offsets, 64 processes. Reads
// run warmed (the paper's read benefit relies on fragments cached by a
// prior run; Section II-B). The cases × {write,read} × {stock,iBridge}
// grid is 24 independent simulations.
func fig4(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "fig4",
		Title:   "mpi-io-test throughput (MB/s), 64 procs: stock vs iBridge",
		Columns: []string{"case", "write stock", "write iBridge", "Δ", "read stock", "read iBridge", "Δ", "SSD frac"},
	}
	cases := fig4Cases()
	modes := []cluster.Mode{cluster.Stock, cluster.IBridge}
	type point struct {
		mbps float64
		frac float64 // SSDFraction, meaningful for iBridge write points
	}
	// Grid layout: case-major, then write/read, then stock/iBridge.
	pts, err := runner.Map(len(cases)*4, func(i int) (point, error) {
		cs := cases[i/4]
		write := (i/2)%2 == 0
		mode := modes[i%2]
		res, rep, err := mpiioRun(s, baseConfig(s, mode), workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: cs.size, Shift: cs.shift,
			Write: write, Warm: !write, // reads are warmed
		})
		if err != nil {
			return point{}, err
		}
		return point{mbps: rep.ThroughputMBps(), frac: res.SSDFraction}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cs := range cases {
		p := pts[ci*4 : (ci+1)*4]
		t.AddRow(cs.name,
			mbps(p[0].mbps), mbps(p[1].mbps), stats.Speedup(p[0].mbps, p[1].mbps),
			mbps(p[2].mbps), mbps(p[3].mbps), stats.Speedup(p[2].mbps, p[3].mbps),
			fmt.Sprintf("%.0f%%", p[1].frac*100))
	}
	t.Note("paper writes: +105%%/+183%%/+171%% for 33/65/129KB; SSD-served bytes 19%%/10%%/4%%")
	t.Note("paper: at +0KB iBridge equals stock; with offsets iBridge changes little while stock collapses")
	t.Note("expected shape: iBridge above stock in every unaligned case, equal at +0KB; SSD fraction falls as size grows")
	return t, nil
}

// fig5 reproduces Figure 5: block-level request-size distribution of
// 64 KB + 10 KB-offset reads when iBridge is enabled, with the SSD warmed
// by a prior pass (compare fig2hist's case 2e). A single simulation, run
// through the harness so its host-CPU slot is accounted like any other
// data point.
func fig5(s Scale) (*stats.Table, error) {
	results, err := runner.Map(1, func(int) (cluster.Result, error) {
		res, _, err := fig5Run(s, false)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	t := &stats.Table{
		ID:      "fig5",
		Title:   "block-level request sizes, 64KB+10KB reads WITH iBridge (warmed)",
		Columns: []string{"bin", "sectors", "fraction"},
	}
	for i, sc := range res.Blocks.TopSizes(5) {
		t.AddRow(fmt.Sprint(i+1), fmt.Sprint(sc.Sectors), fmt.Sprintf("%.1f%%", sc.Fraction*100))
	}
	t.AddRow("mean", fmt.Sprintf("%.0f", res.Blocks.MeanSectors()), "")
	t.Note("paper: 128- and 256-sector requests predominate, in contrast to Figure 2(e)")
	t.Note("expected shape: mean dispatch size well above the stock 2e case (fragments absorbed by SSD)")
	return t, nil
}

// fig5Run runs Figure 5's workload on a warmed iBridge cluster with
// blktrace collectors, with or without server readahead: 64 ranks read
// 64 KB at a +10 KB offset in mpi-io-test's loop, and the collectors are
// reset as the measured pass begins, so that they count only its
// requests. The report is the measured pass.
func fig5Run(s Scale, readahead bool) (cluster.Result, workload.Report, error) {
	var rep workload.Report
	cfg := baseConfig(s, cluster.IBridge)
	cfg.Trace = true
	cfg.Readahead = readahead
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Result{}, rep, err
	}
	iters := s.MPIIOBytes / (64 * 64 * kb)
	res, err := c.Run(func(cl *cluster.Cluster, p *sim.Proc) {
		f, err := cl.FS.Create("fig5", s.MPIIOBytes+16*kb)
		if err != nil {
			panic(err)
		}
		mpiio.NewWorld(cl.Engine, cl.Client(), f, 64).Strided(mpiio.Strided{
			Iters: iters, Length: 64 * kb,
			Offset: func(rank int, k int64) int64 { return k*64*64*kb + int64(rank)*64*kb + 10*kb },
			Jitter: workload.DefaultJitter, Think: sim.NewRNG(3),
			WarmIdle: 5 * sim.Second,
			Measured: func() {
				for _, col := range cl.Collectors {
					col.Reset()
				}
				rep.Start = cl.Engine.Now()
			},
		}).Wait(p)
		rep.End = p.Now()
		rep.Bytes = iters * 64 * 64 * kb
	})
	return res, rep, err
}

// fig6 reproduces Figure 6: throughput scaling with process count for
// 65 KB requests, stock vs iBridge, reads and writes.
func fig6(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "fig6",
		Title:   "65KB mpi-io-test throughput (MB/s) vs process count",
		Columns: []string{"procs", "write stock", "write iBridge", "read stock", "read iBridge"},
	}
	procs := fig2procs(s)
	modes := []cluster.Mode{cluster.Stock, cluster.IBridge}
	// Grid layout: procs-major, then write/read, then stock/iBridge.
	cells, err := runner.Map(len(procs)*4, func(i int) (string, error) {
		write := (i/2)%2 == 0
		_, rep, err := mpiioRun(s, baseConfig(s, modes[i%2]), workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: procs[i/4], RequestSize: 65 * kb, Write: write, Warm: !write,
		})
		if err != nil {
			return "", err
		}
		return mbps(rep.ThroughputMBps()), nil
	})
	if err != nil {
		return nil, err
	}
	for r, p := range procs {
		t.AddRow(append([]string{fmt.Sprint(p)}, cells[r*4:(r+1)*4]...)...)
	}
	t.Note("paper: iBridge improves throughput by 154%% on average across process counts; ~10%% of data served by SSDs")
	t.Note("expected shape: iBridge above stock at every process count for both directions")
	return t, nil
}

// fig7 reproduces Figures 7(a)/(b): scaling with the number of data
// servers, 64 processes: aligned 64 KB stock as the reference, 65 KB
// stock, and 65 KB iBridge.
func fig7(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "fig7",
		Title:   "throughput (MB/s) vs data server count (64 procs)",
		Columns: []string{"servers", "op", "64KB stock", "65KB stock", "65KB iBridge"},
	}
	serverCounts := []int{2, 4, 6, 8}
	type cfgCase struct {
		mode cluster.Mode
		size int64
	}
	cfgCases := []cfgCase{
		{cluster.Stock, 64 * kb}, {cluster.Stock, 65 * kb}, {cluster.IBridge, 65 * kb},
	}
	// Grid layout: servers-major, then write/read, then the three configs.
	cells, err := runner.Map(len(serverCounts)*2*len(cfgCases), func(i int) (string, error) {
		cc := cfgCases[i%len(cfgCases)]
		write := (i/len(cfgCases))%2 == 0
		cfg := baseConfig(s, cc.mode)
		cfg.Servers = serverCounts[i/(2*len(cfgCases))]
		_, rep, err := mpiioRun(s, cfg, workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: cc.size, Write: write,
			Warm: !write && cc.mode == cluster.IBridge,
		})
		if err != nil {
			return "", err
		}
		return mbps(rep.ThroughputMBps()), nil
	})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, servers := range serverCounts {
		for _, op := range []string{"write", "read"} {
			t.AddRow(append([]string{fmt.Sprint(servers), op}, cells[i:i+len(cfgCases)]...)...)
			i += len(cfgCases)
		}
	}
	t.Note("paper: throughput grows with server count in all cases; the 64-vs-65KB stock gap grows with servers and iBridge nearly closes it")
	t.Note("expected shape: every column increases with servers; iBridge column between the two stock columns, closer to aligned")
	return t, nil
}
