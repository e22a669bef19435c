package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig2a", fig2a)
	register("fig2b", fig2b)
	register("fig2hist", fig2hist)
}

// fig2procs returns the process-count sweep capped by the scale.
func fig2procs(s Scale) []int {
	all := []int{16, 64, 128, 512}
	var out []int
	for _, p := range all {
		if p <= s.MaxProcs {
			out = append(out, p)
		}
	}
	return out
}

// fig2a reproduces Figure 2(a): stock-system read throughput of
// mpi-io-test with request sizes 64–94 KB (Pattern II) across process
// counts. The procs × sizes grid fans out through the runner; each cell
// is an independent cluster simulation.
func fig2a(s Scale) (*stats.Table, error) {
	sizes := []int64{64 * kb, 65 * kb, 74 * kb, 84 * kb, 94 * kb}
	procs := fig2procs(s)
	t := &stats.Table{
		ID:      "fig2a",
		Title:   "stock read throughput (MB/s) vs request size and process count (Pattern II)",
		Columns: []string{"procs"},
	}
	for _, sz := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dKB", sz/kb))
	}
	cells, err := runner.Map(len(procs)*len(sizes), func(i int) (string, error) {
		_, rep, err := mpiioRun(s, baseConfig(s, cluster.Stock), workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: procs[i/len(sizes)], RequestSize: sizes[i%len(sizes)],
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
		t.AddRow(append([]string{fmt.Sprint(p)}, cells[r*len(sizes):(r+1)*len(sizes)]...)...)
	}
	t.Note("paper (16 procs): 64KB 159.6 MB/s; 65KB 77.4 (-52%%); 74KB 88.1-ish (-45%% at +10KB)")
	t.Note("expected shape: aligned (64KB) column clearly above all unaligned columns at every process count")
	return t, nil
}

// fig2b reproduces Figure 2(b): stock-system read throughput of 64 KB
// requests shifted by an offset (Pattern III).
func fig2b(s Scale) (*stats.Table, error) {
	offsets := []int64{0, 1 * kb, 10 * kb}
	procs := fig2procs(s)
	t := &stats.Table{
		ID:      "fig2b",
		Title:   "stock read throughput (MB/s), 64KB requests vs offset (Pattern III)",
		Columns: []string{"procs"},
	}
	for _, off := range offsets {
		t.Columns = append(t.Columns, fmt.Sprintf("+%dKB", off/kb))
	}
	cells, err := runner.Map(len(procs)*len(offsets), func(i int) (string, error) {
		_, rep, err := mpiioRun(s, baseConfig(s, cluster.Stock), workload.MPIIOTest, workload.MPIIOTestConfig{
			Procs: procs[i/len(offsets)], RequestSize: 64 * kb, Shift: offsets[i%len(offsets)],
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
		t.AddRow(append([]string{fmt.Sprint(p)}, cells[r*len(offsets):(r+1)*len(offsets)]...)...)
	}
	t.Note("paper (512 procs): +1KB -36%%, +10KB -49%% vs aligned")
	t.Note("expected shape: any non-zero offset costs a large fraction of aligned throughput")
	return t, nil
}

// fig2hist reproduces Figures 2(c)–(e): block-level request-size
// distributions for aligned 64 KB, 65 KB, and 64 KB + 10 KB-offset reads
// on the stock system.
func fig2hist(s Scale) (*stats.Table, error) {
	cases := []struct {
		id          string
		size, shift int64
	}{
		{"2c aligned 64KB", 64 * kb, 0},
		{"2d 65KB", 65 * kb, 0},
		{"2e 64KB+10KB", 64 * kb, 10 * kb},
	}
	t := &stats.Table{
		ID:      "fig2hist",
		Title:   "block-level request size distribution (top bins, sectors of 0.5KB)",
		Columns: []string{"case", "bin1", "bin2", "bin3", "mean(sectors)", "frac>=128"},
	}
	rows, err := runner.Map(len(cases), func(i int) ([]string, error) {
		cs := cases[i]
		cfg := baseConfig(s, cluster.Stock)
		cfg.Trace = true
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
			Procs: 16, RequestSize: cs.size, Shift: cs.shift,
			FileBytes: s.MPIIOBytes, Jitter: workload.DefaultJitter,
		}))
		if err != nil {
			return nil, err
		}
		row := []string{cs.id}
		top := res.Blocks.TopSizes(3)
		for j := 0; j < 3; j++ {
			if j < len(top) {
				row = append(row, fmt.Sprintf("%d(%.0f%%)", top[j].Sectors, top[j].Fraction*100))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row,
			fmt.Sprintf("%.0f", res.Blocks.MeanSectors()),
			fmt.Sprintf("%.2f", res.Blocks.FractionAtLeast(128)))
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("paper 2(c): 72%% at 128 sectors, 18%% at 256; 2(d)/(e): much greater fraction of small requests")
	t.Note("expected shape: aligned case dominated by >=128-sector bins; unaligned cases show smaller mean and spread")
	return t, nil
}
