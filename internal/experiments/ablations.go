package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("ablation-magnification", ablationMagnification)
	register("ablation-partition", ablationPartition)
	register("ablation-ewma", ablationEWMA)
	register("ablation-ssdlog", ablationSSDLog)
	register("ablation-writeback", ablationWriteback)
}

// ablationMagnification (A1): the Eq. (3) striping-magnification boost on
// vs off under the fragment-heavy +10KB-offset write workload.
func ablationMagnification(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ablation-magnification",
		Title:   "A1: Eq.(3) magnification term on/off (+10KB offset writes, 64 procs)",
		Columns: []string{"config", "throughput MB/s", "fragment admissions"},
	}
	variants := []bool{true, false}
	rows, err := runner.Map(len(variants), func(i int) ([]string, error) {
		on := variants[i]
		cfg := baseConfig(s, cluster.IBridge)
		cfg.IBridge.Magnification = on
		res, rep, err := mpiioRun(s, cfg, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: 64 * kb, Shift: 10 * kb, Write: true,
		})
		if err != nil {
			return nil, err
		}
		name := "magnification off"
		if on {
			name = "magnification on"
		}
		return []string{name, mbps(rep.ThroughputMBps()), fmt.Sprint(res.Bridge.Admissions[1])}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("the boost raises marginal fragments' returns on the slowest sibling disk; expect >= admissions and >= throughput with it on")
	return t, nil
}

// ablationPartition (A2): dynamic vs static partitions under the
// heterogeneous mix (same setup as fig12, condensed). fig12 already fans
// its config × seed grid through the runner.
func ablationPartition(s Scale) (*stats.Table, error) {
	tbl, err := fig12(s)
	if err != nil {
		return nil, err
	}
	tbl.ID = "ablation-partition"
	tbl.Title = "A2: " + tbl.Title
	return tbl, nil
}

// ablationEWMA (A3): sensitivity to the Eq. (1) weights.
func ablationEWMA(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ablation-ewma",
		Title:   "A3: EWMA new-sample weight sensitivity (65KB writes, 64 procs)",
		Columns: []string{"weight(new)", "throughput MB/s", "SSD frac"},
	}
	weights := []float64{7.0 / 8, 1.0 / 2, 1.0 / 8}
	rows, err := runner.Map(len(weights), func(i int) ([]string, error) {
		wNew := weights[i]
		cfg := baseConfig(s, cluster.IBridge)
		cfg.IBridge.EWMANew = wNew
		res, rep, err := mpiioRun(s, cfg, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: 65 * kb, Write: true,
		})
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.3f", wNew), mbps(rep.ThroughputMBps()),
			fmt.Sprintf("%.2f", res.SSDFraction)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("the default puts 7/8 on the new sample, the paper's text 1/8 (EXPERIMENTS.md D7); smaller weights make T staler and redirect more: the SSD fraction rises")
	return t, nil
}

// ablationSSDLog (A4): log-structured vs scattered SSD cache writes under
// BTIO, the workload with the most SSD write traffic.
func ablationSSDLog(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ablation-ssdlog",
		Title:   "A4: log-structured vs scattered SSD cache placement (BTIO, 64 procs)",
		Columns: []string{"placement", "exec time s", "I/O time s"},
	}
	variants := []bool{true, false}
	rows, err := runner.Map(len(variants), func(i int) ([]string, error) {
		logStructured := variants[i]
		cfg := baseConfig(s, cluster.IBridge)
		cfg.IBridge.LogStructured = logStructured
		bt, _, err := btioRun(s, cfg, 64, s.SSDBytes)
		if err != nil {
			return nil, err
		}
		name := "scattered"
		if logStructured {
			name = "log-structured"
		}
		return []string{name, fmt.Sprintf("%.1f", bt.TotalTime.Seconds()),
			fmt.Sprintf("%.1f", bt.IOTime.Seconds())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("scattered placement pays the SSD's random-write latency on every cache fill; the log keeps cache writes sequential (the Fig. 10 argument)")
	return t, nil
}

// ablationWriteback (A5): idle writeback on (paper) vs flush-only at
// program termination.
func ablationWriteback(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ablation-writeback",
		Title:   "A5: idle writeback vs flush-only (+10KB offset writes, 64 procs)",
		Columns: []string{"config", "throughput MB/s", "flush time s", "writeback MB"},
	}
	modes := []string{"eager writeback", "pressure-gated (default)", "flush-only"}
	rows, err := runner.Map(len(modes), func(i int) ([]string, error) {
		mode := modes[i]
		cfg := baseConfig(s, cluster.IBridge)
		switch mode {
		case "eager writeback":
			cfg.IBridge.WritebackMinDirty = 0
		case "flush-only":
			// Push the idle checker beyond any plausible run length so
			// all writeback happens in the final flush.
			cfg.IBridge.IdleCheck = 1 << 40
		}
		res, rep, err := mpiioRun(s, cfg, workload.MPIIOTestConfig{
			Procs: 64, RequestSize: 64 * kb, Shift: 10 * kb, Write: true,
		})
		if err != nil {
			return nil, err
		}
		return []string{mode, mbps(rep.ThroughputMBps()),
			fmt.Sprintf("%.2f", res.FlushTime.Seconds()),
			fmt.Sprint(res.Bridge.WritebackBytes >> 20)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("eager writeback in brief anticipation gaps delays foreground arrivals; the default engages only above 50%% dirty occupancy")
	return t, nil
}
