package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/iosched"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register("table1", table1)
	register("table2", table2)
	register("table3", table3)
}

// table1 reproduces Table I: percentages of unaligned and random
// accesses in the four scientific I/O traces with a 64 KB striping unit.
// Each trace generates and classifies independently, so the four rows
// are a runner grid.
func table1(s Scale) (*stats.Table, error) {
	paper := map[string][2]float64{
		"ALEGRA-2744": {35.2, 7.3},
		"ALEGRA-5832": {35.7, 6.9},
		"CTH":         {24.3, 30.1},
		"S3D":         {62.8, 5.8},
	}
	t := &stats.Table{
		ID:      "table1",
		Title:   "unaligned/random access percentages (64KB unit, 20KB random threshold)",
		Columns: []string{"app", "unaligned%", "paper", "random%", "paper", "total%"},
	}
	workloads := trace.Workloads(s.TraceRecords, s.TraceBytes, 42)
	rows, err := runner.Map(len(workloads), func(i int) ([]string, error) {
		cfg := workloads[i]
		tr := trace.Generate(cfg)
		b := trace.DefaultClassifier().Analyze(tr)
		p := paper[cfg.Name]
		return []string{cfg.Name,
			fmt.Sprintf("%.1f", b.UnalignedPct), fmt.Sprintf("%.1f", p[0]),
			fmt.Sprintf("%.1f", b.RandomPct), fmt.Sprintf("%.1f", p[1]),
			fmt.Sprintf("%.1f", b.TotalPct)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("synthetic traces calibrated to the published Sandia trace statistics (the originals are not redistributable)")
	return t, nil
}

// table2 reproduces Table II: 4 KB microbenchmarks of the storage device
// models. The patterns × devices grid runs as eight independent
// single-device simulations.
func table2(Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "table2",
		Title:   "device microbenchmark, 4KB requests (MB/s)",
		Columns: []string{"pattern", "SSD", "paper", "HDD", "paper"},
	}
	paper := map[string][2]float64{
		"seq read":   {160, 85},
		"rand read":  {60, 15},
		"seq write":  {140, 80},
		"rand write": {30, 5},
	}
	type pattern struct {
		name   string
		op     device.Op
		random bool
	}
	patterns := []pattern{
		{"seq read", device.Read, false},
		{"rand read", device.Read, true},
		{"seq write", device.Write, false},
		{"rand write", device.Write, true},
	}
	// Grid layout: pattern-major, SSD then HDD.
	vals, err := runner.Map(len(patterns)*2, func(i int) (float64, error) {
		pt := patterns[i/2]
		e := sim.New()
		if i%2 == 0 {
			spec := ssd.DefaultSpec()
			return deviceBench(e, ssd.New(spec), pt.op, pt.random, spec.CapacityBytes), nil
		}
		spec := hdd.DefaultSpec()
		return deviceBench(e, hdd.New(e, spec, sim.NewRNG(1)), pt.op, pt.random, spec.CapacityBytes), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pt := range patterns {
		p := paper[pt.name]
		t.AddRow(pt.name,
			fmt.Sprintf("%.0f", vals[pi*2]), fmt.Sprintf("%.0f", p[0]),
			fmt.Sprintf("%.1f", vals[pi*2+1]), fmt.Sprintf("%.0f", p[1]))
	}
	t.Note("SSD model matches Table II; the HDD random rows are mechanical (seek+rotation) rates — the paper's 15/5 MB/s random figures are not achievable at queue depth 1 on a 7200-RPM disk and are treated as vendor-sheet values (see EXPERIMENTS.md)")
	return t, nil
}

// deviceBench runs 500 4KB requests back to back on a device, as its
// scheduler would at queue depth 1, and returns MB/s: a callback loop
// that starts each request when the one before has finished.
func deviceBench(e *sim.Engine, dev iosched.Device, op device.Op, random bool, capacity int64) float64 {
	rng := sim.NewRNG(7)
	const n = 500
	var r device.Request
	lbn, i := int64(0), 0
	var next func()
	next = func() {
		if i > 0 {
			dev.Finish(r)
			lbn += 8
		}
		if i == n {
			return
		}
		i++
		if random {
			lbn = rng.Range(0, capacity/device.SectorSize-8)
		}
		r = device.Request{Op: op, LBN: lbn, Sectors: 8}
		e.After(dev.Start(r), next)
	}
	e.After(0, next)
	if err := e.Run(); err != nil {
		panic(err)
	}
	return float64(n*8*device.SectorSize) / sim.Duration(e.Now()).Seconds() / 1e6
}

// table3 reproduces Table III: average request service times of the four
// trace replays, stock vs iBridge. Each (trace, mode) replay is an
// independent cluster simulation.
func table3(s Scale) (*stats.Table, error) {
	paper := map[string][2]float64{
		"ALEGRA-2744": {16.6, 14.2},
		"ALEGRA-5832": {17.2, 14.0},
		"CTH":         {19.4, 14.4},
		"S3D":         {36.0, 25.3},
	}
	t := &stats.Table{
		ID:      "table3",
		Title:   "trace replay: average request service time (ms)",
		Columns: []string{"trace", "stock", "paper", "iBridge", "paper", "reduction"},
	}
	workloads := trace.Workloads(s.TraceRecords, s.TraceBytes, 42)
	modes := []cluster.Mode{cluster.Stock, cluster.IBridge}
	vals, err := runner.Map(len(workloads)*2, func(i int) (sim.Duration, error) {
		gcfg := workloads[i/2]
		tr := trace.Generate(gcfg)
		cfg := baseConfig(s, modes[i%2])
		c, err := cluster.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := c.Run(workload.Replay(tr, s.TraceBytes))
		if err != nil {
			return 0, err
		}
		return res.AvgServiceTime, nil
	})
	if err != nil {
		return nil, err
	}
	for wi, gcfg := range workloads {
		st, ib := vals[wi*2], vals[wi*2+1]
		p := paper[gcfg.Name]
		t.AddRow(gcfg.Name,
			fmt.Sprintf("%.1f", st.Milliseconds()), fmt.Sprintf("%.1f", p[0]),
			fmt.Sprintf("%.1f", ib.Milliseconds()), fmt.Sprintf("%.1f", p[1]),
			fmt.Sprintf("%.0f%%", 100*(1-float64(ib)/float64(st))))
	}
	t.Note("paper reductions: 13.9%%/18.7%%/25.9%%/29.8%%; CTH and S3D improve most (more random/unaligned requests); S3D's larger requests give it the largest absolute service time")
	return t, nil
}
