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
	register("ssdfail", ssdFail)
}

// ssdFail measures graceful degradation when an SSD device dies mid-run:
// the bridge drains its dirty data, drops the mapping table, and serves
// everything from the disk thereafter. The run must still complete, and
// its throughput should land between the healthy iBridge cluster and the
// stock (disk-only) one — the cluster loses the acceleration, never the
// data. The failure is part of the cluster's configuration
// (cluster.Config.SSDFails): srv0's SSD fails at half the healthy run's
// virtual time, so the scenario is a pure function of the scale.
func ssdFail(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ssdfail",
		Title:   "mpi-io-test 33KB, SSD-device failure at half of healthy runtime",
		Columns: []string{"config", "MB/s", "SSD fraction", "ssd failures"},
	}
	const reqSize = 33 * kb

	run := func(mode cluster.Mode, fails map[int]sim.Duration) (cluster.Result, error) {
		cfg := baseConfig(s, mode)
		cfg.SSDFails = fails
		res, _, err := mpiioRun(s, cfg, workload.MPIIOTest, workload.MPIIOTestConfig{Procs: 16, RequestSize: reqSize, Write: true})
		return res, err
	}

	// The healthy iBridge run calibrates the failure time: srv0's SSD
	// dies halfway through, which any scale survives.
	healthy, err := run(cluster.IBridge, nil)
	if err != nil {
		return nil, err
	}
	half := sim.Duration(healthy.Elapsed+healthy.FlushTime) / 2

	type variant struct {
		name  string
		mode  cluster.Mode
		fails map[int]sim.Duration
	}
	cases := []variant{
		{"iBridge, healthy", cluster.IBridge, nil},
		{"iBridge, srv0 SSD fails", cluster.IBridge, map[int]sim.Duration{0: half}},
		{"stock (disk only)", cluster.Stock, nil},
	}
	rows, err := runner.Map(len(cases), func(i int) ([]string, error) {
		res := healthy
		if i != 0 {
			var err error
			res, err = run(cases[i].mode, cases[i].fails)
			if err != nil {
				return nil, err
			}
		}
		return []string{
			cases[i].name,
			mbps(res.ThroughputMBps()),
			fmt.Sprintf("%.0f%%", res.SSDFraction*100),
			fmt.Sprintf("%d", res.Bridge.SSDFailures),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	// The note's wording is part of the recorded tables
	// (results_medium.txt, golden.sha256).
	t.Note(fmt.Sprintf("fault plan: seed=1; ssdfail=srv0@%dns", int64(half)))
	t.Note("expected shape: failed run completes, throughput between healthy iBridge and stock")
	return t, nil
}
