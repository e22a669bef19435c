package experiments

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workload"
)

const workCountsFile = "testdata/workcounts.json"

// workCountPoints are the sim-eval grid points (goldenPoint's indices)
// with a row of their own: 33 KB stock write, 65 KB iBridge warmed read,
// 129 KB stock warmed read and +10 KB iBridge write.
var workCountPoints = []int{0, 7, 9, 22}

// workPoints are the runs outside the sim-eval grid with a row of their
// own: Fig. 8's 65 KB iBridge warmed-read ior-mpi-io point, which takes
// the benchmark through its warm pass, the idle window and both
// barriers, and Fig. 3's k=2 run with a fragment and a barrier after
// every request (the interference reader still running when the ranks
// finish). Each runs at smoke scale with the observability sinks set.
var workPoints = []struct {
	name string
	run  func(set *obs.Set) error
}{
	{"ior/65KB/ibridge/read smoke", func(set *obs.Set) error {
		cfg := baseConfig(Smoke, cluster.IBridge)
		cfg.Obs = set
		_, _, err := mpiioRun(Smoke, cfg, workload.IOR, workload.MPIIOTestConfig{Procs: 64, RequestSize: 65 * kb, Warm: true})
		return err
	}},
	{"fig3/k=2/frag/barrier smoke", func(set *obs.Set) error {
		cfg := baseConfig(Smoke, cluster.Stock)
		cfg.Obs = set
		c, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		_, err = c.Run(workload.Fig3(workload.Fig3Config{Procs: 16, K: 2, Fragment: true, Barrier: true, Iters: 6}))
		return err
	}},
}

// workCounters are the engine counters each row pins: events run,
// switches into a process, and processes created.
var workCounters = []string{"engine.events", "engine.resumes", "engine.procs_started"}

// TestWorkCounts is a ratchet on the simulator's work: the engine
// counters (workCounters) of each of workCountPoints, summed over all 24
// grid points, and of each of workPoints must not exceed the counts committed in testdata. Unlike host time these counts are exact, so a change that
// makes the simulator do more per simulated request fails here whatever
// the machine. A change that lowers a count rewrites the file with
// -update and lists the moved counts.
func TestWorkCounts(t *testing.T) {
	counts, err := runner.Map(24+len(workPoints), func(i int) (map[string]int64, error) {
		set := obs.New(obs.Config{Metrics: true})
		if i >= 24 {
			if err := workPoints[i-24].run(set); err != nil {
				return nil, err
			}
		} else if _, _, _, err := runGridPoint(i, set); err != nil {
			return nil, err
		}
		all := set.Registry().CounterValues()
		row := map[string]int64{}
		for _, k := range workCounters {
			row[k] = all[k]
		}
		return row, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]int64{}
	total := map[string]int64{}
	for i, row := range counts[:24] {
		for k, n := range row {
			total[k] += n
		}
		if slices.Contains(workCountPoints, i) {
			got[fmt.Sprintf("%s seed=%d", gridPointName(i), 1000+i)] = row
		}
	}
	got["grid/24 points seeds=1000-1023"] = total
	for i, wp := range workPoints {
		got[wp.name] = counts[24+i]
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workCountsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), workCountsFile)
		return
	}

	data, err := os.ReadFile(workCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", workCountsFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d rows, this build counts %d", workCountsFile, len(want), len(got))
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		for k, v := range got[name] {
			w, ok := want[name][k]
			switch {
			case !ok:
				t.Errorf("%s: %s = %d has no committed count", name, k, v)
			case v > w:
				t.Errorf("%s: %s rose from %d to %d", name, k, w, v)
			case v < w:
				t.Logf("%s: %s fell from %d to %d; rewrite %s with -update", name, k, w, v, workCountsFile)
			}
		}
	}
}
