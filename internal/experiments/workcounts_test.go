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

// iorWorkPoint names the Fig. 8 ior-mpi-io point with a row of its own
// (runIORPoint): the only run of the ior-mpi-io benchmark the tests make
// outside table/fig8.
const iorWorkPoint = "ior/65KB/ibridge/read smoke"

// runIORPoint runs Fig. 8's 65 KB iBridge warmed-read point at smoke
// scale, which takes the benchmark through its warm pass, the idle
// window and both barriers, with the observability sinks set.
func runIORPoint(set *obs.Set) error {
	cfg := baseConfig(Smoke, cluster.IBridge)
	cfg.Obs = set
	_, _, err := iorRun(Smoke, cfg, workload.IORConfig{Procs: 64, RequestSize: 65 * kb, Warm: true})
	return err
}

// workCounters are the engine counters each row pins: events run,
// switches into a process, and processes created.
var workCounters = []string{"engine.events", "engine.resumes", "engine.procs_started"}

// TestWorkCounts is a ratchet on the simulator's work: the engine
// counters (workCounters) of each of workCountPoints, summed over all 24
// grid points, and of iorWorkPoint must not exceed the counts committed in testdata. Unlike host time these counts are exact, so a change that
// makes the simulator do more per simulated request fails here whatever
// the machine. A change that lowers a count rewrites the file with
// -update and lists the moved counts.
func TestWorkCounts(t *testing.T) {
	counts, err := runner.Map(25, func(i int) (map[string]int64, error) {
		set := obs.New(obs.Config{Metrics: true})
		if i == 24 {
			if err := runIORPoint(set); err != nil {
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
	got[iorWorkPoint] = counts[24]

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
