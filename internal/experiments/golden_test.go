package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 and testdata/workcounts.json from this build's output")

const goldenFile = "testdata/golden.sha256"

// goldenTables are the experiments whose rendered smoke-scale tables are
// pinned: a write figure, a warmed-read figure with staging, the
// writeback ablation (mapping-table sector and idle writeback active),
// the eviction-heavy SSD capacity sweep, the SSD-failure drain, the trace
// replay (regular random requests), the disk-only / iBridge / SSD-only
// comparison (the only SSD-only store path), and mpi-io-test beside
// BTIO under static and dynamic partitions (fragments and random writes
// sharing the daemon and the disks' anticipation windows), ior-mpi-io
// (per-rank chunks, warmed reads), the striping-magnification grid
// (barriers after every request, an interference reader), Fig. 5's
// workload with server readahead, and the checkpoint/restart comparison
// with PLFS (shuffled writes, a restart read, the log mount).
var goldenTables = []string{"fig13", "fig5", "ablation-writeback", "fig11", "ssdfail", "table3", "fig10", "fig12", "fig8",
	"fig3", "ext-readahead", "ext-plfs"}

// goldenPoint runs grid point i of the benchmark's sim-eval workload
// (bench/sim.go's simGrid: the six Fig. 4 cases × stock/iBridge ×
// write/warmed read, 64 processes, 48 MiB) as cmd/ibridge-sim configures
// it, at seed 1000+i, and renders every simulated quantity of the
// result at full precision.
func goldenPoint(i int) (string, string, error) {
	c, res, rep, err := runGridPoint(i, nil)
	if err != nil {
		return "", "", err
	}
	return gridPointName(i), renderRun(c, res, rep), nil
}

// gridPointName names grid point i.
func gridPointName(i int) string {
	op := "read"
	if i%2 == 0 {
		op = "write"
	}
	return fmt.Sprintf("point/%s/%s/%s", fig4Cases()[i/4].name, gridPointMode(i), op)
}

func gridPointMode(i int) cluster.Mode {
	return []cluster.Mode{cluster.Stock, cluster.IBridge}[(i/2)%2]
}

// runGridPoint runs grid point i at seed 1000+i with the observability
// sinks set (nil: none).
func runGridPoint(i int, set *obs.Set) (*cluster.Cluster, cluster.Result, *workload.Report, error) {
	cs := fig4Cases()[i/4]
	write := i%2 == 0
	seed := uint64(1000 + i)

	cfg := cluster.DefaultConfig()
	cfg.Mode = gridPointMode(i)
	cfg.Seed = seed
	cfg.IBridge.SSDCapacity = 1 << 30
	cfg.Obs = set
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, cluster.Result{}, nil, err
	}
	rep := &workload.Report{}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: 64, RequestSize: cs.size, Shift: cs.shift, FileBytes: 48 * workload.MB,
		Write: write, Warm: !write, Jitter: workload.DefaultJitter, Seed: seed, Report: rep,
	}))
	return c, res, rep, err
}

// renderRun prints every simulated quantity of a finished run at full
// precision: the result, the measured window, and the disks' statistics
// (which include what the engine's shutdown order leaves behind).
func renderRun(c *cluster.Cluster, res cluster.Result, rep *workload.Report) string {
	ds := c.DiskStats()
	return fmt.Sprintf("run: elapsed=%d flush=%d bytes=%d requests=%d service=%d ssdfrac=%v peak=%d\n"+
		"measured: start=%d end=%d bytes=%d\nbridge: %+v\n"+
		"disks: ops=%v bytes=%v seq=%v busy=%d seek=%d seeks=%d\n",
		int64(res.Elapsed), int64(res.FlushTime), res.Bytes, res.Requests, int64(res.AvgServiceTime),
		res.SSDFraction, res.Bridge.PeakUsage, int64(rep.Start), int64(rep.End), rep.Bytes, res.Bridge,
		ds.Ops, ds.Bytes, ds.SeqOps, int64(ds.BusyTime), int64(ds.SeekTime), ds.Seeks)
}

// goldenBTIO is fig11's tightest cache at medium scale: BTIO's 64
// processes rewriting small records through an SSD an eighth the size of
// the data. It is the regime the smoke tables do not reach — constant
// eviction with writebacks in flight, and admissions of one extent that
// overlap in virtual time, each superseding the one before.
func goldenBTIO() (string, string, error) {
	s := Medium
	cfg := cluster.DefaultConfig()
	cfg.Mode = cluster.IBridge
	cfg.IBridge.SSDCapacity = s.BTIOBytes / 8
	c, err := cluster.New(cfg)
	if err != nil {
		return "", "", err
	}
	var bt workload.BTIOResult
	res, err := c.Run(workload.BTIO(workload.BTIOConfig{
		Procs: 64, DataBytes: s.BTIOBytes, Steps: s.BTIOSteps,
		ComputePerStep: s.BTIOCompute / sim.Duration(s.BTIOSteps),
	}, &bt))
	if err != nil {
		return "", "", err
	}
	out := fmt.Sprintf("btio: total=%d io=%d\n", int64(bt.TotalTime), int64(bt.IOTime)) +
		renderRun(c, res, &workload.Report{})
	return "btio/medium/ssd=12%", out, nil
}

// TestGoldenDigests pins the simulator's output bit for bit: the SHA-256
// of every sim-eval grid point's result, of the goldenBTIO run and of the
// rendered tables of goldenTables must equal the digests committed in
// testdata, which were generated on the commit before the engine moved
// to coroutine switches.
// A change to the engine, the cache bookkeeping or the client that is
// meant to be a pure host-time optimisation must leave this test green;
// a change that means to move simulated numbers regenerates the file
// with -update and says so.
//
// The digests are written serially (jobs=1) with observability off, and
// checked at jobs=8 with the full observability stack installed
// (metrics, tracing, T_i sampling) for the tables. One comparison thus
// also pins determinism across runs, independence from the parallel
// runner's fan-out, and the zero-perturbation contract of the probes.
func TestGoldenDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("some fifty full simulations blow the package timeout under the race detector; TestRenderDeterministicAcrossJobs keeps its coverage of the parallel fan-out")
	}
	defer runner.SetJobs(0)
	jobs, set := 8, obs.New(obs.Config{Metrics: true, Trace: true, SampleEvery: 100 * sim.Millisecond})
	if *updateGolden {
		jobs, set = 1, nil
	}
	runner.SetJobs(jobs)
	SetObs(set)
	defer SetObs(nil)

	type digest struct{ name, sum string }
	points, err := runner.Map(25, func(i int) (digest, error) {
		run := goldenBTIO
		if i < 24 {
			run = func() (string, string, error) { return goldenPoint(i) }
		}
		name, out, err := run()
		return digest{name, fmt.Sprintf("%x", sha256.Sum256([]byte(out)))}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := points
	for _, id := range goldenTables {
		got = append(got, digest{"table/" + id, fmt.Sprintf("%x", sha256.Sum256([]byte(renderAt(t, id, jobs))))})
	}
	if set != nil {
		checkTelemetry(t, set)
		var ti strings.Builder
		set.WriteTiSeries(&ti)
		if ti.Len() == 0 {
			t.Error("instrumented runs sampled no T_i series")
		}
	}

	if *updateGolden {
		var b strings.Builder
		for _, d := range got {
			fmt.Fprintf(&b, "%s  %s\n", d.sum, d.name)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = sum
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, this build produces %d", goldenFile, len(want), len(got))
	}
	for _, d := range got {
		if want[d.name] != d.sum {
			t.Errorf("%s: simulated output changed: digest %s, golden %s", d.name, d.sum, want[d.name])
		}
	}
}

// The three tests below each isolate one axis that TestGoldenDigests
// checks all at once, on fig2b (the client/server pipeline, the cheapest
// experiment), so that a digest mismatch can be traced to its cause.
// They are cheap enough to run under -race too.

// TestRenderDeterministicAcrossRuns checks that the same seed renders
// byte-identical tables across two runs in one process: no state may
// leak from one run into the next.
func TestRenderDeterministicAcrossRuns(t *testing.T) {
	defer runner.SetJobs(0)
	first, second := renderAt(t, "fig2b", 0), renderAt(t, "fig2b", 0)
	if first != second {
		t.Errorf("fig2b: two runs with the same seed rendered different tables:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestRenderDeterministicUnderObservability checks the zero-perturbation
// half of the observability contract: the full instrumentation stack
// (metrics, tracing, T_i sampling) renders the same table as a bare run,
// and does produce telemetry.
func TestRenderDeterministicUnderObservability(t *testing.T) {
	defer runner.SetJobs(0)
	defer SetObs(nil)
	SetObs(nil)
	bare := renderAt(t, "fig2b", 0)
	set := obs.New(obs.Config{Metrics: true, Trace: true, SampleEvery: 100 * sim.Millisecond})
	SetObs(set)
	observed := renderAt(t, "fig2b", 0)
	if bare != observed {
		t.Errorf("fig2b: observability changed the rendered table:\n--- bare ---\n%s\n--- observed ---\n%s", bare, observed)
	}
	checkTelemetry(t, set)
}

// TestRenderDeterministicAcrossJobs checks that the parallel harness does
// not leak host scheduling into results: jobs=1 and jobs=8 render
// byte-identical tables.
func TestRenderDeterministicAcrossJobs(t *testing.T) {
	defer runner.SetJobs(0)
	serial, wide := renderAt(t, "fig2b", 1), renderAt(t, "fig2b", 8)
	if serial != wide {
		t.Errorf("fig2b: jobs=1 and jobs=8 rendered different tables:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, wide)
	}
}

// renderAt runs one experiment at smoke scale under the given jobs
// setting and returns the rendered table.
func renderAt(t *testing.T, id string, jobs int) string {
	t.Helper()
	runner.SetJobs(jobs)
	tbl, err := Run(id, Smoke)
	if err != nil {
		t.Fatalf("%s (jobs=%d): %v", id, jobs, err)
	}
	return tbl.Render()
}

// checkTelemetry asserts that the instrumented runs actually produced
// telemetry — otherwise their digests matching proves nothing — and
// that the trace exports as Chrome JSON with no event before t=0.
func checkTelemetry(t *testing.T, set *obs.Set) {
	t.Helper()
	tr := set.Tracer()
	if tr.Len() == 0 {
		t.Error("instrumented runs recorded no trace events")
	}
	if len(set.Registry().Snapshot()) == 0 {
		t.Error("instrumented runs registered no metrics")
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeX(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChromeX: %v", err)
	}
	var chrome struct {
		// Only ts is decoded: the whole document is still validated,
		// without building a map per event of a large trace.
		TraceEvents []struct {
			TS float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("Chrome trace export is empty")
	}
	for i, ev := range chrome.TraceEvents {
		if ev.TS < 0 {
			t.Fatalf("trace event %d at ts=%v µs, before the trace origin", i, ev.TS)
		}
	}
}
