// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–III, Figures 2–13) plus the ablations called out
// in DESIGN.md. Each experiment builds fresh simulated clusters, runs the
// corresponding benchmark workloads, and returns a stats.Table with the
// measured values alongside the paper's published numbers where the text
// states them.
//
// Experiments accept a Scale that shrinks the data volumes so that runs
// complete in seconds of host time; the reproduced quantities are shapes
// (ratios, orderings, crossovers), which are volume-invariant once the
// runs reach steady state.
package experiments

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sizes the experiment workloads.
type Scale struct {
	Name string
	// MPIIOBytes is the data volume for mpi-io-test and ior-mpi-io
	// runs (the paper uses 10 GB).
	MPIIOBytes int64
	// BTIOBytes is the BTIO dataset (6.8 GB at class C in the paper),
	// and BTIOSteps the number of solver steps.
	BTIOBytes int64
	BTIOSteps int
	// BTIOCompute is the total computation wall time of a BTIO run
	// (each step computes BTIOCompute/BTIOSteps), calibrated so the
	// stock system's I/O share of execution time lands near the
	// paper's 58%.
	BTIOCompute sim.Duration
	// TraceRecords and TraceBytes size the synthetic trace replays.
	TraceRecords int
	TraceBytes   int64
	// MaxProcs caps process-count sweeps.
	MaxProcs int
	// SSDBytes is the per-server iBridge cache size (10 GB in the
	// paper), scaled with the data volume.
	SSDBytes int64
}

// Predefined scales.
var (
	// Smoke is for unit tests: seconds of host time for the full set.
	Smoke = Scale{
		Name:       "smoke",
		MPIIOBytes: 48 * workload.MB,
		BTIOBytes:  24 * workload.MB, BTIOSteps: 4, BTIOCompute: 9 * sim.Second,
		TraceRecords: 800, TraceBytes: 512 * workload.MB,
		MaxProcs: 64,
		SSDBytes: 512 * workload.MB,
	}
	// Small is the default for go test -bench.
	Small = Scale{
		Name:       "small",
		MPIIOBytes: 128 * workload.MB,
		BTIOBytes:  64 * workload.MB, BTIOSteps: 6, BTIOCompute: 24 * sim.Second,
		TraceRecords: 3000, TraceBytes: 1 * workload.GB,
		MaxProcs: 128,
		SSDBytes: 1 * workload.GB,
	}
	// Medium is the default for cmd/ibridge-bench.
	Medium = Scale{
		Name:       "medium",
		MPIIOBytes: 256 * workload.MB,
		BTIOBytes:  128 * workload.MB, BTIOSteps: 8, BTIOCompute: 48 * sim.Second,
		TraceRecords: 10000, TraceBytes: 2 * workload.GB,
		MaxProcs: 512,
		SSDBytes: 2 * workload.GB,
	}
	// Full approaches the paper's volumes (minutes of host time).
	Full = Scale{
		Name:       "full",
		MPIIOBytes: 2 * workload.GB,
		BTIOBytes:  1 * workload.GB, BTIOSteps: 10, BTIOCompute: 380 * sim.Second,
		TraceRecords: 50000, TraceBytes: 10 * workload.GB,
		MaxProcs: 512,
		SSDBytes: 10 * workload.GB,
	}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// Func runs one experiment at a scale.
type Func func(Scale) (*stats.Table, error)

// registry maps experiment ids to implementations; populated by the
// figure/table files' init functions.
var registry = map[string]Func{}

func register(id string, f Func) { registry[id] = f }

// Run executes the experiment with the given id.
func Run(id string, s Scale) (*stats.Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	return f(s)
}

// List returns all experiment ids in sorted order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// currentObs is the observability sink every experiment cluster wires in
// (nil = disabled). Held in an atomic pointer because the parallel runner
// executes experiments concurrently with a caller installing the set.
var currentObs atomic.Pointer[obs.Set]

// SetObs installs the observability sink used by all subsequently built
// experiment clusters (nil disables). Probes only read state, so results
// are byte-identical with or without a sink (see TestGoldenDigests).
func SetObs(s *obs.Set) { currentObs.Store(s) }

// CurrentObs returns the installed observability sink, or nil.
func CurrentObs() *obs.Set { return currentObs.Load() }

// baseConfig returns the evaluation-platform cluster configuration at the
// given mode and scale.
func baseConfig(s Scale, mode cluster.Mode) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.IBridge.SSDCapacity = s.SSDBytes
	cfg.Obs = CurrentObs()
	return cfg
}

// mpiioRun is the shared runner of the strided benchmarks: it builds a
// fresh cluster, runs the workload build makes of w (workload.MPIIOTest
// or workload.IOR) and returns the cluster result plus the
// measured-window report.
func mpiioRun(s Scale, cfg cluster.Config, build func(workload.MPIIOTestConfig) cluster.Workload, w workload.MPIIOTestConfig) (cluster.Result, *workload.Report, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Result{}, nil, err
	}
	if w.FileBytes == 0 {
		w.FileBytes = s.MPIIOBytes
	}
	if w.Jitter == 0 {
		w.Jitter = workload.DefaultJitter
	}
	rep := &workload.Report{}
	w.Report = rep
	res, err := c.Run(build(w))
	if err != nil {
		return res, rep, err
	}
	if !w.Warm {
		// Whole-run throughput (including flush) is the headline
		// number for unwarmed runs; align the report with it.
		rep.Start = 0
		rep.End = sim.Time(res.Elapsed + res.FlushTime)
		rep.Bytes = res.Bytes
	}
	return res, rep, nil
}

// btioRun is the shared BTIO runner.
func btioRun(s Scale, cfg cluster.Config, procs int, ssdBytes int64) (workload.BTIOResult, cluster.Result, error) {
	cfg.IBridge.SSDCapacity = ssdBytes
	c, err := cluster.New(cfg)
	if err != nil {
		return workload.BTIOResult{}, cluster.Result{}, err
	}
	var bt workload.BTIOResult
	res, err := c.Run(workload.BTIO(workload.BTIOConfig{
		Procs:          procs,
		DataBytes:      s.BTIOBytes,
		Steps:          s.BTIOSteps,
		ComputePerStep: s.BTIOCompute / sim.Duration(s.BTIOSteps),
	}, &bt))
	// Count the post-termination flush into execution time, as the
	// paper does.
	bt.TotalTime += res.FlushTime
	bt.IOTime += res.FlushTime
	return bt, res, err
}

const kb = workload.KB

// mbps formats a throughput cell.
func mbps(v float64) string { return fmt.Sprintf("%.1f", v) }
