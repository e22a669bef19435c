// Command bench is the repository's one benchmark: it builds the
// commands from the tree it runs in, drives one workload against them,
// checks the outputs, and prints every metric by name with its unit.
//
//	bash bench/run.sh --workload live-unaligned --seed 1 --seconds 10 --trace 0
//
// (run.sh only points the Go build cache into the checkout and execs
// `go run ./bench`.) The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; a human-readable table
// goes to standard error. With --trace 0 the metrics are the end-to-end
// ones, measured with tracing off; with --trace 1 a separate traced run
// gives the per-layer ones. See bench/README.md for the catalogue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's input. The programs under test never see
// the seed or the workload name, only the requests generated from them.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // how long an end-to-end leg measures
	trace    bool
	quick    bool   // tiny file and probe sizes, for bench_test.go
	spansOut string // traced runs: write the recorded spans here
	root     string // module root: where go.mod and cmd/ live
}

// sizes are the knobs -quick shrinks.
type sizes struct {
	fileBytes  int64  // live file, preloaded before measuring
	setups     int    // cluster bring-ups per run; setup_s is their median
	launches   int    // sim-eval: CLI launches per run; setup_s is their median
	simFileMB  int    // sim-eval: data volume of one simulation point
	probeReps  int    // sim probes: repeats per point (>= 2: repeats must agree), median taken
	evalExps   string // -exp list of the whole-evaluation child run
	evalTables int    // tables that run must print
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{fileBytes: 16 << 20, setups: 1, launches: 3, simFileMB: 16,
			probeReps: 2, evalExps: "table1,table2,fig5", evalTables: 3}
	}
	return sizes{fileBytes: 256 << 20, setups: 5, launches: 15, simFileMB: 48,
		probeReps: 5, evalExps: "all", evalTables: 27}
}

// result is what one invocation reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   metrics
	defs      []metricDef // the catalogue section metrics was filled from
	notes     []string    // context for the table on standard error
}

// env is what every leg of a run shares.
type env struct {
	cfg    config
	sz     sizes
	bins   string  // directory of the freshly built commands
	work   string  // scratch directory inside the checkout, removed at exit
	buildS float64 // wall time of the build step
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated request stream")
	flag.IntVar(&seconds, "seconds", 10, "seconds an end-to-end leg measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny file and probe sizes (smoke test)")
	flag.StringVar(&cfg.spansOut, "spans-out", "", "with -trace 1: write the bench's spans (JSON lines, ibridge-trace format) to this file")
	flag.Parse()
	if seconds < 1 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg.root = root

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.writeTable(os.Stderr, cfg)
	if err := res.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// run builds the commands, then runs the end-to-end or the traced legs
// of cfg.workload. Everything it creates lives under root/.bench_build.
func run(ctx context.Context, cfg config) (*result, error) {
	spec, live := liveSpecs[cfg.workload]
	if !live && cfg.workload != simEval {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	e := &env{cfg: cfg, sz: sizesFor(cfg.quick)}
	var err error
	if e.bins, e.buildS, err = build(ctx, cfg.root); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(filepath.Join(cfg.root, buildDir), "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	var res *result
	switch {
	case live && cfg.trace:
		res, err = e.liveTraced(ctx, spec)
	case live:
		res, err = e.liveEndToEnd(ctx, spec)
	case cfg.trace:
		res, err = e.simTraced(ctx)
	default:
		res, err = e.simEndToEnd(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		res.metrics["bench.build_s"] = e.buildS
	}
	return res, nil
}

func workloadNames() string {
	names := []string{simEval}
	for n := range liveSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// writeJSON prints the one-line result object the driver parses.
func (r *result) writeJSON(w *os.File) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]val, len(r.defs))}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = val{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *result) writeTable(w *os.File, cfg config) {
	fmt.Fprintf(w, "workload %s  seed %d  window %v  trace %v\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.attempted, r.failed, r.correct)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1e6
