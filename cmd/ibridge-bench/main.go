// Command ibridge-bench regenerates the paper's tables and figures from
// the simulated cluster.
//
// Usage:
//
//	ibridge-bench -list
//	ibridge-bench -exp fig4 -scale medium
//	ibridge-bench -exp fig4,fig5,table3 -scale medium
//	ibridge-bench -exp all -scale small -jobs 8
//	ibridge-bench -exp fig12 -metrics -trace trace.json -v
//	ibridge-bench -exp all -scale smoke -cpuprofile bench.prof
//
// Experiments run concurrently: every experiment fans its data-point grid
// (independent cluster simulations) out across -jobs host goroutines, and
// with multiple experiment ids the experiments themselves overlap too.
// Output order and bytes are independent of -jobs: tables are emitted to
// stdout (and -out) by a single writer in request order, and per-cluster
// RNGs are seed-derived, so a -jobs 8 run renders byte-identical tables
// to a -jobs 1 run. Diagnostics (timings, -metrics report) go to stderr
// and -trace to its own file, so the rendered results stay deterministic
// whether or not observability is enabled. -debug-addr serves the live
// metrics registry over expvar (/debug/vars) for scraping mid-run.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hostprof"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids (see -list), or 'all'")
		scale     = flag.String("scale", "medium", "scale: smoke, small, medium, full")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		out       = flag.String("out", "", "also append rendered results to this file")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (<=0: GOMAXPROCS)")
		metrics   = flag.Bool("metrics", false, "print the metrics registry and T_i telemetry to stderr")
		traceTo   = flag.String("trace", "", "write a Chrome trace_event JSON request-flow trace to this file")
		obsMS     = flag.Int("obs-sample-ms", 0, "minimum virtual ms between T_i samples (0: every broadcast tick)")
		cpuProf   = flag.String("cpuprofile", "", "write a host CPU profile (go tool pprof) of the whole run to this file")
		debugAddr = flag.String("debug-addr", "", "serve the live metrics registry over HTTP at this address (/debug/vars); implies -metrics")
		verbose   = flag.Bool("v", false, "verbose: per-experiment host timings on stderr")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.List() {
			fmt.Println(id)
		}
		return
	}
	if *cpuProf != "" {
		stop, err := hostprof.StartCPU(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	set := obs.New(obs.Config{
		Metrics:     *metrics || *debugAddr != "",
		Trace:       *traceTo != "",
		SampleEvery: sim.Duration(*obsMS) * sim.Millisecond,
	})
	experiments.SetObs(set)
	if *debugAddr != "" {
		// Scraping mid-run reads the live registry: the simulation's
		// counters, gauges and histograms.
		expvar.Publish("bench", expvar.Func(func() any { return set.Registry().Snapshot() }))
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			log.Printf("ibridge-bench: expvar metrics on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("ibridge-bench: debug server: %v", err)
			}
		}()
	}
	runner.SetJobs(*jobs)
	s, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ids, err := resolveIDs(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}

	type result struct {
		rendered string
		elapsed  time.Duration
	}
	start := time.Now()
	// Experiments are coarse Stream units; each one's simulations are
	// throttled by the shared runner pool, and the emit callback is the
	// single ordered writer for stdout and the -out file.
	err = runner.Stream(len(ids),
		func(i int) (result, error) {
			t0 := time.Now()
			tbl, err := experiments.Run(ids[i], s)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", ids[i], err)
			}
			return result{rendered: tbl.Render(), elapsed: time.Since(t0)}, nil
		},
		func(i int, r result) error {
			if _, err := fmt.Fprintf(sink, "%s\n", r.rendered); err != nil {
				return err
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "%s completed in %.1fs host time at scale %s\n",
					ids[i], r.elapsed.Seconds(), s.Name)
			}
			return nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d experiments in %.1fs wall time, jobs=%d\n",
		len(ids), time.Since(start).Seconds(), runner.Jobs())

	if *metrics {
		set.WriteMetrics(os.Stderr)
	}
	if tr := set.Tracer(); tr != nil && *traceTo != "" {
		if err := writeTrace(tr, *traceTo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load in chrome://tracing)\n",
			tr.Len(), *traceTo)
	}
}

// writeTrace dumps the buffered request-flow trace as Chrome trace_event
// JSON.
func writeTrace(tr *obs.XTracer, path string) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeX(f, tr.Events()); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}

// resolveIDs expands the -exp flag: a comma-separated id list, where
// "all" (alone or among others) expands to every registered experiment.
// Unknown ids are rejected before any simulation starts.
func resolveIDs(exp string) ([]string, error) {
	known := map[string]bool{}
	for _, id := range experiments.List() {
		known[id] = true
	}
	var ids []string
	seen := map[string]bool{}
	for _, part := range strings.Split(exp, ",") {
		id := strings.TrimSpace(part)
		switch {
		case id == "":
			continue
		case id == "all":
			for _, a := range experiments.List() {
				if !seen[a] {
					seen[a] = true
					ids = append(ids, a)
				}
			}
		case !known[id]:
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		case !seen[id]:
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments selected by -exp %q", exp)
	}
	return ids, nil
}
