package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

const simProcs = 64 // MPI processes of every simulation point, as in Fig. 4

// simPoint is one simulation of the paper's mpi-io-test grid: a storage
// mode, a request size or offset (the Fig. 4 cases), and a direction.
// Reads run warmed, as in the paper.
type simPoint struct {
	mode        string
	size, shift int64
	write       bool
}

// simGrid is the 24 points one cycle of the sim-eval loop visits.
func simGrid() []simPoint {
	var g []simPoint
	for _, c := range [][2]int64{{33, 0}, {65, 0}, {129, 0}, {64, 0}, {64, 1}, {64, 10}} {
		for _, mode := range []string{"stock", "ibridge"} {
			for _, write := range []bool{true, false} {
				g = append(g, simPoint{mode, c[0] << 10, c[1] << 10, write})
			}
		}
	}
	return g
}

func (p simPoint) args(fileMB int, seed uint64) []string {
	a := []string{"-mode", p.mode, "-procs", strconv.Itoa(simProcs),
		"-size", strconv.FormatInt(p.size, 10), "-shift", strconv.FormatInt(p.shift, 10),
		"-file", strconv.Itoa(fileMB), "-seed", strconv.FormatUint(seed, 10)}
	if p.write {
		return append(a, "-write")
	}
	return append(a, "-warm")
}

// requests is how many client requests the point issues, and bytes how
// much simulated user data they move.
func (p simPoint) requests(fileMB int) int64 {
	iters := max(int64(fileMB)<<20/(simProcs*p.size), 1)
	if !p.write {
		iters *= 2 // warm pass + measured pass
	}
	return iters * simProcs
}

var requestsLine = regexp.MustCompile(`(?m)^requests:\s+(\d+),`)

// runSim runs one ibridge-sim child and returns its output and usage.
func runSim(ctx context.Context, bin string, args []string) ([]byte, syscall.Rusage, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, syscall.Rusage{}, fmt.Errorf("ibridge-sim %v: %w\n%s", args, err, stderr.Bytes())
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, syscall.Rusage{}, fmt.Errorf("ibridge-sim: no resource usage")
	}
	return out, *ru, nil
}

type simLane struct {
	attempted, failed int64
	bytes             int64
	lat               []float64 // host time per simulation, µs
	maxRSS            float64
	firstArgs         []string
	firstOut          []byte
}

// simEndToEnd is the --trace 0 run of sim-eval: a closed loop of two
// callers, each running one simulation point at a time as an
// ibridge-sim child. A caller visits the 24 grid points in a seeded
// order, then reshuffles, so the mix is the same in every window; every
// point gets its own seeded simulation seed.
func (e *env) simEndToEnd(ctx context.Context) (*result, error) {
	bin := filepath.Join(e.bins, "ibridge-sim")

	// Set-up is what every simulation pays before its first event:
	// process start, flag parsing, cluster assembly. One tiny point.
	var launches []float64
	for i := 0; i < e.sz.launches; i++ {
		t0 := time.Now()
		if _, _, err := runSim(ctx, bin, []string{"-procs", "1", "-file", "1", "-write"}); err != nil {
			return nil, err
		}
		launches = append(launches, time.Since(t0).Seconds())
	}

	grid := simGrid()
	lanes := make([]simLane, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(l *simLane, rng *sim.RNG) {
			defer wg.Done()
			for ctx.Err() == nil {
				for _, gi := range rng.Perm(len(grid)) {
					if time.Since(start) >= e.cfg.window || ctx.Err() != nil {
						return
					}
					p, args := grid[gi], grid[gi].args(e.sz.simFileMB, rng.Uint64()>>1)
					t0 := time.Now()
					out, ru, err := runSim(ctx, bin, args)
					lat := time.Since(t0)
					l.attempted++
					m := requestsLine.FindSubmatch(out)
					if err != nil || m == nil || string(m[1]) != strconv.FormatInt(p.requests(e.sz.simFileMB), 10) {
						l.failed++
						continue
					}
					l.lat = append(l.lat, us(lat))
					l.bytes += p.requests(e.sz.simFileMB) * p.size
					l.maxRSS = math.Max(l.maxRSS, rssMB(ru))
					if l.firstArgs == nil {
						l.firstArgs, l.firstOut = args, out
					}
				}
			}
		}(&lanes[i], laneRNG(e.cfg.seed, i))
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := &result{correct: true, metrics: zeroed(endToEnd), defs: endToEnd}
	var lat []float64
	var moved int64
	for _, l := range lanes {
		res.attempted += l.attempted
		res.failed += l.failed
		lat = append(lat, l.lat...)
		moved += l.bytes
		res.metrics["peak_rss_mb"] += l.maxRSS
		// Output check: the simulator is deterministic, so the lane's
		// first point, run again, must print the same bytes.
		if l.firstArgs != nil {
			again, _, err := runSim(ctx, bin, l.firstArgs)
			if err != nil {
				return nil, err
			}
			res.correct = res.correct && bytes.Equal(again, l.firstOut)
		}
	}
	res.correct = res.correct && res.failed == 0 && len(lat) > 0
	res.metrics["setup_s"] = stats.Percentile(launches, 50)
	res.metrics["throughput_mbps"] = float64(moved) / elapsed.Seconds() / mb
	res.metrics["op_p50_us"] = stats.Percentile(lat, 50)
	res.notes = []string{
		fmt.Sprintf("closed loop, %d callers, one ibridge-sim child per request: %d procs, %d MiB, the 24 Fig. 4 points in seeded order",
			callers, simProcs, e.sz.simFileMB),
		"throughput is simulated user MB per host second; latencies are host time per simulation",
		fmt.Sprintf("%d latency samples over %.2fs", len(lat), elapsed.Seconds()),
	}
	return res, nil
}

// paperWriteGains are the paper's mpi-io-test write improvements of
// iBridge over stock at 64 processes (Fig. 4a), by request size in KB.
var paperWriteGains = []struct {
	kb   int64
	gain float64
}{{33, 105}, {65, 183}, {129, 171}}

// simPointInProc runs one mpi-io-test write point at the Smoke volumes,
// as internal/experiments configures it, and returns the result and the
// host time it took.
func simPointInProc(mode cluster.Mode, size int64) (cluster.Result, time.Duration, error) {
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.IBridge.SSDCapacity = experiments.Smoke.SSDBytes
	t0 := time.Now()
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Result{}, 0, err
	}
	res, err := c.Run(workload.MPIIOTest(workload.MPIIOTestConfig{
		Procs: simProcs, RequestSize: size, Write: true,
		FileBytes: experiments.Smoke.MPIIOBytes, Jitter: workload.DefaultJitter,
	}))
	return res, time.Since(t0), err
}

// engineProbe measures the bare event loop: a chain of timer callbacks
// over a heap of pending timers, interleaved with processes that sleep
// in a loop — the two ways every simulated component advances time.
func engineProbe(events int) (float64, error) {
	e := sim.New()
	for i := 0; i < 1024; i++ {
		e.After(sim.Duration(1+i)*3600*sim.Second, func() {})
	}
	n := 0
	count := func() bool {
		n++
		if n >= events {
			e.Halt()
		}
		return n < events
	}
	for i := 0; i < 64; i++ {
		d := sim.Duration(1+i) * sim.Microsecond
		e.Go(fmt.Sprintf("sleeper%d", i), func(p *sim.Proc) {
			for count() {
				p.Sleep(d)
			}
		})
	}
	var tick func()
	tick = func() {
		if count() {
			e.After(sim.Microsecond, tick)
		}
	}
	e.After(sim.Microsecond, tick)
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

// simTraced is the --trace 1 run of sim-eval: direct probes of the
// simulator's layers, then the whole paper evaluation as a child, the
// command a reproducer actually runs.
func (e *env) simTraced(ctx context.Context) (*result, error) {
	m := zeroed(perLayer)
	res := &result{correct: true, metrics: m, defs: perLayer}

	events := 2_000_000
	if e.cfg.quick {
		events = 200_000
	}
	var err error
	if m["sim.events_per_s"], err = engineProbe(events); err != nil {
		return nil, err
	}

	// Host cost per simulated request, stock and iBridge, on the
	// headline point (65 KB writes); median of probeReps runs. The
	// iBridge-minus-stock difference is what the core adds.
	perReq := map[cluster.Mode][]float64{}
	results := map[cluster.Mode]cluster.Result{}
	for rep := 0; rep < e.sz.probeReps; rep++ {
		for _, mode := range []cluster.Mode{cluster.Stock, cluster.IBridge} {
			r, host, err := simPointInProc(mode, 65<<10)
			if err != nil {
				return nil, err
			}
			res.attempted++
			// Output check: every repeat of a point returns the
			// identical result.
			if prev, ok := results[mode]; ok && !reflect.DeepEqual(prev, r) {
				res.correct = false
			}
			results[mode] = r
			perReq[mode] = append(perReq[mode], us(host)/float64(max(r.Requests, 1)))
		}
	}
	m["cluster.host_us_per_req_stock"] = stats.Percentile(perReq[cluster.Stock], 50)
	m["cluster.host_us_per_req_ibridge"] = stats.Percentile(perReq[cluster.IBridge], 50)
	m["core.host_us_per_req_delta"] = m["cluster.host_us_per_req_ibridge"] - m["cluster.host_us_per_req_stock"]
	m["core.ssd_fraction_65k_pct"] = 100 * results[cluster.IBridge].SSDFraction

	// Fidelity: our write gain against the paper's, simulated time only,
	// so it repeats exactly.
	for _, pg := range paperWriteGains {
		stock, _, err := simPointInProc(cluster.Stock, pg.kb<<10)
		if err != nil {
			return nil, err
		}
		bridge, _, err := simPointInProc(cluster.IBridge, pg.kb<<10)
		if err != nil {
			return nil, err
		}
		res.attempted += 2
		gain := 100 * (bridge.ThroughputMBps()/stock.ThroughputMBps() - 1)
		if pg.kb == 65 {
			m["core.write_gain_65k_pct"] = gain
		}
		m["core.fidelity_err_pct"] += 100 * math.Abs(gain-pg.gain) / pg.gain / float64(len(paperWriteGains))
	}

	// The whole evaluation, as a reproducer runs it.
	cmd := exec.CommandContext(ctx, filepath.Join(e.bins, "ibridge-bench"),
		"-exp", e.sz.evalExps, "-scale", "smoke", "-jobs", strconv.Itoa(callers))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ibridge-bench: %w\n%s", err, stderr.Bytes())
	}
	m["experiments.eval_wall_s"] = time.Since(t0).Seconds()
	res.attempted++
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		m["experiments.eval_cpu_s"] = cpuOf(*ru).Seconds()
		m["experiments.eval_rss_mb"] = rssMB(*ru)
	}
	tables := bytes.Count(append([]byte("\n"), out...), []byte("\n== "))
	m["experiments.tables"] = float64(tables)
	if tables != e.sz.evalTables {
		res.correct = false
		res.failed++
	}
	res.notes = []string{
		fmt.Sprintf("ibridge-bench -exp %s -scale smoke -jobs %d printed %d tables (want %d)", e.sz.evalExps, callers, tables, e.sz.evalTables),
		"core.write_gain/ssd_fraction/fidelity_err are simulated results and repeat exactly; the rest is host time",
	}
	return res, nil
}
