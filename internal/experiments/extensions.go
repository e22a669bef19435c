package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/mpiio"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("ext-collective", extCollective)
	register("ext-sieving", extSieving)
}

// extCollective compares the software and hardware answers to tiny
// strided writes: BTIO-style records issued (a) independently on the
// stock system, (b) through two-phase collective buffering on the stock
// system, and (c) independently with iBridge. The paper's related-work
// section positions iBridge against exactly these ROMIO optimizations.
func extCollective(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ext-collective",
		Title:   "tiny strided writes: independent vs collective I/O vs iBridge",
		Columns: []string{"config", "I/O time (s)", "bytes at servers"},
	}
	cases := []struct {
		name       string
		mode       cluster.Mode
		collective bool
	}{
		{"independent, stock", cluster.Stock, false},
		{"collective, stock", cluster.Stock, true},
		{"independent, iBridge", cluster.IBridge, false},
	}
	rows, err := runner.Map(len(cases), func(i int) ([]string, error) {
		cs := cases[i]
		io, bytes, err := extCollectiveRun(s, baseConfig(s, cs.mode), cs.collective)
		if err != nil {
			return nil, err
		}
		return []string{cs.name, fmt.Sprintf("%.2f", io.Seconds()), fmt.Sprintf("%dMB", bytes>>20)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Note("collective buffering fixes the pattern in software (aligned aggregated writes, at exchange cost); iBridge fixes it in hardware without touching the program")
	t.Note("expected shape: both alternatives far below 'independent, stock'")
	return t, nil
}

// extCollectiveRun runs ext-collective's BTIO-style records on a cluster
// of cfg, independently or through two-phase collective buffering, and
// returns the I/O time (flush included) and the bytes at the servers.
// The independent case is BTIO's program with no compute steps.
func extCollectiveRun(s Scale, cfg cluster.Config, collective bool) (sim.Duration, int64, error) {
	const procs = 16
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	progs := workload.BTIOPrograms(workload.BTIOConfig{Procs: procs, DataBytes: s.BTIOBytes, Steps: s.BTIOSteps})
	if collective {
		progs = mpiio.Collective(progs, mpiio.DefaultCollective())
	}
	var marks []sim.Time
	res, err := c.Run(func(cl *cluster.Cluster, done func()) {
		f, err := cl.FS.Create("ext", s.BTIOBytes+64*kb)
		if err != nil {
			panic(err)
		}
		mpiio.NewWorld(cl.Engine, cl.Client(), f, procs).Run(progs, workload.RankZeroMarks(cl.Engine, &marks), done)
	})
	if err != nil {
		return 0, 0, err
	}
	return workload.MarkedTime(marks) + res.FlushTime, res.Bytes, nil
}

// extSieving shows data sieving on strided small reads: one covering read
// per hole-bounded extent versus per-piece reads, on the stock system.
func extSieving(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		ID:      "ext-sieving",
		Title:   "strided 4KB reads, 16 procs: per-piece vs data sieving (stock system)",
		Columns: []string{"config", "elapsed (s)", "bytes at servers"},
	}
	variants := []bool{false, true}
	tblRows, err := runner.Map(len(variants), func(i int) ([]string, error) {
		sieve := variants[i]
		name := "per-piece reads"
		if sieve {
			name = "data sieving"
		}
		el, bytes, err := extSievingRun(s, baseConfig(s, cluster.Stock), sieve)
		if err != nil {
			return nil, err
		}
		return []string{name, fmt.Sprintf("%.2f", el.Seconds()), fmt.Sprintf("%dMB", bytes>>20)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, tblRows...)
	t.Note("sieving trades extra bytes (reading the holes) for far fewer, larger disk requests — the same trade iBridge's threshold discussion makes")
	t.Note("expected shape: sieving much faster despite moving more bytes")
	return t, nil
}

// extSievingRun runs ext-sieving's strided reads on a cluster of cfg,
// per piece or sieved, and returns the elapsed time and the bytes at the
// servers. Each rank owns a private block per row and reads a strided
// column inside it: the holes belong to nobody, so per-piece access is
// genuinely scattered and only sieving can recover sequentiality.
func extSievingRun(s Scale, cfg cluster.Config, sieve bool) (sim.Duration, int64, error) {
	const procs = 16
	const pieceLen = 4 * kb
	const strideN = 16 // pieces per rank per row
	const stride = 64 * kb
	rows := max(int(s.MPIIOBytes/(procs*strideN*stride)), 2)
	const blockBytes = strideN * stride
	const rowBytes = procs * blockBytes
	progs := make([]mpiio.Program, procs)
	for r := range progs {
		for row := 0; row < rows; row++ {
			col := mpiio.Step{Kind: mpiio.Read, Off: int64(row)*rowBytes + int64(r)*blockBytes,
				Len: pieceLen, Stride: stride, Count: strideN}
			if sieve {
				progs[r] = append(progs[r], mpiio.Sieve(col.Pieces(nil), device.Read, mpiio.SieveConfig{MaxHole: 256 * kb})...)
			} else {
				progs[r] = append(progs[r], col)
			}
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	res, err := c.Run(func(cl *cluster.Cluster, done func()) {
		f, err := cl.FS.Create("sieve", int64(rows)*rowBytes)
		if err != nil {
			panic(err)
		}
		mpiio.NewWorld(cl.Engine, cl.Client(), f, procs).Run(progs, nil, done)
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Elapsed, res.Bytes, nil
}
